"""Shared compile-on-demand loader for the native kernels.

One function, :func:`load_library`, turns a C source file into a loaded
:class:`ctypes.CDLL`.  Compiled artifacts are cached on disk keyed by a
hash of the source bytes plus the full compiler command line, so

* a source file is compiled at most once per toolchain/flag combination
  across processes, and
* editing a kernel source (or changing flags) can never load a stale
  binary — the key changes, so a fresh ``.so`` is built.

The loader degrades gracefully: no compiler, a failed build, or an
unloadable artifact all yield ``None``, and callers fall back to their
numpy reference pipelines.  Nothing outside this module needs to know
whether a kernel is in use.

:func:`verified_library` is the gate every stage module's ``get_lib``
goes through: stage opt-out, load, declare the ctypes signatures, run
the stage's bitwise self-test once, memoize the verdict.
:func:`recheck_gates` re-runs those self-tests mid-run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "BASE_FLAGS",
    "cache_dir",
    "load_library",
    "native_threads",
    "openmp_available",
    "recheck_gates",
    "source_key",
    "stage_enabled",
    "verified_library",
]

#: Baseline flags shared by every kernel: no FMA contraction and no
#: reassociation, so each C expression performs exactly the individually
#: rounded IEEE double operations of its numpy counterpart.
BASE_FLAGS: Tuple[str, ...] = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Per-process memo: cache-key -> CDLL or None (failed).
_loaded: dict = {}

_openmp: Optional[bool] = None


@dataclass
class _Gate:
    """Self-test verdict of one stage's loaded library."""

    lib: ctypes.CDLL
    self_test: Callable[[ctypes.CDLL], bool]
    ok: bool


#: stage -> gate, for every stage whose library has been loaded and
#: self-tested in this process (a stage re-verifies if its cache key —
#: and thus its library — changes)
_gates: Dict[str, _Gate] = {}


def stage_enabled(stage: str) -> bool:
    """Whether native kernels for ``stage`` are allowed right now.

    Checked per call (cheap environment lookups), so tests and the
    step benchmark can toggle stages inside one process.
    """
    env = os.environ
    if env.get("REPRO_NO_NATIVE"):
        return False
    if env.get(f"REPRO_NO_NATIVE_{stage.upper()}"):
        return False
    return True


def native_threads() -> int:
    """OpenMP thread count requested via ``REPRO_NATIVE_THREADS``."""
    raw = os.environ.get("REPRO_NATIVE_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _compiler() -> str:
    return os.environ.get("CC", "cc")


def cache_dir() -> str:
    """Directory holding compiled ``.so`` artifacts."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _key(blob: bytes, flags: Sequence[str]) -> str:
    h = hashlib.sha256()
    h.update(blob)
    h.update(b"\0")
    h.update(_compiler().encode())
    for f in flags:
        h.update(b"\0")
        h.update(f.encode())
    return h.hexdigest()[:20]


def source_key(src_path: str, flags: Sequence[str]) -> Optional[str]:
    """Cache key: hash of the source bytes and the compile command.

    Returns ``None`` when the source cannot be read (missing file).
    """
    try:
        with open(src_path, "rb") as fh:
            return _key(fh.read(), flags)
    except OSError:
        return None


def _compile(src_path: str, so_path: str, flags: Sequence[str]) -> bool:
    """Compile ``src_path`` into ``so_path`` atomically."""
    os.makedirs(os.path.dirname(so_path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=".build-", suffix=".so", dir=os.path.dirname(so_path)
    )
    os.close(fd)
    cmd = [_compiler(), *flags, "-o", tmp, src_path, "-lm"]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        os.replace(tmp, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False


_OPENMP_PROBE = (
    "#include <omp.h>\n"
    "int probe(void) { return omp_get_max_threads(); }\n"
)


def _probe_openmp(flags: Sequence[str]) -> bool:
    """Build and load a minimal OpenMP shared object."""
    with tempfile.TemporaryDirectory(prefix="repro-omp-probe-") as workdir:
        src = os.path.join(workdir, "probe.c")
        with open(src, "w") as fh:
            fh.write(_OPENMP_PROBE)
        so = os.path.join(workdir, "probe.so")
        if not _compile(src, so, flags):
            return False
        try:
            ctypes.CDLL(so)
            return True
        except OSError:
            return False


def openmp_available() -> bool:
    """Whether the toolchain can build OpenMP shared objects.

    The verdict gates adding ``-fopenmp`` to kernels that have threaded
    entry points.  It is probed with a minimal program once per
    toolchain: the answer is kept in :func:`cache_dir` under a key of the
    probe text, compiler and flags (like a kernel's ``.so``), so only the
    first process compiles anything.  A missing or unreadable verdict
    file means "probe again".
    """
    global _openmp
    if _openmp is not None:
        return _openmp
    flags = (*BASE_FLAGS, "-fopenmp")
    path = os.path.join(
        cache_dir(), f"openmp-{_key(_OPENMP_PROBE.encode(), flags)}.txt"
    )
    try:
        with open(path, "rb") as fh:
            verdict = {b"yes": True, b"no": False}.get(fh.read().strip())
    except OSError:
        verdict = None
    if verdict is None:
        verdict = _probe_openmp(flags)
        try:
            os.makedirs(cache_dir(), exist_ok=True)
            tmp = f"{path}.{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write("yes\n" if verdict else "no\n")
            os.replace(tmp, path)
        except OSError:
            pass  # an unwritable cache only costs the next process a probe
    _openmp = verdict
    return _openmp


def load_library(
    src_path: str, extra_flags: Sequence[str] = ()
) -> Optional[ctypes.CDLL]:
    """Load (building if needed) the kernel library for a C source.

    The on-disk artifact is keyed by :func:`source_key`, so concurrent
    processes share builds and a modified source always recompiles.
    Returns ``None`` when the source is missing or the build fails;
    the (per-key) outcome is memoized for the life of the process.
    """
    flags = tuple(BASE_FLAGS) + tuple(extra_flags)
    key = source_key(src_path, flags)
    if key is None:
        return None
    name = os.path.splitext(os.path.basename(src_path))[0].lstrip("_")
    memo_key = (name, key)
    if memo_key in _loaded:
        return _loaded[memo_key]
    so_path = os.path.join(cache_dir(), f"{name}-{key}.so")
    lib: Optional[ctypes.CDLL] = None
    if os.path.exists(so_path):
        try:
            lib = ctypes.CDLL(so_path)
        except OSError:
            lib = None
    if lib is None:
        if _compile(src_path, so_path, flags):
            try:
                lib = ctypes.CDLL(so_path)
            except OSError:
                lib = None
    _loaded[memo_key] = lib
    return lib


def _passes(self_test: Callable[[ctypes.CDLL], bool], lib: ctypes.CDLL) -> bool:
    try:
        return bool(self_test(lib))
    except Exception:
        return False


def verified_library(
    stage: str,
    src_path: str,
    declare: Callable[[ctypes.CDLL], None],
    self_test: Callable[[ctypes.CDLL], bool],
    extra_flags: Sequence[str] = (),
) -> Optional[ctypes.CDLL]:
    """The stage's loaded *and verified* kernel library, or ``None``.

    The stage opt-out (``REPRO_NO_NATIVE`` / ``REPRO_NO_NATIVE_<STAGE>``)
    is checked on every call so it can be toggled within a process.  The
    first call that loads a library declares its signatures and runs
    ``self_test(lib)`` — a bitwise comparison against the stage's numpy
    reference; a mismatch (or a raising self-test) disables the kernel
    for the process and every caller takes its numpy path.
    """
    if not stage_enabled(stage):
        return None
    lib = load_library(src_path, extra_flags=extra_flags)
    if lib is None:
        return None
    gate = _gates.get(stage)
    if gate is None or gate.lib is not lib:
        declare(lib)
        gate = _gates[stage] = _Gate(lib, self_test, _passes(self_test, lib))
    return lib if gate.ok else None


def recheck_gates() -> Dict[str, bool]:
    """Re-run the self-test of every stage that has a verified library
    and write the fresh verdict back into its gate.

    Returns ``{stage: verdict}``; stages never loaded are omitted, and a
    stage that already failed stays failed without being re-tested.
    """
    results: Dict[str, bool] = {}
    # a self-test may load another stage's library, growing the registry
    for stage, gate in list(_gates.items()):
        gate.ok = gate.ok and _passes(gate.self_test, gate.lib)
        results[stage] = gate.ok
    return results
