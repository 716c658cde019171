"""Shared compile-on-demand loader and gate for the native kernels.

One function, :func:`load_library`, turns a C source file into a loaded
:class:`ctypes.CDLL`.  Compiled artifacts are cached on disk keyed by a
hash of the source bytes (and of every local header it includes) plus
the full compiler command line, so

* a source is compiled at most once per toolchain/flag combination
  across processes, and
* editing a kernel source or a header it includes (or changing flags)
  can never load a stale binary — the key changes, so a fresh ``.so``
  is built.

The loader degrades gracefully: no compiler, a failed build, or an
unloadable artifact all yield ``None``, and callers fall back to their
numpy reference pipelines.

:data:`STAGES` declares every native stage once: its C source in this
directory, the ``(restype, argtypes)`` of each symbol its bindings call,
its extra compile flags and its bitwise self-test.  :func:`library` is
the one gate behind every stage module's ``get_lib``: stage opt-out on
every call; load, declare and self-test once per process; afterwards a
dictionary lookup.  :func:`recheck_gates` re-runs the self-tests mid-run.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BASE_FLAGS",
    "STAGES",
    "Stage",
    "c_arrays",
    "cache_dir",
    "library",
    "load_library",
    "native_threads",
    "openmp_available",
    "recheck_gates",
    "source_key",
    "stage_enabled",
]

#: Baseline flags shared by every kernel: no FMA contraction and no
#: reassociation, so each C expression performs exactly the individually
#: rounded IEEE double operations of its numpy counterpart.
BASE_FLAGS: Tuple[str, ...] = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Directory of the stage sources (and the headers they include).
_HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-process memo: cache-key -> CDLL or None (failed).
_loaded: dict = {}

_openmp: Optional[bool] = None


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


_LOCAL_INCLUDE = re.compile(rb'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.MULTILINE)


def source_key(src_path: str, flags: Sequence[str]) -> Optional[str]:
    """Cache key: hash of the source bytes, of every local file it
    ``#include "…"``-s (resolved against the including file's directory,
    transitively; names that are no file there are left to the compiler's
    search path) and of the compile command.

    Returns ``None`` when the source cannot be read (missing file).
    """
    paths = [os.path.abspath(src_path)]
    blobs = []
    try:
        for path in paths:  # grows as includes are found
            with open(path, "rb") as fh:
                blobs.append(fh.read())
            for name in _LOCAL_INCLUDE.findall(blobs[-1]):
                inc = os.path.normpath(
                    os.path.join(os.path.dirname(path), os.fsdecode(name))
                )
                if inc not in paths and os.path.isfile(inc):
                    paths.append(inc)
    except OSError:
        return None
    return _key(b"\0".join(blobs), flags)


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


# -- the stage table ------------------------------------------------------------


def c_arrays(dtype, *arrays) -> bool:
    """Whether every one of ``arrays`` is a C-contiguous numpy array of
    ``dtype``: what an array argument in :data:`STAGES` accepts, and so
    the contract check a wrapper makes before it calls its kernel."""
    return all(
        isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous
        for a in arrays
    )


class _Array:
    """ctypes argtype of a C-contiguous numpy array of one dtype.

    Anything else is refused at the call (``ctypes.ArgumentError``), never
    passed on as a pointer to memory of another layout; ``None`` is NULL.
    """

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype)

    def from_param(self, arr):
        if arr is None:
            return None
        if not c_arrays(self.dtype, arr):
            raise TypeError(f"expected a C-contiguous {self.dtype} array")
        return ctypes.c_void_p(arr.ctypes.data)


_I64, _F64, _INT = ctypes.c_int64, ctypes.c_double, ctypes.c_int
_I64A, _U64A, _F64A, _I32A, _U8A = map(
    _Array, (np.int64, np.uint64, np.float64, np.int32, np.uint8)
)


@dataclass(frozen=True)
class Stage:
    """One native stage, everything its gate needs.

    ``source`` is a C file in this directory; ``symbols`` maps each
    function the bindings call to its ``(restype, argtypes)``;
    ``self_test`` names (``"module:function"``) the bitwise comparison
    against the stage's numpy reference, run once on the loaded library;
    ``flags`` are extra compile flags, of which ``-fopenmp`` is kept only
    when :func:`openmp_available`.  The stage's opt-out is
    ``REPRO_NO_NATIVE_<NAME>``, its name being its key in :data:`STAGES`.
    """

    source: str
    symbols: Mapping[str, Tuple[Any, Sequence[Any]]]
    self_test: str
    flags: Tuple[str, ...] = ()


#: a plan's groups and CSR lists: n_groups, group_lo, group_hi,
#: part_ptr, part_idx, node_ptr, node_idx
_PLAN = [_I64, _I64A, _I64A, _I64A, _I64A, _I64A, _I64A]
#: a mesh stencil: n, s, ix, iy, iz, wx, wy, wz
_STENCIL = [_I64, _I64, _I64A, _I64A, _I64A, _F64A, _F64A, _F64A]
#: PLAN_PARAMS of _plansweep.c (plan_sweep_threads adds scratch_stride
#: and nthreads)
_SWEEP_ARGS = [
    *_PLAN,
    _F64A, _F64A, _F64A, _F64A,  # pos, mass, node_com, node_mass
    _U8A, _U8A,  # per-group wrap, per-row target mask (None: every row)
    _F64, _F64, _INT, _F64, _F64, _F64,  # box, eps2, use_split, rcut, rc2, G
    _F64A, _F64A,  # scratch, out
]
#: TRAVERSE_PARAMS of _traverse.c
_WALK_ARGS = [
    _I64A, _I64, _F64A, _I64,  # groups, node SoA table and its row stride
    _F64A, _I64A, _I64A, _U8A, _I64A,  # node center, lo, hi, is_leaf, children
    _F64, _INT, _F64, _INT, _F64,  # theta, periodic, box, use_rcut, rcut
    _I64, _I64,  # part_cap, node_cap
    _I64A, _I64A, _F64A,  # part_ptr, part_idx, part_shift (None: no shifts)
    _I64A, _I64A, _F64A,  # node_ptr, node_idx, node_shift
    _I32A, _I64A,  # queue, counts
]
#: nx, ny, nz, x0, y_idx, z_idx, slab ny, slab nz, slab, block
_BLOCK_ARGS = [_I64, _I64, _I64, _I64, _I64A, _I64A, _I64, _I64, _F64A, _F64A]

#: Every native stage, keyed by the name its opt-out and gate use.
STAGES: Dict[str, Stage] = {
    "tree": Stage("_treebuild.c", {
        "morton_keys": (_I64, [_F64A, _I64, _F64A, _F64, _I64, _U64A]),
        "radix_argsort": (None, [_U64A, _I64, _U64A, _I64A, _U64A, _I64A]),
        "octree_build": (_I64, [
            _U64A, _I64, _I64, _I64, _F64A, _F64, _I64,
            _F64A, _F64A, _I64A, _I64A, _I64A, _U8A, _I64A,
        ]),
        "group_nodes": (_I64, [
            _I64A, _I64A, _I64A, _U8A, _I64, _I64, _I64, _I64A, _I64A,
        ]),
        "node_bounds": (None, [
            _F64A, _I64, _I64A, _I64A, _U8A, _I64A, _F64A, _F64A,
        ]),
    }, "repro.native.treebuild:_self_test"),
    "traverse": Stage("_traverse.c", {
        "plan_traverse_lanes": (_INT, []),
        "plan_traverse": (_I64, _WALK_ARGS),
        "plan_traverse_w1": (_I64, _WALK_ARGS),
    }, "repro.native.traverse:_self_test"),
    "certify": Stage("_certify.c", {
        "certify_no_wrap": (None, [*_PLAN, _F64A, _F64A, _F64, _U8A]),
    }, "repro.native.certify:_self_test"),
    "mesh": Stage("_meshops.c", {
        "mesh_scatter": (None, [*_STENCIL, _F64A, _I64, _I64, _F64A]),
        "mesh_gather": (None, [*_STENCIL, _I64, _I64, _I64, _F64A, _F64A]),
        "mesh_gather_gradient": (None, [
            *_STENCIL, _I64, _I64, _I64, _I64, _F64, _F64A, _F64A,
        ]),
        "mesh_block_add": (None, _BLOCK_ARGS),
        "mesh_block_take": (None, _BLOCK_ARGS),
    }, "repro.native.meshops:_self_test"),
    "update": Stage("_update.c", {
        "kick": (None, [_I64, _F64A, _F64A, _F64]),
        "kick_drift_wrap": (None, [_I64, _F64A, _F64A, _F64A, _F64, _F64, _F64]),
        "drift_wrap": (None, [_I64, _F64A, _F64A, _F64, _F64]),
    }, "repro.native.update:_self_test"),
    "pp": Stage("_plansweep.c", {
        "plan_sweep_lanes": (_INT, []),
        "plan_sweep": (None, _SWEEP_ARGS),
        "plan_sweep_w1": (None, _SWEEP_ARGS),
        "plan_sweep_threads": (None, _SWEEP_ARGS + [_I64, _INT]),
    }, "repro.pp.native:_self_test", flags=("-fopenmp",)),
    "frame": Stage("_frame.c", {
        "crc32_copy": (ctypes.c_uint32, [_U8A, _U8A, _I64, ctypes.c_uint32]),
    }, "repro.native.frame:_self_test"),
}


# -- the gate -------------------------------------------------------------------


@dataclass
class _Gate:
    """One stage's library (``None``: it did not build or load) and the
    verdict of its self-test."""

    lib: Optional[ctypes.CDLL]
    self_test: Callable[[ctypes.CDLL], bool]
    ok: bool


#: stage -> gate, for every stage opened in this process
_gates: Dict[str, _Gate] = {}


def _passes(self_test: Callable[[ctypes.CDLL], bool], lib: ctypes.CDLL) -> bool:
    try:
        return bool(self_test(lib))
    except Exception:
        return False


def _open(name: str) -> _Gate:
    """Load the stage's library, declare its symbols and self-test it."""
    stage = STAGES[name]
    module, _, func = stage.self_test.partition(":")
    gate = _Gate(None, getattr(importlib.import_module(module), func), False)
    flags = [f for f in stage.flags if f != "-fopenmp" or openmp_available()]
    gate.lib = load_library(os.path.join(_HERE, stage.source), flags)
    if gate.lib is None:
        return gate
    for symbol, (restype, argtypes) in stage.symbols.items():
        try:
            fn = getattr(gate.lib, symbol)
        except AttributeError:
            return gate  # not the library its bindings were written for
        fn.restype, fn.argtypes = restype, list(argtypes)
    gate.ok = _passes(gate.self_test, gate.lib)
    return gate


def library(name: str) -> Optional[ctypes.CDLL]:
    """The stage's loaded *and verified* kernel library, or ``None``.

    The stage opt-out (``REPRO_NO_NATIVE`` / ``REPRO_NO_NATIVE_<NAME>``)
    is checked on every call so it can be toggled within a process.  The
    first call past it opens the stage — load, declare every symbol of
    its :data:`STAGES` entry, run the self-test — and memoizes the
    verdict; a missing symbol, a mismatch or a raising self-test disables
    the kernel for the process and every caller takes its numpy path.
    Later calls read no file.
    """
    if not stage_enabled(name):
        return None
    gate = _gates.get(name)
    if gate is None:
        gate = _gates[name] = _open(name)
    return gate.lib if gate.ok else None


def recheck_gates() -> Dict[str, bool]:
    """Re-run the self-test of every stage whose library is loaded and
    write the fresh verdict back into its gate.

    Returns ``{stage: verdict}``; stages never loaded are omitted, and a
    stage that already failed stays failed without being re-tested.
    """
    results: Dict[str, bool] = {}
    # a self-test may open another stage, growing the registry
    for name, gate in list(_gates.items()):
        if gate.lib is not None:
            gate.ok = gate.ok and _passes(gate.self_test, gate.lib)
            results[name] = gate.ok
    return results
