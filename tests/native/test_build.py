"""The shared compile-on-demand loader: hash-keyed caching and gating.

The regression being pinned: compiled ``.so`` artifacts are keyed by a
hash of the C source, of the local headers it includes and of the full
compiler command line, so editing a kernel source or header (or
changing flags) can never silently load a stale binary — the key
changes and a fresh build happens.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from repro.native import build as nb

HAVE_CC = shutil.which(os.environ.get("CC", "cc")) is not None

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")


def _probe_compiles() -> bool:
    try:
        subprocess.run(
            [os.environ.get("CC", "cc"), "--version"],
            check=True,
            capture_output=True,
            timeout=30,
        )
        return True
    except (OSError, subprocess.SubprocessError):
        return False


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    return cache


def _write_src(path, body: str) -> None:
    path.write_text(f"double probe_value(void) {{ return {body}; }}\n")


def _value(lib) -> float:
    lib.probe_value.restype = ctypes.c_double
    lib.probe_value.argtypes = []
    return float(lib.probe_value())


def test_source_key_tracks_source_and_flags(tmp_path):
    src = tmp_path / "k.c"
    _write_src(src, "1.0")
    k1 = nb.source_key(str(src), nb.BASE_FLAGS)
    _write_src(src, "2.0")
    k2 = nb.source_key(str(src), nb.BASE_FLAGS)
    k3 = nb.source_key(str(src), nb.BASE_FLAGS + ("-DX",))
    assert k1 and k2 and k3
    assert k1 != k2 and k2 != k3
    assert nb.source_key(str(tmp_path / "missing.c"), nb.BASE_FLAGS) is None


@needs_cc
def test_editing_source_recompiles(fresh_cache, tmp_path):
    if not _probe_compiles():
        pytest.skip("compiler present but not functional")
    src = tmp_path / "kernel.c"
    _write_src(src, "41.0 + 1.0")
    lib1 = nb.load_library(str(src))
    assert lib1 is not None
    assert _value(lib1) == 42.0
    artifacts = sorted(fresh_cache.glob("kernel-*.so"))
    assert len(artifacts) == 1

    # touching the source must build a fresh artifact, never reuse the
    # stale one (this was the PR's caching bug class)
    _write_src(src, "6.0 * 7.0 + 1.0")
    lib2 = nb.load_library(str(src))
    assert lib2 is not None
    assert _value(lib2) == 43.0
    artifacts = sorted(fresh_cache.glob("kernel-*.so"))
    assert len(artifacts) == 2

    # different flags, same source: a third distinct artifact
    lib3 = nb.load_library(str(src), extra_flags=("-DPROBE",))
    assert lib3 is not None
    assert len(sorted(fresh_cache.glob("kernel-*.so"))) == 3


@needs_cc
def test_editing_an_included_header_recompiles(fresh_cache, tmp_path):
    """The key covers every local ``#include "…"`` file, so editing a
    header alone can no more load a stale binary than editing the
    source."""
    if not _probe_compiles():
        pytest.skip("compiler present but not functional")
    header = tmp_path / "value.h"
    header.write_text("#define VALUE 42.0\n")
    src = tmp_path / "inc.c"
    src.write_text('#include "value.h"\ndouble probe_value(void) { return VALUE; }\n')
    key = nb.source_key(str(src), nb.BASE_FLAGS)
    assert _value(nb.load_library(str(src))) == 42.0
    header.write_text("#define VALUE 43.0\n")
    assert nb.source_key(str(src), nb.BASE_FLAGS) != key
    assert _value(nb.load_library(str(src))) == 43.0
    assert len(sorted(fresh_cache.glob("inc-*.so"))) == 2


def test_laned_kernels_are_keyed_by_the_lane_header(tmp_path):
    native = Path(nb.__file__).parent
    for name in ("_lanes.h", "_plansweep.c", "_traverse.c"):
        shutil.copy(native / name, tmp_path / name)
    keys = [nb.source_key(str(tmp_path / n), nb.BASE_FLAGS)
            for n in ("_plansweep.c", "_traverse.c")]
    with open(tmp_path / "_lanes.h", "a") as fh:
        fh.write("/* edited */\n")
    assert all(keys)
    for name, key in zip(("_plansweep.c", "_traverse.c"), keys):
        assert nb.source_key(str(tmp_path / name), nb.BASE_FLAGS) != key


def test_every_c_source_ships_as_package_data():
    """A non-editable install copies only declared package data: a kernel
    source or header left out would put its stage on the numpy fallback,
    silently."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    root = Path(__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["repro"]
    package = root / "src" / "repro"
    sources = [
        p.relative_to(package).as_posix()
        for p in package.rglob("*")
        if p.suffix in (".c", ".h")
    ]
    assert sources
    for rel in sources:
        assert any(fnmatch(rel, pattern) for pattern in declared), rel


@needs_cc
def test_existing_artifact_is_reused(fresh_cache, tmp_path):
    if not _probe_compiles():
        pytest.skip("compiler present but not functional")
    src = tmp_path / "reuse.c"
    _write_src(src, "5.0")
    lib1 = nb.load_library(str(src))
    assert lib1 is not None
    so = sorted(fresh_cache.glob("reuse-*.so"))[0]
    mtime = so.stat().st_mtime_ns
    lib2 = nb.load_library(str(src))
    assert lib2 is lib1  # per-process memo
    assert so.stat().st_mtime_ns == mtime  # no rebuild on disk


def test_missing_compiler_falls_back(fresh_cache, tmp_path, monkeypatch):
    monkeypatch.setenv("CC", "repro-definitely-missing-cc")
    src = tmp_path / "nocc.c"
    _write_src(src, "1.0")
    assert nb.load_library(str(src)) is None


def test_stage_enabled_env_gates(monkeypatch):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.delenv("REPRO_NO_NATIVE_MESH", raising=False)
    assert nb.stage_enabled("mesh")
    monkeypatch.setenv("REPRO_NO_NATIVE_MESH", "1")
    assert not nb.stage_enabled("mesh")
    assert nb.stage_enabled("tree")
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert not nb.stage_enabled("tree")


def test_native_threads_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    assert nb.native_threads() == 1
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
    assert nb.native_threads() == 4
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "0")
    assert nb.native_threads() == 1
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "bogus")
    assert nb.native_threads() == 1


class TestOpenMPVerdictCache:
    """The OpenMP probe compiles once per toolchain, not once per
    process: its verdict is a file in the kernel cache."""

    @pytest.fixture(autouse=True)
    def forget_verdict(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(nb, "_openmp", None)

    def _count_probes(self, monkeypatch):
        calls = []
        probe = nb._probe_openmp

        def counted(flags):
            calls.append(tuple(flags))
            return probe(flags)

        monkeypatch.setattr(nb, "_probe_openmp", counted)
        return calls

    def test_second_process_reads_the_verdict(self, fresh_cache, monkeypatch):
        calls = self._count_probes(monkeypatch)
        first = nb.openmp_available()
        assert len(calls) == 1
        (path,) = fresh_cache.glob("openmp-*.txt")
        assert path.read_text().strip() == ("yes" if first else "no")
        monkeypatch.setattr(nb, "_openmp", None)  # what a new process sees
        assert nb.openmp_available() is first
        assert len(calls) == 1

    def test_verdict_is_keyed_by_the_toolchain(self, fresh_cache, monkeypatch):
        calls = self._count_probes(monkeypatch)
        nb.openmp_available()
        monkeypatch.setattr(nb, "_openmp", None)
        monkeypatch.setenv("CC", "repro-definitely-missing-cc")
        assert nb.openmp_available() is False
        assert len(calls) == 2
        assert len(list(fresh_cache.glob("openmp-*.txt"))) == 2

    @pytest.mark.parametrize("rot", [b"", b"maybe\n", b"\xff\xfe\x00"])
    def test_corrupt_verdict_probes_again(self, fresh_cache, monkeypatch, rot):
        calls = self._count_probes(monkeypatch)
        first = nb.openmp_available()
        (path,) = fresh_cache.glob("openmp-*.txt")
        path.write_bytes(rot)
        monkeypatch.setattr(nb, "_openmp", None)
        assert nb.openmp_available() is first
        assert len(calls) == 2
        assert path.read_text().strip() == ("yes" if first else "no")


class TestArrayArguments:
    """A kernel's array argument takes a C-contiguous numpy array of its
    one dtype, or ``None`` (NULL); anything else is refused at the call,
    never passed on as a pointer to memory of another layout."""

    arg = nb._Array(np.float64)

    def test_accepts_contiguous_arrays_and_none(self):
        a = np.arange(6.0)
        assert self.arg.from_param(a).value == a.ctypes.data
        assert self.arg.from_param(a.reshape(2, 3)).value == a.ctypes.data
        assert self.arg.from_param(None) is None

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(np.arange(6, dtype=np.float32), id="dtype"),
            pytest.param(np.arange(12.0)[::2], id="strided"),
            pytest.param(np.arange(6.0).reshape(2, 3).T, id="fortran"),
            pytest.param([0.0, 1.0], id="list"),
            pytest.param(3.0, id="scalar"),
        ],
    )
    def test_refuses_everything_else(self, bad):
        with pytest.raises(TypeError):
            self.arg.from_param(bad)

    def test_refusal_reaches_the_caller(self):
        """Through a declared symbol the refusal is ctypes' ArgumentError."""
        lib = nb.library("update")
        if lib is None:
            pytest.skip("native update stage unavailable")
        mom = np.zeros((4, 3))
        with pytest.raises(ctypes.ArgumentError):
            lib.kick(4, mom, np.zeros((4, 3), dtype=np.float32), 0.1)
        with pytest.raises(ctypes.ArgumentError):
            lib.kick(4, mom, np.zeros((3, 4)).T, 0.1)
