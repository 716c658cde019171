"""The process-wide malloc policy set by ``import repro``."""

from __future__ import annotations

import platform
import resource
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import PMConfig, SerialSimulation, SimulationConfig, TreePMConfig
from repro.mpi.backend import create_backend
from repro.utils import heap

glibc = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not hasattr(resource, "RUSAGE_THREAD"),
    reason="the heap policy is glibc's mallopt",
)


def _minor_faults() -> int:
    # of this thread: daemon threads left by other tests must not count
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


@glibc
def test_policy_in_force_after_import():
    assert heap.policy() == {
        "source": "mallopt",
        "mmap_threshold": heap.MMAP_THRESHOLD,
        "trim_threshold": heap.TRIM_THRESHOLD,
        "top_pad": heap.TOP_PAD,
        "arena_max": heap.ARENA_MAX,
    }


@glibc
def test_steady_state_steps_do_not_fault():
    """Every array of a step is served from pages a previous step
    touched: thousands of faults per step without the policy."""
    rng = np.random.default_rng(3)
    n = 4096
    pos = rng.random((n, 3))
    config = SimulationConfig(treepm=TreePMConfig(pm=PMConfig(mesh_size=64)))
    sim = SerialSimulation(config, pos, np.zeros_like(pos), np.full(n, 1.0 / n))
    dt = 1.0e-4
    faults = []
    for k in range(6):
        before = _minor_faults()
        sim.step(k * dt, (k + 1) * dt)
        faults.append(_minor_faults() - before)
    assert max(faults[3:]) < 64, faults


def _report_policy(comm):
    return heap.policy()


@glibc
@pytest.mark.timeout(60)
def test_multiprocess_workers_run_under_the_policy():
    # fork inherits it, spawn sets it again on import (CI runs this file
    # under REPRO_MP_START_METHOD=spawn as well)
    assert create_backend("multiprocess", 2).run(_report_policy) == [heap.policy()] * 2


def test_import_succeeds_without_mallopt():
    """A C library without ``mallopt``: importing the package is a
    silent no-op and the report says so."""
    code = (
        "import ctypes\n"
        "class NoMallopt:\n"
        "    def __init__(self, *a, **k): pass\n"
        "ctypes.CDLL = NoMallopt\n"
        "import repro\n"
        "from repro.utils import heap\n"
        "print(heap.policy())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": repro.__path__[0] + "/..", "PATH": ""},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "{'source': 'default'}"
