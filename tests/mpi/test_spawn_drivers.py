"""Every public multiprocess driver runs under the ``spawn`` start
method.

A spawn worker receives the SPMD body and its arguments pickled, so the
body and each driver's per-rank function are module level (or a
``partial`` of one).  A rank started by spawn imports ``repro`` afresh
and must reach the state a forked rank reaches, bit for bit."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import (
    DomainConfig,
    PMConfig,
    SimulationConfig,
    TreePMConfig,
    resume_parallel_simulation,
    run_elastic_simulation,
    run_parallel_simulation,
)
from repro.mpi.mp_backend import MultiprocessBackend

pytestmark = [pytest.mark.timeout(300)]

N = 400
CONFIG = SimulationConfig(
    treepm=TreePMConfig(pm=PMConfig(mesh_size=16)),
    domain=DomainConfig(divisions=(2, 1, 1), cost_balance=False),
)


def _inputs():
    pos = np.random.default_rng(3).random((N, 3))
    return pos, np.zeros_like(pos), np.full(N, 1.0 / N)


def _digest(result) -> str:
    pos, mom = result[0], result[1]
    return hashlib.sha256(pos.tobytes() + mom.tobytes()).hexdigest()


def _backend(start_method: str, **options) -> MultiprocessBackend:
    return MultiprocessBackend(2, start_method=start_method, **options)


def test_parallel_run_under_spawn_matches_fork():
    runs = {
        how: run_parallel_simulation(
            CONFIG, *_inputs(), 0.0, 0.01, 3, backend=_backend(how)
        )
        for how in ("fork", "spawn")
    }
    assert _digest(runs["spawn"]) == _digest(runs["fork"])
    assert all(r.steps_taken == 3 for r in runs["spawn"][3])


def test_resume_under_spawn_matches_fork(tmp_path):
    run_parallel_simulation(
        CONFIG, *_inputs(), 0.0, 0.01, 4, backend=_backend("fork"),
        checkpoint_every=2, checkpoint_dir=tmp_path,
    )
    step_dir = tmp_path / "step_00002"
    digests = {
        how: _digest(
            resume_parallel_simulation(CONFIG, step_dir, backend=_backend(how))
        )
        for how in ("fork", "spawn")
    }
    assert digests["spawn"] == digests["fork"]


def test_elastic_run_under_spawn_matches_fork():
    digests = {
        how: _digest(
            run_elastic_simulation(
                CONFIG, *_inputs(), 0.0, 0.01, 3,
                backend=_backend(how, elastic=True, recv_timeout=10.0),
            )
        )
        for how in ("fork", "spawn")
    }
    assert digests["spawn"] == digests["fork"]
