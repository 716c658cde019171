"""Golden trajectories: the bits of three steps of the spine workloads.

Each row is the first 16 hex digits of the sha256 of
``pos.tobytes() + mom.tobytes()`` after 3 steps (1 step on the numpy
paths, which are slow) at input seed 1, built from
``benchmarks.spine.workloads`` exactly as the benchmark builds it.
The 2-rank rows gather the state on rank 0 in particle-id order; a
rank starts from its contiguous share of the inputs, as the benchmark's
``ParallelDriver`` slices them.  Any change that moves one bit of a
trajectory fails here: native kernels on and off (``no_native`` rows
set ``REPRO_NO_NATIVE=1`` and must give the native bits), and on the
thread and multiprocess backends.  CI runs the table a second time
with ``REPRO_NO_NATIVE=1`` for the whole process, which holds the
3-step rows on the numpy paths too.  ``clustered_2rank`` has no row:
its decomposition samples measured wall time, so it does not replay.

``uniform_mesh_serial`` and the gathered ``uniform_mesh_2rank`` share
one hash: no pair of that input lies inside the cutoff in these steps.
"""

from __future__ import annotations

import hashlib

import pytest

from benchmarks.spine.workloads import (
    WORKLOADS,
    make_config,
    make_inputs,
    make_stepper,
    step_edges,
)
from repro import SerialSimulation
from repro.mpi.backend import create_backend
from repro.sim.parallel import ParallelSimulation

SEED = 1

#: (workload, backend, no_native, steps) -> sha256 prefix of (pos, mom)
GOLDEN = {
    ("uniform_mesh_serial", "serial", False, 3): "70985b80c3a7f704",
    ("clustered_serial", "serial", False, 3): "cff843a3d4e9f02e",
    ("uniform_mesh_serial", "serial", True, 1): "7a34f7bc7f87111f",
    ("clustered_serial", "serial", True, 1): "3dbdf3f309393574",
    ("uniform_mesh_2rank", "thread", False, 3): "70985b80c3a7f704",
    ("uniform_mesh_2rank", "multiprocess", False, 3): "70985b80c3a7f704",
}


def _digest(pos, mom) -> str:
    return hashlib.sha256(pos.tobytes() + mom.tobytes()).hexdigest()[:16]


def _serial(w, inputs, steps) -> str:
    sim = SerialSimulation(
        make_config(w), inputs["pos"], inputs["mom"], inputs["mass"],
        stepper=make_stepper(w),
    )
    for k in range(steps):
        sim.step(*step_edges(w, k))
    return _digest(sim.pos, sim.mom)


def _rank_steps(comm, w, inputs, steps):
    n = len(inputs["pos"])
    lo, hi = n * comm.rank // comm.size, n * (comm.rank + 1) // comm.size
    sim = ParallelSimulation(
        comm, make_config(w),
        inputs["pos"][lo:hi], inputs["mom"][lo:hi], inputs["mass"][lo:hi],
        stepper=make_stepper(w),
    )
    for k in range(steps):
        sim.step(*step_edges(w, k))
    state = sim.gather_state()
    return None if state is None else _digest(state[0], state[1])


@pytest.mark.parametrize(
    "name,backend,no_native,steps",
    list(GOLDEN),
    ids=[f"{n}-{b}{'-no_native' if o else ''}" for n, b, o, _ in GOLDEN],
)
def test_trajectory_hash(name, backend, no_native, steps, monkeypatch):
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    w = WORKLOADS[name]
    inputs = make_inputs(w.kind, SEED)
    if backend == "serial":
        got = _serial(w, inputs, steps)
    else:
        runtime = create_backend(backend, w.ranks)
        got = runtime.run(_rank_steps, w, inputs, steps)[0]
    assert got == GOLDEN[name, backend, no_native, steps]
