"""Pluggable communicator backends: registry, capabilities, parity.

The thread and multiprocess backends share the collective algorithms of
``CollectiveComm``, so a fault-free SPMD program must produce
bit-identical results on either — these tests pin that contract for
every collective, for communicator splits, for sendrecv exchange
patterns and for a short end-to-end ``ParallelSimulation`` run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DomainConfig, PMConfig, SimulationConfig, TreePMConfig
from repro.mpi import (
    BackendCapabilities,
    CommBackend,
    available_backends,
    backend_capabilities,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.sim.parallel import RankReport, run_parallel_simulation

pytestmark = [pytest.mark.timeout(300)]

BACKENDS = ("thread", "multiprocess")

# large enough to cross the multiprocess backend's shared-memory
# threshold (64 KiB) so parity also covers the shm transport path
BIG_N = 16384


def _run(backend, n_ranks, fn):
    runtime = create_backend(backend, n_ranks, recv_timeout=30.0)
    return runtime.run(fn)


class TestRegistry:
    def test_builtin_backends_registered(self):
        avail = available_backends()
        assert avail["thread"] is True
        assert avail["multiprocess"] is True

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown communicator backend"):
            resolve_backend("smoke-signals")

    def test_create_backend_passes_instances_through(self):
        runtime = create_backend("thread", 2)
        assert create_backend(runtime, 99) is runtime

    def test_register_custom_backend(self):
        class Fake(CommBackend):
            name = "fake-test-backend"

            @classmethod
            def capabilities(cls):
                return BackendCapabilities()

            def __init__(self, n_ranks, **kwargs):
                self.n_ranks = n_ranks

            def run(self, fn, *args, **kwargs):
                return ["ran"] * self.n_ranks

        register_backend("fake-test-backend", lambda: Fake)
        runtime = create_backend("fake-test-backend", 3)
        assert runtime.run(None) == ["ran", "ran", "ran"]


class TestCapabilities:
    def test_thread_capabilities(self):
        caps = backend_capabilities("thread")
        assert caps.simulated_kill and caps.network_model and caps.elastic
        assert not caps.true_parallelism and not caps.real_process_kill

    def test_multiprocess_capabilities(self):
        caps = backend_capabilities("multiprocess")
        assert caps.true_parallelism and caps.real_process_kill
        assert caps.heartbeat_liveness and caps.elastic
        assert not caps.network_model


def _collective_program(comm):
    rng = np.random.default_rng(1000 + comm.rank)
    big = rng.standard_normal(BIG_N)  # > shm threshold
    out = {}
    out["bcast"] = comm.bcast(big if comm.rank == 0 else None, root=0)
    out["allreduce"] = comm.allreduce(big)
    out["reduce"] = comm.reduce(big, op="max", root=0)
    out["gather"] = comm.gather(comm.rank * np.ones(3), root=0)
    out["allgather"] = comm.allgather(float(comm.rank + 1))
    out["scatter"] = comm.scatter(
        [np.full(4, r) for r in range(comm.size)] if comm.rank == 0 else None,
        root=0,
    )
    out["alltoall"] = comm.alltoall(
        [rng.standard_normal(8) for _ in range(comm.size)], reliable=True
    )
    comm.barrier()
    return out


def _split_program(comm):
    color = comm.rank % 2
    sub = comm.split(color, key=comm.rank)
    val = sub.allreduce(float(comm.rank + 1))
    members = sub.allgather(comm.world_rank)
    return {"color": color, "sum": val, "members": members,
            "sub_rank": sub.rank, "sub_size": sub.size}


def _exchange_program(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    payload = np.full(BIG_N, float(comm.rank), dtype=np.float64)
    got = comm.sendrecv(payload, dest=right, source=left, sendtag=7, recvtag=7)
    return float(got[0]), float(got.sum())


def _assert_same(a, b, where=""):
    if isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=where)
    else:
        assert a == b, where


class TestCrossBackendParity:
    """Each program must return identical values on both backends."""

    def test_collectives_bit_identical(self):
        ref = _run("thread", 3, _collective_program)
        got = _run("multiprocess", 3, _collective_program)
        for r in range(3):
            for key in ref[r]:
                _assert_same(ref[r][key], got[r][key], f"rank {r} {key}")

    def test_split_parity(self):
        ref = _run("thread", 4, _split_program)
        got = _run("multiprocess", 4, _split_program)
        assert ref == got

    def test_exchange_parity(self):
        ref = _run("thread", 3, _exchange_program)
        got = _run("multiprocess", 3, _exchange_program)
        assert ref == got

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_rank_runs(self, backend):
        (result,) = _run(backend, 1, lambda comm: comm.allreduce(5.0))
        assert result == 5.0


def _sim_setup(n_ranks=3, n=96, seed=5):
    cfg = SimulationConfig(
        domain=DomainConfig(
            divisions=(n_ranks, 1, 1), sample_rate=0.3, cost_balance=False
        ),
        treepm=TreePMConfig(pm=PMConfig(mesh_size=16)),
    )
    rng = np.random.default_rng(seed)
    return cfg, rng.random((n, 3)), rng.normal(scale=0.01, size=(n, 3)), np.full(
        n, 1.0 / n
    )


class TestSimulationParity:
    def test_particle_state_bit_identical(self):
        cfg, pos, mom, mass = _sim_setup()
        p_ref, m_ref, w_ref, sims_ref, _ = run_parallel_simulation(
            cfg, pos, mom, mass, 0.0, 0.04, 4, backend="thread"
        )
        p, m, w, sims, _ = run_parallel_simulation(
            cfg, pos, mom, mass, 0.0, 0.04, 4, backend="multiprocess"
        )
        np.testing.assert_array_equal(p, p_ref)
        np.testing.assert_array_equal(m, m_ref)
        np.testing.assert_array_equal(w, w_ref)
        # out-of-process ranks report picklable summaries
        assert all(isinstance(s, RankReport) for s in sims)
        assert [s.steps_taken for s in sims] == [4, 4, 4]
        assert sum(s.n_local for s in sims) == len(pos)
        # same Table I timing surface as the live simulation objects
        assert set(sims[0].table1_rows()) == set(sims_ref[0].table1_rows())

    def test_checkpoint_parity(self, tmp_path):
        cfg, pos, mom, mass = _sim_setup()
        from repro.sim import checkpoint as _ckpt

        dirs = {}
        for backend in BACKENDS:
            d = tmp_path / backend
            run_parallel_simulation(
                cfg, pos, mom, mass, 0.0, 0.04, 4,
                checkpoint_every=2, checkpoint_dir=d, backend=backend,
            )
            dirs[backend] = _ckpt.latest_checkpoint(d)
        states = {
            b: _ckpt.load_distributed_checkpoint(d) for b, d in dirs.items()
        }
        ref, got = states["thread"], states["multiprocess"]
        for key in ("pos", "mom", "mass", "ids"):  # already id-ordered
            np.testing.assert_array_equal(ref[key], got[key], err_msg=key)
