"""The supervised multiprocess backend against *real* process faults.

Everything here crosses genuine OS process boundaries: ranks are
SIGKILLed mid-step (losing their in-flight queue buffers), heartbeats
stop because a process is frozen, the parent itself is killed.  The
assertions pin the tentpole contract: real deaths surface as the same
``PeerFailure``/``CommAborted`` errors the elastic recovery stack
already consumes, and no worker processes or SharedMemory segments
outlive the job, no matter which side dies first.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.config import DomainConfig, PMConfig, SimulationConfig, TreePMConfig
from repro.mpi.faults import FaultPlan, PeerFailure
from repro.mpi.mp_backend import MultiprocessBackend, _MPJob, _worker_main
from repro.sim.elastic import run_elastic_simulation

pytestmark = [pytest.mark.faults, pytest.mark.timeout(300)]

N = 96
N_STEPS = 4
T_END = 0.04


def _cfg(n_ranks=3):
    return SimulationConfig(
        domain=DomainConfig(
            divisions=(n_ranks, 1, 1), sample_rate=0.3, cost_balance=False
        ),
        treepm=TreePMConfig(pm=PMConfig(mesh_size=16)),
    )


def _system(seed=5):
    rng = np.random.default_rng(seed)
    return (
        rng.random((N, 3)),
        rng.normal(scale=0.01, size=(N, 3)),
        np.full(N, 1.0 / N),
    )


def _assert_conserved(pos0, mom0, mass0, p, m, w):
    assert len(p) == len(pos0)
    assert w.sum() == pytest.approx(mass0.sum(), rel=1e-13)
    p_before = (mass0[:, None] * mom0).sum(axis=0)
    p_after = (w[:, None] * m).sum(axis=0)
    np.testing.assert_allclose(p_after, p_before, atol=1e-6)


def _shm_segments():
    return glob.glob("/dev/shm/rpmp*")


class TestSharedMemoryTransport:
    def test_large_arrays_round_trip_and_no_leak(self):
        before = set(_shm_segments())

        def spmd(comm):
            rng = np.random.default_rng(comm.rank)
            big = rng.standard_normal(40000)  # ~312 KiB, well past 64 KiB
            total = comm.allreduce(big)
            lists = comm.alltoall(
                [rng.standard_normal(20000) for _ in range(comm.size)],
                reliable=True,
            )
            return float(total.sum()), [float(a.sum()) for a in lists]

        runtime = MultiprocessBackend(3, recv_timeout=30.0)
        results = runtime.run(spmd)
        assert len(results) == 3
        assert len({r[0] for r in results}) == 1  # allreduce agrees
        assert set(_shm_segments()) <= before

    def test_liveness_report_after_clean_run(self):
        runtime = MultiprocessBackend(2, recv_timeout=30.0)
        runtime.run(lambda comm: comm.allreduce(1.0))
        rows = runtime.last_liveness
        assert [r["rank"] for r in rows] == [0, 1]
        assert all(r["done"] and not r["dead"] for r in rows)
        assert runtime.dead_ranks == []


class TestRealKillElasticMatrix:
    """Acceptance matrix: SIGKILL a live worker early / mid / late in
    the schedule, with the buddy alive and with the buddy dead too."""

    # step 0 is excluded here: a SIGKILL can land before the victim's
    # buddy copy left its queue-feeder buffer, and data that was never
    # replicated is honestly unrecoverable in memory — that case is
    # covered below with the disk checkpoint configured.  From step 1
    # on the copy is provably delivered (it is FIFO-ordered behind the
    # step-0 exchange traffic the victim already completed).
    @pytest.mark.parametrize("kill_step", [1, 2, 3], ids=["early", "mid", "late"])
    def test_sigkill_buddy_recovery(self, kill_step):
        pos, mom, mass = _system()
        plan = FaultPlan().kill_rank(1, kill_step)  # default: real SIGKILL
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=3.0, buddy_every=1,
            backend="multiprocess",
        )
        assert runtime.dead_ranks == [1]
        live = [r for r in runners if r is not None]
        assert len(live) == 2
        assert all(r.steps_taken == N_STEPS for r in live)
        assert all(e.mode == "buddy" for r in live for e in r.events)
        assert all(len(r.events) >= 1 for r in live)
        _assert_conserved(pos, mom, mass, p, m, w)
        # liveness: the kill was discovered, not announced
        row = runtime.last_liveness[1]
        assert row["dead"] and row["exitcode"] == -signal.SIGKILL
        assert "SIGKILL" in row["reason"]

    def test_sigkill_at_step_zero_with_checkpoint(self, tmp_path):
        """A death during initialization (before any replication is
        guaranteed delivered) must still recover — via the buddy copy
        when it made it out, via the initial disk checkpoint when not."""
        pos, mom, mass = _system()
        plan = FaultPlan().kill_rank(1, 0)
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=3.0, buddy_every=1,
            checkpoint_dir=tmp_path, checkpoint_every=1,
            backend="multiprocess",
        )
        assert runtime.dead_ranks == [1]
        live = [r for r in runners if r is not None]
        assert all(r.steps_taken == N_STEPS for r in live)
        assert live[0].events[0].mode in ("buddy", "disk")
        _assert_conserved(pos, mom, mass, p, m, w)

    def test_sigkill_owner_and_buddy_disk_fallback(self, tmp_path):
        pos, mom, mass = _system()
        # rank 2 holds rank 1's buddy copy (ring successor).  Two real
        # SIGKILLs at the same step are sealed either in one consensus
        # round (the copy died with its holder: disk fallback) or in two
        # (each victim's buddy is still alive at its own round: two buddy
        # recoveries).  Both are correct; which one happens is timing the
        # protocol does not promise.  The forced same-round case is pinned
        # on the thread backend, where deaths are announced in lock-step
        # (tests/sim/test_elastic_recovery.py).
        plan = FaultPlan().kill_rank(1, 2).kill_rank(2, 2)
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(4), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=3.0, buddy_every=1,
            checkpoint_dir=tmp_path, checkpoint_every=1,
            backend="multiprocess",
        )
        assert sorted(runtime.dead_ranks) == [1, 2]
        live = [r for r in runners if r is not None]
        assert len(live) == 2
        assert all(r.steps_taken == N_STEPS for r in live)
        events = [e for r in live for e in r.events]
        assert events
        assert all(e.mode in ("buddy", "disk") for e in events)
        assert all(
            e.mode == "disk" for e in events if {1, 2} <= set(e.dead_ranks)
        )
        _assert_conserved(pos, mom, mass, p, m, w)

    def test_announced_death_when_real_false(self):
        pos, mom, mass = _system()
        plan = FaultPlan().kill_rank(1, 2, real=False)
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=3.0, buddy_every=1,
            backend="multiprocess",
        )
        assert runtime.dead_ranks == [1]
        row = runtime.last_liveness[1]
        assert row["dead"] and row["exitcode"] == 21  # DEATH_EXIT_CODE
        # the death was announced by the worker itself, not discovered
        assert "fault plan" in row["reason"]
        _assert_conserved(pos, mom, mass, p, m, w)


class TestNonElasticFailures:
    def test_sigkill_aborts_non_elastic_job(self):
        def spmd(comm):
            for step in range(50):
                comm.fault_point(step)
                comm.allreduce(float(step))
                time.sleep(0.01)
            return "done"

        runtime = MultiprocessBackend(
            2, fault_plan=FaultPlan().kill_rank(1, 3), recv_timeout=10.0
        )
        with pytest.raises(RuntimeError) as exc_info:
            runtime.run(spmd)
        assert "rank 1" in str(exc_info.value)
        assert "SIGKILL" in str(exc_info.value)
        assert not _shm_segments()

    def test_worker_exception_carries_rank_errors(self):
        def spmd(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            comm.barrier()
            return comm.rank

        runtime = MultiprocessBackend(2, recv_timeout=10.0)
        with pytest.raises(RuntimeError) as exc_info:
            runtime.run(spmd)
        errors = exc_info.value.rank_errors
        assert 1 in errors
        assert "boom on rank 1" in str(errors[1])


class TestDeathHoldingAQueueLock:
    """Every sender to a rank shares the pipe write lock of that rank's
    inbound queue; a worker SIGKILLed inside ``send_bytes`` dies holding
    it.  The supervisor must free it, or the rank is unreachable in
    every later epoch and each recovery attempt times out."""

    def test_survivors_still_reach_each_other(self):
        def spmd(comm):
            if comm.rank == 1:
                comm._job.data_queues[0]._wlock.acquire()
                os.kill(os.getpid(), signal.SIGKILL)
            try:
                comm.barrier()
            except PeerFailure:
                pass
            new_comm, dead, _ = comm.shrink(timeout=20.0)
            return dead, new_comm.allreduce(new_comm.rank + 1, op="sum")

        runtime = MultiprocessBackend(3, recv_timeout=3.0, elastic=True)
        results = runtime.run(spmd)
        assert results == [([1], 3), None, ([1], 3)]

    def test_only_the_dead_holder_is_released(self):
        ctx = mp.get_context("fork")
        job = _MPJob(
            ctx, 2, elastic=False, fault_plan=None, recv_timeout=None,
            retry_budget=0, shm_threshold=1 << 16, heartbeat_interval=0.05,
        )
        lock = job.data_queues[0]._wlock

        def die_holding():
            lock.acquire()
            os.kill(os.getpid(), signal.SIGKILL)

        victim = ctx.Process(target=die_holding)
        victim.start()
        victim.join(timeout=10.0)
        assert victim.exitcode == -signal.SIGKILL
        assert not lock.acquire(timeout=0.2)  # as every later sender would find it
        assert job.release_write_locks(os.getpid()) == 0
        assert job.release_write_locks(victim.pid) == 1
        job.data_queues[0].put("delivered")
        assert job.data_queues[0].get(timeout=5.0) == "delivered"
        assert job.release_write_locks(victim.pid) == 0


class TestHeartbeatLiveness:
    def test_frozen_process_is_detected_and_killed(self):
        """SIGSTOP freezes a worker (heartbeat thread included): the
        supervisor must declare it dead via heartbeat age and SIGKILL
        it, and the peer must see an ordinary PeerFailure."""

        def spmd(comm):
            try:
                for step in range(2000):
                    comm.barrier()
                    time.sleep(0.01)
            except PeerFailure as exc:
                return ("peer-dead", sorted(exc.dead_ranks))
            return ("finished", [])

        runtime = MultiprocessBackend(
            2, recv_timeout=60.0, elastic=True,
            suspect_timeout=0.3, heartbeat_timeout=1.5,
        )
        box = {}

        def _freeze():
            deadline = time.time() + 30.0
            while time.time() < deadline:
                sup = runtime._supervisor
                if sup is not None and sup.processes[1].pid is not None:
                    if sup.job.hb_board[1] > 0.0:  # beating: fully started
                        time.sleep(0.3)
                        box["pid"] = sup.processes[1].pid
                        os.kill(sup.processes[1].pid, signal.SIGSTOP)
                        return
                time.sleep(0.02)

        killer = threading.Thread(target=_freeze, daemon=True)
        killer.start()
        results = runtime.run(spmd)
        killer.join(timeout=5.0)
        assert "pid" in box, "never saw the worker start beating"
        assert results[1] is None  # dead rank
        assert results[0] == ("peer-dead", [1])
        row = runtime.last_liveness[1]
        assert row["dead"]
        assert "no heartbeat" in row["reason"]
        assert runtime.dead_ranks == [1]


_ORPHAN_DRIVER = textwrap.dedent(
    """
    import glob, os, sys, threading, time
    import numpy as np
    sys.path.insert(0, {src!r})
    from repro.mpi.mp_backend import MultiprocessBackend, _MPJob, _worker_main

    def spmd(comm):
        # each rank ends up holding the other's segment in its pool
        comm.sendrecv(np.ones(30000), 1 - comm.rank, 1 - comm.rank)
        time.sleep(60.0)
        return comm.rank

    runtime = MultiprocessBackend(2, recv_timeout=120.0)
    t = threading.Thread(target=runtime.run, args=(spmd,), daemon=True)
    t.start()
    while runtime._supervisor is None or any(
        p.pid is None for p in runtime._supervisor.processes
    ):
        time.sleep(0.01)
    sup = runtime._supervisor
    while len(glob.glob("/dev/shm/" + sup.job.shm_prefix + "*")) < 2:
        time.sleep(0.01)
    time.sleep(0.2)  # both created; let both be consumed and pooled
    print("READY", sup.job.shm_prefix, *[p.pid for p in sup.processes],
          flush=True)
    time.sleep(120.0)
    """
)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _wait_gone(pids, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if not any(_pid_alive(p) for p in pids):
            return True
        time.sleep(0.1)
    return False


class TestNoOrphans:
    """Satellite: whichever side dies, nothing must outlive the job."""

    def _launch_driver(self):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_DRIVER.format(src=os.path.abspath(src))],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline().split()
        assert line and line[0] == "READY", f"driver failed: {line}"
        prefix, pids = line[1], [int(p) for p in line[2:]]
        assert len(pids) == 2
        return proc, prefix, pids

    def test_parent_sigkill_reaps_workers(self):
        proc, prefix, pids = self._launch_driver()
        try:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)
            # the workers' parent-pid watch must notice and self-exit
            assert _wait_gone(pids), f"workers outlived SIGKILLed parent: {pids}"
            assert not glob.glob(f"/dev/shm/{prefix}*")
        finally:
            for p in pids:
                if _pid_alive(p):
                    os.kill(p, signal.SIGKILL)

    def test_parent_sigterm_cleans_up(self):
        proc, prefix, pids = self._launch_driver()
        try:
            os.kill(proc.pid, signal.SIGTERM)
            proc.wait(timeout=10.0)
            assert _wait_gone(pids), f"workers outlived SIGTERMed parent: {pids}"
            assert not glob.glob(f"/dev/shm/{prefix}*")
        finally:
            for p in pids:
                if _pid_alive(p):
                    os.kill(p, signal.SIGKILL)

    def test_worker_orphaned_before_first_heartbeat_exits(self):
        """A launcher that dies between ``Process.start()`` and the
        worker's first line leaves a worker whose ``os.getppid()`` is
        already the reaper; the watch must compare against the pid the
        launcher recorded in the job, not one the worker samples."""
        ctx = mp.get_context("fork")
        job = _MPJob(
            ctx, 1, elastic=False, fault_plan=None, recv_timeout=None,
            retry_budget=0, shm_threshold=1 << 16, heartbeat_interval=0.05,
        )
        gone = ctx.Process(target=os._exit, args=(0,))
        gone.start()
        gone.join(timeout=10.0)
        job.parent_pid = gone.pid  # the launcher, dead and reaped
        worker = ctx.Process(
            target=_worker_main,
            args=(job, 0, lambda comm: time.sleep(60.0), (), {}),
            daemon=True,
        )
        worker.start()
        try:
            worker.join(timeout=10.0)
            assert worker.exitcode == 3, "worker slept out its job"
        finally:
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=10.0)

    def test_normal_exit_leaves_nothing(self):
        runtime = MultiprocessBackend(2, recv_timeout=30.0)
        runtime.run(lambda comm: comm.allgather(np.ones(30000)) and None)
        sup = runtime._supervisor
        assert not any(p.is_alive() for p in sup.processes)
        assert not glob.glob(f"/dev/shm/{sup.job.shm_prefix}*")
