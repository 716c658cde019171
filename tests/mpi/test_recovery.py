"""Shrink-and-continue recovery: consensus, epochs, buddies, reliability.

All multi-rank tests run on the elastic runtime; the conftest SIGALRM
alarm is the backstop against hangs."""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

import repro.mpi.comm as comm_mod
from repro.config import SimulationConfig
from repro.decomp.multisection import divisions_for_ranks
from repro.mpi.faults import (
    CommTimeout,
    FaultPlan,
    InjectedFault,
    MessageDropped,
    PeerFailure,
)
from repro.mpi.recovery import BuddyStore, RecoveryError, shrink_after_failure
from repro.mpi.runtime import MPIRuntime
from repro.sim.checkpoint import CheckpointError, read_checkpoint, verify_rank_arrays

pytestmark = [pytest.mark.faults, pytest.mark.timeout(90)]


def elastic_run(n, fn, **kwargs):
    kwargs.setdefault("recv_timeout", 3.0)
    rt = MPIRuntime(n, elastic=True, **kwargs)
    return rt.run(fn), rt


class TestSurvivorConsensus:
    def test_shrink_after_one_death(self):
        def fn(comm):
            if comm.rank == 2:
                raise InjectedFault("down")
            try:
                comm.barrier()
            except (PeerFailure, CommTimeout):
                pass
            new_comm, dead, epoch = shrink_after_failure(comm, timeout=10.0)
            # the shrunk communicator must be fully operational
            total = new_comm.allreduce(new_comm.world_rank)
            return {
                "dead": dead,
                "epoch": epoch,
                "size": new_comm.size,
                "rank": new_comm.rank,
                "world": new_comm.world_rank,
                "total": total,
            }

        results, rt = elastic_run(4, fn)
        assert rt.dead_ranks == [2]
        assert results[2] is None
        live = [r for r in results if r is not None]
        assert all(r["dead"] == [2] for r in live)
        assert all(r["epoch"] == 1 for r in live)
        assert all(r["size"] == 3 for r in live)
        # survivors renumbered 0..2 in world-rank order
        assert sorted(r["rank"] for r in live) == [0, 1, 2]
        assert [r["world"] for r in live] == [0, 1, 3]
        assert all(r["total"] == 0 + 1 + 3 for r in live)

    def test_empty_dead_set_round_still_bumps_epoch(self):
        def fn(comm):
            assert comm.epoch == 0
            new_comm, dead, epoch = shrink_after_failure(comm, timeout=10.0)
            assert new_comm.size == comm.size
            return dead, epoch, new_comm.epoch

        results, _ = elastic_run(3, fn)
        assert all(r == ([], 1, 1) for r in results)

    def test_consecutive_rounds(self):
        def fn(comm):
            c1, _, e1 = shrink_after_failure(comm, timeout=10.0)
            c2, _, e2 = shrink_after_failure(c1, timeout=10.0)
            return e1, e2, c2.allreduce(1)

        results, _ = elastic_run(2, fn)
        assert all(r == (1, 2, 2) for r in results)

    def test_requires_elastic_runtime(self):
        def fn(comm):
            with pytest.raises(RuntimeError, match="elastic"):
                shrink_after_failure(comm)
            return True

        assert MPIRuntime(1).run(fn) == [True]


class TestPeerFailureSurfacing:
    def test_recv_from_dead_rank_raises_peer_failure(self):
        def fn(comm):
            if comm.rank == 1:
                raise InjectedFault("down")
            with pytest.raises(PeerFailure) as exc_info:
                comm.recv(1, timeout=5.0)
            assert 1 in exc_info.value.dead_ranks
            return "survived"

        results, _ = elastic_run(2, fn)
        assert results[0] == "survived"

    def test_barrier_with_dead_rank_raises_peer_failure(self):
        def fn(comm):
            if comm.rank == 1:
                raise InjectedFault("down")
            with pytest.raises(PeerFailure):
                comm.barrier()
            return "survived"

        results, _ = elastic_run(3, fn)
        assert results[0] == results[2] == "survived"

    def test_death_wakes_a_blocked_recv_at_once(self, monkeypatch):
        # with a 10 s poll, only the death's wake token can end the wait
        # in time
        monkeypatch.setattr(comm_mod, "_POLL_SECONDS", 10.0)
        died = []

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.2)  # let rank 0 block in its receive
                died.append(time.monotonic())
                raise InjectedFault("down")
            with pytest.raises(PeerFailure):
                comm.recv(1, timeout=30.0)
            return time.monotonic()

        results, _ = elastic_run(2, fn, recv_timeout=30.0)
        assert results[0] - died[0] < 2.0

    def test_peer_that_gives_up_wakes_its_receivers(self, monkeypatch):
        # rank 0 waits on live rank 1, which waits on rank 2; rank 2
        # dies, rank 1 turns to a consensus round, and its vote must end
        # rank 0's wait at once
        monkeypatch.setattr(comm_mod, "_POLL_SECONDS", 10.0)
        died = []

        def fn(comm):
            if comm.rank == 2:
                time.sleep(0.2)
                died.append(time.monotonic())
                raise InjectedFault("down")
            with pytest.raises(PeerFailure):
                comm.recv(comm.rank + 1, timeout=30.0)
            failed = time.monotonic()
            shrink_after_failure(comm, timeout=30.0)
            return failed

        results, _ = elastic_run(3, fn, recv_timeout=30.0)
        assert max(results[:2]) - died[0] < 2.0

    def test_late_live_source_is_not_blamed_for_another_death(self):
        # rank 0 receives from rank 2, which is late but alive, while
        # rank 1 dies: rank 0 must get rank 2's message, then join the
        # recovery
        def fn(comm):
            got = None
            if comm.rank == 1:
                raise InjectedFault("down")
            if comm.rank == 2:
                time.sleep(0.3)  # rank 0 polls its receive meanwhile
                comm.send("late", 0, tag=7)
            else:
                got = comm.recv(2, tag=7, timeout=10.0)
            _, dead, _ = shrink_after_failure(comm, timeout=10.0)
            return got, dead

        results, rt = elastic_run(3, fn)
        assert rt.dead_ranks == [1]
        assert results[0] == ("late", [1])
        assert results[2] == (None, [1])

    def test_stale_wake_token_is_dropped(self):
        # a token left behind by a wake the receive did not need is
        # neither delivered nor a tag mismatch
        def fn(comm):
            if comm.rank == 1:
                comm.send("a", 0, tag=3)
                comm.send("b", 0, tag=4)
                return None
            q = comm._state.queues[0][1]
            q.put(comm_mod._WAKE)
            first = comm.recv(1, tag=3)
            q.put(comm_mod._WAKE)
            req = comm.irecv(1, tag=4)
            done, second = req.test()
            while not done:
                done, second = req.test()
            return first, second

        results, _ = elastic_run(2, fn)
        assert results[0] == ("a", "b")

    def test_delivered_message_wins_over_death_mark(self):
        # a message already in the queue must be received even if the
        # sender has since died — buddy copies depend on this
        def fn(comm):
            if comm.rank == 0:
                comm.send({"x": 41}, 1, tag=9)
                raise InjectedFault("down after send")
            got = comm.recv(0, tag=9, timeout=5.0)
            return got["x"]

        results, _ = elastic_run(2, fn)
        assert results[1] == 41

    def test_released_barrier_survives_a_later_death(self):
        # every rank arrived, so the barrier held; a rank that leaves it
        # first and dies at once must not turn the others' still-waking
        # wait into a PeerFailure (the death is the next operation's)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def fn(comm):
                for _ in range(20):
                    comm.barrier()
                if comm.rank == 0:
                    raise InjectedFault("down right after the barrier")
                return "held"

            results, rt = elastic_run(8, fn)
        finally:
            sys.setswitchinterval(interval)
        assert rt.dead_ranks == [0]
        assert results[1:] == ["held"] * 7

    def test_all_ranks_dead_is_an_error(self):
        def fn(comm):
            raise InjectedFault("everyone down")

        rt = MPIRuntime(2, elastic=True, recv_timeout=2.0)
        with pytest.raises(RuntimeError, match="lost all 2 rank"):
            rt.run(fn)


class TestEpochs:
    def test_stale_epoch_message_is_discarded(self):
        def fn(comm):
            q = comm._state.queues[0][0]
            q.put((-1, 4, "stale"))  # pre-recovery straggler
            comm.send("fresh", 0, tag=4)
            got = comm.recv(0, tag=4, timeout=5.0)
            return got, comm.stale_rejected

        (result,), _ = elastic_run(1, fn)
        assert result == ("fresh", 1)

    def test_shrunk_comm_carries_new_epoch_on_messages(self):
        def fn(comm):
            new_comm, _, epoch = shrink_after_failure(comm, timeout=10.0)
            new_comm.send(comm.rank, (new_comm.rank + 1) % 2, tag=1)
            got = new_comm.recv((new_comm.rank + 1) % 2, tag=1, timeout=5.0)
            return epoch, got

        results, _ = elastic_run(2, fn)
        assert results[0] == (1, 1) and results[1] == (1, 0)


class TestBuddyStore:
    """The buddy ring holds checkpoint rank files; recovery reads them
    through the one checkpoint reader."""

    CONFIG = SimulationConfig()

    @staticmethod
    def _payload(rank, n=5):
        rng = np.random.default_rng(rank)
        arrays = {
            "pos": rng.random((n, 3)),
            "mom": rng.normal(size=(n, 3)),
            "mass": np.full(n, 0.125),
            "ids": np.arange(rank * n, (rank + 1) * n),
        }
        return arrays, {"rank": rank}

    def test_ring_refresh(self):
        def fn(comm):
            store = BuddyStore()
            store.refresh(comm, self._payload(comm.rank), step=3)
            assert list(store.copies["self_copy"]) == [3]
            own = store.newest("self_copy")
            assert own["owner"] == comm.world_rank
            verify_rank_arrays(own["arrays"], own["checksums"], "self")
            peer = store.newest("peer_copy")
            assert peer["owner"] == (comm.rank - 1) % comm.size
            verify_rank_arrays(peer["arrays"], peer["checksums"], "peer")
            assert peer["received"] == peer["checksums"]
            assert peer["meta"] == {"rank": peer["owner"]}
            np.testing.assert_array_equal(
                peer["arrays"]["ids"], self._payload(peer["owner"])[0]["ids"]
            )
            # the manifest entry write_checkpoint would record
            assert own["entry"]["rank"] == comm.rank
            assert own["entry"]["n_particles"] == 5
            assert own["entry"]["mass"] == pytest.approx(0.625)
            return True

        results, _ = elastic_run(3, fn)
        assert all(results)

    def test_single_rank_has_no_peer(self):
        def fn(comm):
            store = BuddyStore()
            store.refresh(comm, self._payload(0), step=0)
            return store.newest("peer_copy") is None and list(
                store.copies["self_copy"]
            ) == [0]

        results, _ = elastic_run(1, fn)
        assert results == [True]

    def test_refresh_requires_particle_keys(self):
        def fn(comm):
            store = BuddyStore()
            with pytest.raises(ValueError, match="mom"):
                store.refresh(comm, ({"pos": np.zeros((1, 3))}, {}), step=0)
            return True

        results, _ = elastic_run(1, fn)
        assert results == [True]

    def test_checksum_detects_tampering(self):
        def fn(comm):
            store = BuddyStore()
            store.refresh(comm, self._payload(comm.rank), step=1)
            peer = store.newest("peer_copy")
            peer["arrays"]["mass"][0] += 1.0
            with pytest.raises(CheckpointError, match="mass"):
                verify_rank_arrays(peer["arrays"], peer["checksums"], "peer")
            return True

        results, _ = elastic_run(2, fn)
        assert results == [True, True]

    def test_plan_and_recover_covers_dead_rank(self):
        def fn(comm):
            store = BuddyStore()
            store.refresh(comm, self._payload(comm.rank), step=2)
            if comm.rank == 1:
                raise InjectedFault("down")
            try:
                comm.barrier()
            except (PeerFailure, CommTimeout):
                pass
            new_comm, dead, _ = shrink_after_failure(comm, timeout=10.0)
            source, rejected = store.restore_source(new_comm, self.CONFIG)
            assert source.step == 2 and not source.from_disk and not rejected
            # rank 2 holds rank 1's file (ring successor); every file
            # is resolved from memory, owner copies first
            assert source.holders == [
                ("self_copy", 0), ("peer_copy", 1), ("self_copy", 1)
            ]
            arrays, meta, manifest = read_checkpoint(new_comm, source, self.CONFIG)
            assert meta == {}  # merged and re-scattered over 2 ranks
            assert manifest["total_particles"] == 15
            ids = np.concatenate(new_comm.allgather(arrays["ids"]))
            # nothing lost, nothing duplicated
            np.testing.assert_array_equal(np.sort(ids), np.arange(15))
            return True

        results, rt = elastic_run(3, fn)
        assert rt.dead_ranks == [1]
        assert results[0] and results[2]

    def test_plan_infeasible_when_buddy_also_dead(self):
        def fn(comm):
            store = BuddyStore()
            try:
                # a survivor's refresh may itself trip over a concurrent
                # death (its feeder's message racing the death mark) —
                # the elastic loop treats that exactly like a failed
                # barrier, and so does this test
                store.refresh(comm, self._payload(comm.rank), step=1)
                if comm.rank in (1, 2):  # rank 2 is rank 1's buddy
                    raise InjectedFault("down")
                comm.barrier()
            except (PeerFailure, CommTimeout):
                pass
            new_comm, dead, _ = shrink_after_failure(comm, timeout=10.0)
            assert sorted(dead) == [1, 2]
            with pytest.raises(RecoveryError, match="both lost"):
                store.restore_source(new_comm, self.CONFIG)
            return True

        results, _ = elastic_run(4, fn)
        assert results[0] and results[3]

    def test_restore_without_snapshot_raises(self):
        def fn(comm):
            with pytest.raises(RecoveryError, match="no epoch"):
                BuddyStore().restore_source(comm, self.CONFIG)
            return True

        results, _ = elastic_run(1, fn)
        assert results == [True]


class TestReliableTransport:
    def test_reliable_send_absorbs_drop(self):
        plan = FaultPlan().drop_messages(src=0, dst=1, nth=0, count=1)

        def fn(comm):
            if comm.rank == 0:
                comm.send("payload", 1, tag=2, reliable=True)
                return "sent"
            return comm.recv(0, tag=2, timeout=5.0)

        rt = MPIRuntime(2, fault_plan=plan, recv_timeout=5.0)
        assert rt.run(fn) == ["sent", "payload"]

    def test_unreliable_send_loses_the_message(self):
        plan = FaultPlan().drop_messages(src=0, dst=1, nth=0, count=1)

        def fn(comm):
            if comm.rank == 0:
                comm.send("payload", 1, tag=2)
                return "sent"
            with pytest.raises(CommTimeout):
                comm.recv(0, tag=2, timeout=0.3)
            return "timed out"

        rt = MPIRuntime(2, fault_plan=plan)
        assert rt.run(fn) == ["sent", "timed out"]

    def test_exhausted_budget_raises_message_dropped(self):
        # every attempt dropped and a zero retry budget: the reliable
        # send must fail fast with the structured MessageDropped
        plan = FaultPlan().drop_messages(src=0, dst=1, nth=0, count=50)

        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(MessageDropped) as exc_info:
                    comm.send("payload", 1, tag=2, reliable=True)
                assert exc_info.value.rank == 0
                assert exc_info.value.tag == 2
            return True

        rt = MPIRuntime(2, fault_plan=plan, retry_budget=0)
        assert rt.run(fn) == [True, True]

    def test_reliable_alltoall_under_drops(self):
        plan = FaultPlan().drop_messages(nth=0, count=3)

        def fn(comm):
            comm.fault_point(0)
            out = comm.alltoall(
                [f"{comm.rank}->{d}" for d in range(comm.size)], reliable=True
            )
            return out

        rt = MPIRuntime(3, fault_plan=plan, recv_timeout=5.0)
        results = rt.run(fn)
        for dst, row in enumerate(results):
            assert row == [f"{src}->{dst}" for src in range(3)]

    def test_budget_resets_at_step_boundaries(self):
        # one drop in step 0 (seq 0; its retry is seq 1) and one in
        # step 1 (seq 2): two retries total fit a budget of 1 only
        # because fault_point refills it at the step boundary
        plan = (
            FaultPlan()
            .drop_messages(src=0, dst=1, nth=0, count=1)
            .drop_messages(src=0, dst=1, nth=2, count=1)
        )

        def fn(comm):
            for step in range(2):
                comm.fault_point(step)
                if comm.rank == 0:
                    comm.send(step, 1, tag=3, reliable=True)
                else:
                    assert comm.recv(0, tag=3, timeout=5.0) == step
            return True

        rt = MPIRuntime(2, fault_plan=plan, retry_budget=1, recv_timeout=5.0)
        assert rt.run(fn) == [True, True]


class TestStructuredTimeout:
    def test_comm_timeout_carries_context(self):
        def fn(comm):
            if comm.rank == 0:
                comm.fault_point(7)
                with pytest.raises(CommTimeout) as exc_info:
                    comm.recv(1, tag=5, timeout=0.2)
                exc = exc_info.value
                return {
                    "rank": exc.rank,
                    "source": exc.source,
                    "tag": exc.tag,
                    "step": exc.step,
                    "elapsed": exc.elapsed,
                    "op": exc.op,
                }
            return None

        results = MPIRuntime(2).run(fn)
        got = results[0]
        assert got["rank"] == 0
        assert got["source"] == 1
        assert got["tag"] == 5
        assert got["step"] == 7
        assert got["elapsed"] >= 0.2
        assert "recv" in got["op"]


class TestDivisionsForRanks:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1, 1)), (2, (2, 1, 1)), (3, (3, 1, 1)), (4, (2, 2, 1)),
         (6, (3, 2, 1)), (8, (2, 2, 2)), (12, (3, 2, 2))],
    )
    def test_compact_factorizations(self, n, expected):
        assert divisions_for_ranks(n) == expected

    def test_product_invariant(self):
        for n in range(1, 65):
            dx, dy, dz = divisions_for_ranks(n)
            assert dx * dy * dz == n
            assert dx >= dy >= dz >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisions_for_ranks(0)
