"""Fault-injection tests: every scheduled failure must surface as a
clean error — never a hang.  All tests carry the ``faults`` marker and
rely on the conftest SIGALRM alarm as a backstop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi.comm import CommAborted
from repro.mpi.faults import (
    CommTimeout,
    FaultPlan,
    InjectedFault,
    apply_scheduled_flips,
    corrupt_payload,
    flip_array_bits,
    flip_file_bits,
    retry_with_backoff,
)
from repro.mpi.runtime import MPIRuntime

pytestmark = [pytest.mark.faults, pytest.mark.timeout(60)]


class TestFaultPlan:
    def test_builder_chains_and_describe(self):
        plan = (
            FaultPlan(seed=7)
            .kill_rank(1, step=2)
            .drop_messages(src=0, dst=1)
            .delay_messages(0.2, src=2, dst=3, nth=1)
            .corrupt_messages(src=1, dst=0)
            .stall_collective("bcast", rank=3)
        )
        assert not plan.empty
        text = plan.describe()
        assert "kill rank 1 at step 2" in text
        assert "drop 0->1" in text
        assert "stall bcast #0 on rank 3" in text

    def test_empty_plan(self):
        assert FaultPlan().empty

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().drop_messages(count=0)
        with pytest.raises(ValueError):
            FaultPlan().drop_messages(probability=0.0)
        with pytest.raises(ValueError):
            FaultPlan().delay_messages(-1.0)

    def test_kill_action(self):
        plan = FaultPlan().kill_rank(2, step=5)
        assert plan.kill_action(2, 5).real is None
        assert plan.kill_action(2, 4) is None
        assert plan.kill_action(1, 5) is None

    def test_probability_is_deterministic(self):
        plan = FaultPlan(seed=42).drop_messages(
            src=0, dst=1, nth=0, count=100, probability=0.5
        )
        (rule,) = plan.message_events(0, 1)
        hits_a = [rule.hits(s, plan.seed, 0, 1) for s in range(100)]
        hits_b = [rule.hits(s, plan.seed, 0, 1) for s in range(100)]
        assert hits_a == hits_b
        assert 10 < sum(hits_a) < 90  # Bernoulli(0.5), not all-or-nothing

    def test_corrupt_payload_changes_array(self):
        arr = np.ones(4)
        bad = corrupt_payload(arr)
        assert bad.shape == arr.shape and bad.dtype == arr.dtype
        assert bad[0] != arr[0]
        np.testing.assert_array_equal(bad[1:], arr[1:])


class TestInjectedFailures:
    def test_kill_rank_at_fault_point(self):
        plan = FaultPlan().kill_rank(1, step=3)

        def fn(comm):
            for step in range(5):
                comm.fault_point(step)
                comm.barrier()
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1") as ei:
            MPIRuntime(4, fault_plan=plan).run(fn)
        assert isinstance(ei.value.rank_errors[1], InjectedFault)
        assert "step 3" in str(ei.value.rank_errors[1])

    def test_dropped_message_times_out_instead_of_hanging(self):
        plan = FaultPlan().drop_messages(src=0, dst=1, nth=0)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(3), dest=1)
            else:
                comm.recv(0)

        with pytest.raises(RuntimeError, match="timed out") as ei:
            MPIRuntime(2, fault_plan=plan, recv_timeout=0.3).run(fn)
        assert isinstance(ei.value.rank_errors[1], CommTimeout)
        assert "from rank 0" in str(ei.value.rank_errors[1])

    def test_delayed_message_still_delivered(self):
        plan = FaultPlan().delay_messages(0.2, src=0, dst=1, nth=0)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(3), dest=1)
                return None
            return comm.recv(0)

        out = MPIRuntime(2, fault_plan=plan, recv_timeout=5.0).run(fn)
        np.testing.assert_array_equal(out[1], np.arange(3))

    def test_corrupted_message_detected_by_checksum(self):
        """A corrupted payload arrives changed — the receiver can tell."""
        plan = FaultPlan().corrupt_messages(src=0, dst=1, nth=0)

        def fn(comm):
            data = np.ones(8)
            if comm.rank == 0:
                comm.send(data, dest=1)
                return None
            got = comm.recv(0)
            return bool(np.array_equal(got, data))

        out = MPIRuntime(2, fault_plan=plan).run(fn)
        assert out[1] is False

    def test_stalled_collective_caught_by_watchdog(self):
        plan = FaultPlan().stall_collective("bcast", rank=2)

        def fn(comm):
            return comm.bcast(comm.rank, root=0)

        with pytest.raises(RuntimeError, match="watchdog") as ei:
            MPIRuntime(
                4, fault_plan=plan, watchdog_timeout=0.3
            ).run(fn)
        msg = str(ei.value)
        assert "rank 2" in msg and "bcast" in msg
        assert ei.value.abort_origin == 2

    def test_recv_explicit_timeout_overrides_default(self):
        def fn(comm):
            if comm.rank == 1:
                comm.recv(0, timeout=0.2)  # rank 0 never sends
            # rank 0 returns immediately; its exit must not hang rank 1

        with pytest.raises(RuntimeError, match="timed out") as ei:
            MPIRuntime(2).run(fn)
        assert isinstance(ei.value.rank_errors[1], CommTimeout)

    def test_multiple_failures_all_reported(self):
        def fn(comm):
            if comm.rank in (1, 3):
                raise ValueError(f"boom {comm.rank}")
            comm.barrier()

        with pytest.raises(RuntimeError) as ei:
            MPIRuntime(4).run(fn)
        err = ei.value
        assert set(err.rank_errors) == {1, 3}
        assert "thread rank-1" in str(err)
        assert "more rank(s) failed" in str(err)
        assert err.aborted_ranks == [0, 2]

    def test_comm_aborted_not_swallowed(self):
        """Secondary CommAborted casualties are named in the error."""

        def fn(comm):
            if comm.rank == 0:
                raise ValueError("primary")
            comm.barrier()

        with pytest.raises(RuntimeError, match="aborted") as ei:
            MPIRuntime(3).run(fn)
        assert ei.value.abort_origin == 0
        assert ei.value.aborted_ranks == [1, 2]

    def test_fault_point_noop_without_plan(self):
        def fn(comm):
            comm.fault_point(0)
            return comm.rank

        assert MPIRuntime(2).run(fn) == [0, 1]


class TestRetryWithBackoff:
    def test_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise CommTimeout("transient")
            return "ok"

        seen = []
        out = retry_with_backoff(
            flaky,
            retries=3,
            base_delay=0.001,
            on_retry=lambda attempt, exc: seen.append(attempt),
        )
        assert out == "ok"
        assert len(calls) == 3
        assert seen == [0, 1]

    def test_exhausted_retries_raise(self):
        def always_fails():
            raise CommTimeout("permanent")

        with pytest.raises(CommTimeout):
            retry_with_backoff(always_fails, retries=2, base_delay=0.001)

    def test_unlisted_exception_not_retried(self):
        calls = []

        def fails():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_with_backoff(fails, retries=3, base_delay=0.001)
        assert len(calls) == 1

    def test_retry_recovers_probabilistic_drop(self):
        """End-to-end: a retried exchange survives a one-shot drop."""
        plan = FaultPlan().drop_messages(src=0, dst=1, nth=0)

        def fn(comm):
            if comm.rank == 0:
                for _ in range(2):
                    comm.send(np.arange(4), dest=1)
                return None

            def attempt():
                return comm.recv(0, timeout=0.3)

            return retry_with_backoff(attempt, retries=2, base_delay=0.01)

        out = MPIRuntime(2, fault_plan=plan).run(fn)
        np.testing.assert_array_equal(out[1], np.arange(4))


class TestSubCommunicatorAbort:
    def test_abort_breaks_sub_comm_barrier(self):
        """A failure must break barriers on split communicators too."""

        def fn(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            if comm.rank == 0:
                raise ValueError("die before sub barrier")
            sub.barrier()  # ranks 1..3 would deadlock without control sharing

        with pytest.raises(RuntimeError, match="rank 0"):
            MPIRuntime(4).run(fn)


class TestSdcFaultPrimitives:
    """The silent-data-corruption injection surface: in-memory bit
    flips, SHM transport corruption, on-disk bit-rot — all
    deterministic, all one-shot."""

    def test_flip_bits_builder_and_describe(self):
        plan = (
            FaultPlan(seed=3)
            .flip_bits(1, "mass", step=2, target="live")
            .flip_bits(0, "pos", step=1, nbits=3)
            .corrupt_shm(src=0, dst=1, nth=2, count=5)
            .rot_checkpoint(2, step=4, nbits=2)
        )
        assert not plan.empty
        text = plan.describe()
        assert "flip 1 bit(s) of 'mass' (live) on rank 1 at step 2" in text
        assert "flip 3 bit(s) of 'pos' (self_copy) on rank 0 at step 1" in text
        assert "corrupt_shm 0->1 messages [2, 7)" in text
        assert "rot 2 bit(s) of rank 2's checkpoint at step 4" in text

    def test_flip_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().flip_bits(0, "mass", step=0, nbits=0)
        with pytest.raises(ValueError):
            FaultPlan().flip_bits(0, "mass", step=0, target="ghost_copy")
        with pytest.raises(ValueError):
            FaultPlan().rot_checkpoint(0, step=0, nbits=0)

    def test_flip_and_rot_queries_filter(self):
        plan = (
            FaultPlan()
            .flip_bits(0, "mass", step=1, target="live")
            .flip_bits(0, "pos", step=1, target="self_copy")
            .rot_checkpoint(1, step=2)
        )
        assert len(plan.flip_events(0, 1)) == 2
        assert [f.array for f in plan.flip_events(0, 1, target="live")] == [
            "mass"
        ]
        assert plan.flip_events(1, 1) == []
        assert len(plan.rot_events(1, 2)) == 1
        assert plan.rot_events(1, 3) == []

    def test_fire_once(self):
        plan = FaultPlan()
        key = ("flip", 0, "mass", 1, "live")
        assert plan.fire_once(key)
        assert not plan.fire_once(key)
        assert plan.fire_once(("flip", 1, "mass", 1, "live"))

    def test_flip_array_bits_deterministic_and_in_place(self):
        a = np.ones(32)
        b = np.ones(32)
        bits_a = flip_array_bits(a, nbits=4, seed=11)
        bits_b = flip_array_bits(b, nbits=4, seed=11)
        assert bits_a == bits_b and len(bits_a) == 4
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, np.ones(32))
        # flipping the same bits again restores the original
        flip_array_bits(a, nbits=4, seed=11)
        np.testing.assert_array_equal(a, np.ones(32))

    def test_flip_array_bits_edge_cases(self):
        assert flip_array_bits(np.zeros(0), nbits=2, seed=0) == []
        with pytest.raises(ValueError):
            flip_array_bits(np.zeros(4), nbits=0)
        with pytest.raises(ValueError):
            flip_array_bits(np.zeros((4, 4)).T, nbits=1)
        tiny = np.zeros(1, dtype=np.uint8)
        assert len(flip_array_bits(tiny, nbits=64, seed=1)) == 8

    def test_flip_file_bits_deterministic(self, tmp_path):
        payload = bytes(range(64))
        fa, fb = tmp_path / "a.bin", tmp_path / "b.bin"
        fa.write_bytes(payload)
        fb.write_bytes(payload)
        bits_a = flip_file_bits(fa, nbits=3, seed=(9, 1))
        bits_b = flip_file_bits(fb, nbits=3, seed=(9, 1))
        assert bits_a == bits_b and len(bits_a) == 3
        assert fa.read_bytes() == fb.read_bytes() != payload
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert flip_file_bits(empty, nbits=1, seed=0) == []

    def test_apply_scheduled_flips_one_shot(self):
        plan = FaultPlan(seed=2).flip_bits(0, "mass", step=1, target="live")
        arrays = {"mass": np.ones(16), "pos": np.ones((16, 3))}
        assert apply_scheduled_flips(plan, 0, 1, arrays, target="live") == [
            "mass"
        ]
        damaged = arrays["mass"].copy()
        # a rollback replays step 1: the same rule must not strike twice
        assert apply_scheduled_flips(plan, 0, 1, arrays, target="live") == []
        np.testing.assert_array_equal(arrays["mass"], damaged)
        np.testing.assert_array_equal(arrays["pos"], np.ones((16, 3)))

    def test_apply_scheduled_flips_ignores_absent_and_other_targets(self):
        plan = (
            FaultPlan()
            .flip_bits(0, "ghost", step=1, target="live")
            .flip_bits(0, "mass", step=1, target="self_copy")
        )
        arrays = {"mass": np.ones(8)}
        assert apply_scheduled_flips(plan, 0, 1, arrays, target="live") == []
        np.testing.assert_array_equal(arrays["mass"], np.ones(8))
        assert apply_scheduled_flips(None, 0, 1, arrays) == []


class TestCorruptPayloadMatrix:
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.uint8, np.complex128]
    )
    def test_dtypes(self, dtype):
        arr = np.ones(6, dtype=dtype)
        bad = corrupt_payload(arr)
        assert bad.dtype == arr.dtype and bad.shape == arr.shape
        assert not np.array_equal(bad, arr)
        np.testing.assert_array_equal(bad[1:], arr[1:])

    def test_multidimensional(self):
        arr = np.ones((3, 4), dtype=np.float64)
        bad = corrupt_payload(arr)
        assert bad.shape == arr.shape
        assert not np.array_equal(bad, arr)

    def test_zero_size_and_non_array(self):
        empty = np.zeros(0)
        assert corrupt_payload(empty) == "<corrupted payload>"
        assert corrupt_payload({"a": 1}) == "<corrupted payload>"

    def test_keyed_dict_targets_one_entry(self):
        msg = {"pos": np.ones((4, 3)), "step": 7}
        bad = corrupt_payload(msg, key="pos")
        assert bad["step"] == 7
        assert not np.array_equal(bad["pos"], msg["pos"])
        # the original payload is left untouched
        np.testing.assert_array_equal(msg["pos"], np.ones((4, 3)))

    def test_keyed_dict_missing_key_passes_through(self):
        msg = {"step": 7}
        assert corrupt_payload(msg, key="pos") is msg
        arr = np.ones(4)
        assert corrupt_payload(arr, key="pos") is arr
