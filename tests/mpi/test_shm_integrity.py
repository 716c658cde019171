"""SharedMemory transport frame integrity (multiprocess backend).

Every out-of-band SHM frame carries a CRC32 computed at send time; the
receiver re-checks it before trusting the bytes.  A frame corrupted in
flight (the ``corrupt_shm`` fault) must be *dropped* — surfacing as a
recv timeout the recovery machinery understands — never delivered as
silently wrong data.

A consumed frame's segment stays with the receiver and carries its next
send (``_ShmPool``): the second half of this file pins that circulation
— few segments however many messages, a corrupted frame never pooled,
bounds, and nothing left under ``/dev/shm`` whichever way a job ends."""

from __future__ import annotations

import glob
import io
import os
import pickle
import uuid
import zlib

import numpy as np
import pytest

from repro import DomainConfig, PMConfig, SimulationConfig, TreePMConfig
from repro.mpi import mp_backend
from repro.mpi.faults import CommTimeout, FaultPlan
from repro.mpi.mp_backend import (
    MultiprocessBackend,
    ShmFrameCorrupted,
    _ShmPool,
    has_shm_frames,
    shm_dumps,
    shm_loads,
)
from repro.mpi.supervisor import sweep_shm_segments
from repro.sim.parallel import run_parallel_simulation

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

start_methods = pytest.mark.parametrize("start_method", ["fork", "spawn"])


# SPMD functions live at module level so that a spawn worker can
# import them (CI runs this file under REPRO_MP_START_METHOD=spawn too)


def _sabotaged_then_clean(comm):
    big = np.arange(4096, dtype=np.float64)
    if comm.rank == 0:
        comm.send(big, 1, tag=7)       # sabotaged frame
        comm.send(big * 2, 1, tag=8)   # clean frame
        return ("sender", 0, 0.0)
    try:
        comm.recv(0, tag=7, timeout=2.0)
        outcome = "delivered"
    except CommTimeout:
        outcome = "dropped"
    clean = comm.recv(0, tag=8, timeout=10.0)
    return (outcome, int(comm.shm_crc_failures), float(clean[1]))


def test_corrupted_frame_dropped_clean_frame_delivered():
    plan = FaultPlan(seed=5).corrupt_shm(src=0, dst=1, nth=0)
    backend = MultiprocessBackend(
        2, fault_plan=plan, recv_timeout=2.0, shm_threshold=256
    )
    sender, receiver = backend.run(_sabotaged_then_clean)
    outcome, crc_failures, probe = receiver
    assert outcome == "dropped"
    assert crc_failures == 1
    assert probe == 2.0  # the clean frame after the bad one is intact


def _mixed_paths(comm, native_rank):
    if comm.rank != native_rank:
        os.environ["REPRO_NO_NATIVE_FRAME"] = "1"
    return _sabotaged_then_clean(comm)


@pytest.mark.parametrize("native_rank", [0, 1])
def test_frames_cross_between_the_native_and_zlib_paths(native_rank):
    """One rank checksums with the frame kernel, the other with zlib:
    the clean frame is delivered and the corrupted one still dropped,
    whichever side runs which."""
    plan = FaultPlan(seed=5).corrupt_shm(src=0, dst=1, nth=0)
    backend = MultiprocessBackend(
        2, fault_plan=plan, recv_timeout=2.0, shm_threshold=256
    )
    _, receiver = backend.run(_mixed_paths, native_rank)
    assert receiver == ("dropped", 1, 2.0)


@pytest.mark.parametrize("pack_native", [True, False])
def test_frames_packed_on_one_path_load_on_the_other(pack_native, monkeypatch):
    def use_native(on):
        if on:
            monkeypatch.delenv("REPRO_NO_NATIVE_FRAME", raising=False)
        else:
            monkeypatch.setenv("REPRO_NO_NATIVE_FRAME", "1")

    pool = _ShmPool(f"rpmptest{uuid.uuid4().hex[:8]}")
    message = {"strided": _strided_mib(4), "contiguous": _strided_mib(5).copy()}
    try:
        use_native(pack_native)
        blob = shm_dumps(message, pool, 1 << 16)
        bad = shm_dumps(message["contiguous"], pool, 1 << 16, sabotage=True)
        use_native(not pack_native)
        got = shm_loads(blob, pool)
        for key, block in message.items():
            assert got[key].tobytes() == np.ascontiguousarray(block).tobytes()
        with pytest.raises(ShmFrameCorrupted):
            shm_loads(bad, pool)
    finally:
        pool.clear()
        left = _segments(pool._prefix)
        sweep_shm_segments(pool._prefix)  # frames never loaded, on a failure
    assert not left


def _small_message(comm):
    small = np.arange(16, dtype=np.float64)
    if comm.rank == 0:
        comm.send(small, 1, tag=3)
        return None
    got = comm.recv(0, tag=3, timeout=5.0)
    return (int(comm.shm_crc_failures), float(got.sum()))


def test_small_messages_bypass_shm_and_survive():
    # below shm_threshold the payload rides the pipe, which the
    # corrupt_shm rule cannot touch: delivery must succeed
    plan = FaultPlan(seed=5).corrupt_shm(src=0, dst=1, nth=0, count=100)
    backend = MultiprocessBackend(
        2, fault_plan=plan, recv_timeout=2.0, shm_threshold=1 << 20
    )
    _, receiver = backend.run(_small_message)
    assert receiver == (0, float(np.arange(16).sum()))


def _control_traffic_then_frame(comm):
    big = np.arange(4096, dtype=np.float64)
    if comm.rank == 0:
        comm.send("prelude", 1, tag=1)
        comm.send((None, {"step": 3}), 1, tag=2)
        comm.send(big, 1, tag=7)
        return None
    assert comm.recv(0, tag=1, timeout=5.0) == "prelude"
    assert comm.recv(0, tag=2, timeout=5.0) == (None, {"step": 3})
    try:
        comm.recv(0, tag=7, timeout=2.0)
        outcome = "delivered"
    except CommTimeout:
        outcome = "dropped"
    return (outcome, int(comm.shm_crc_failures))


def test_control_traffic_does_not_consume_frame_window():
    # corrupt_shm counts SHM *frames*, not messages: array-free control
    # messages sent first must not use up the nth=0 slot, so the first
    # frame-carrying message is still the one sabotaged
    plan = FaultPlan(seed=5).corrupt_shm(src=0, dst=1, nth=0, count=1)
    backend = MultiprocessBackend(
        2, fault_plan=plan, recv_timeout=2.0, shm_threshold=256
    )
    _, receiver = backend.run(_control_traffic_then_frame)
    assert receiver == ("dropped", 1)


def test_has_shm_frames_predicate():
    big = np.arange(64, dtype=np.float64)  # 512 bytes
    assert has_shm_frames(big, 256)
    assert has_shm_frames((big, "meta"), 256)
    assert has_shm_frames({"pos": big}, 256)
    assert has_shm_frames([{"pos": (big,)}], 256)
    assert not has_shm_frames(big, 1024)            # below threshold
    assert not has_shm_frames(None, 1)
    assert not has_shm_frames(("a", 3, {"k": 1.0}), 1)
    assert not has_shm_frames(np.empty(0), 1)       # empty stays inline
    assert not has_shm_frames(
        np.array([{"o": 1}], dtype=object), 1       # object dtype inline
    )


# ---------------------------------------------------------------------------
# segment circulation
# ---------------------------------------------------------------------------


def _segments(prefix: str):
    return glob.glob(f"/dev/shm/{prefix}*")


def _strided_mib(seed: int) -> np.ndarray:
    """A 1 MiB non-contiguous block, like a transpose's."""
    return np.random.default_rng(seed).random((256, 1024))[:, ::2]


def _frame_ids(blob: bytes):
    ids = []

    class Spy(pickle.Unpickler):
        def persistent_load(self, pid):
            ids.append(pid)

    Spy(io.BytesIO(blob)).load()
    return ids


def test_strided_block_arrives_bitwise_and_crc_covers_packed_bytes():
    pool = _ShmPool(f"rpmptest{uuid.uuid4().hex[:8]}")
    block = _strided_mib(0)
    assert not block.flags.c_contiguous
    try:
        blob = shm_dumps({"block": block}, pool, 1 << 16)
        (frame,) = _frame_ids(blob)
        assert frame[3] == block.shape
        assert frame[4] == zlib.crc32(np.ascontiguousarray(block).tobytes())
        got = shm_loads(blob, pool)["block"]
        assert got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(block).tobytes()
    finally:
        pool.clear()
    assert not _segments(pool._prefix)


def _ping_pong(comm, rounds):
    block = _strided_mib(1)
    for i in range(rounds):
        if comm.rank == 0:
            comm.send(block, 1, tag=i)
            echo = comm.recv(1, tag=i, timeout=20.0)
            assert echo.tobytes() == np.ascontiguousarray(block).tobytes()
        else:
            comm.send(comm.recv(0, tag=i, timeout=20.0), 0, tag=i)
    return comm.shm_created, comm.shm_reused


@start_methods
def test_ping_pong_circulates_a_few_segments(start_method):
    rounds = 40
    backend = MultiprocessBackend(2, recv_timeout=20.0, start_method=start_method)
    counts = backend.run(_ping_pong, rounds)
    created = sum(c for c, _ in counts)
    reused = sum(r for _, r in counts)
    assert created + reused == 2 * rounds      # every frame is counted
    assert created <= 2                        # O(pool), not O(messages)
    assert not _segments(backend._supervisor.job.shm_prefix)


def _corrupt_on_reused_segment(comm):
    block = _strided_mib(2)
    pool = comm._ctl.shm_pool
    if comm.rank == 0:
        comm.send(block, 1, tag=0)                   # creates the segment
        comm.recv(1, tag=0, timeout=20.0)            # ... and gets it back
        comm.send(block, 1, tag=1)                   # reused, sabotaged
        (name,) = list(pool._away)
        comm.send(name, 1, tag=2)
        return comm.shm_created, comm.shm_reused
    comm.send(comm.recv(0, tag=0, timeout=20.0), 0, tag=0)
    try:
        comm.recv(0, tag=1, timeout=1.0)
        outcome = "delivered"
    except CommTimeout:
        outcome = "dropped"
    name = comm.recv(0, tag=2, timeout=20.0)
    return (
        outcome,
        int(comm.shm_crc_failures),
        [seg.name for seg in pool._free],
        name,
        glob.glob(f"/dev/shm/{name}"),
    )


def test_corrupted_frame_on_a_reused_segment_is_dropped_and_not_pooled():
    plan = FaultPlan(seed=5).corrupt_shm(src=0, dst=1, nth=1)
    backend = MultiprocessBackend(2, fault_plan=plan, recv_timeout=20.0)
    sender, receiver = backend.run(_corrupt_on_reused_segment)
    assert sender == (1, 1)  # the sabotaged frame rode the one segment again
    outcome, crc_failures, pooled, name, linked = receiver
    assert (outcome, crc_failures) == ("dropped", 1)
    assert pooled == [] and linked == []
    assert name.startswith(backend._supervisor.job.shm_prefix)


PAGE = 4096


@pytest.fixture
def small_pool(monkeypatch):
    """A pool bounded to 10 pages and 4 remembered mappings."""
    monkeypatch.setattr(mp_backend, "_POOL_MAX_BYTES", 10 * PAGE)
    monkeypatch.setattr(mp_backend, "_POOL_REMEMBERED", 4)
    pool = _ShmPool(f"rpmptest{uuid.uuid4().hex[:8]}")
    yield pool
    pool.clear()
    sweep_shm_segments(pool._prefix)  # what a test "sent away"


def _fresh(pool, pages):
    return mp_backend._create_shm(pool._prefix, pages * PAGE)


def _free_pages(pool):
    return sorted(seg.size // PAGE for seg in pool._free)


def test_pool_bounded_per_class_and_in_bytes(small_pool):
    pool = small_pool
    for _ in range(4):
        pool.release(_fresh(pool, 1))
    # the third and fourth of the class were unlinked, not kept
    assert _free_pages(pool) == [1, 1]
    assert len(_segments(pool._prefix)) == 2
    pool.release(_fresh(pool, 4))
    pool.release(_fresh(pool, 8))  # 6 pages held + 8 would pass 10
    assert _free_pages(pool) == [1, 1, 4]
    assert len(_segments(pool._prefix)) == 3


def test_pool_serves_a_frame_from_its_size_class(small_pool):
    pool = small_pool
    seg = pool.acquire(3 * PAGE)
    assert seg.size == 4 * PAGE  # rounded up to the class
    pool.release(seg)
    pool.release(_fresh(pool, 2))
    assert pool.acquire(4 * PAGE) is seg
    pool.release(seg)
    # a small frame leaves the larger segment to a frame that needs it
    small = pool.acquire(PAGE)
    assert small is not seg and small.size == PAGE
    assert (pool.created, pool.reused) == (2, 1)
    pool.release(small)


def test_remembered_mappings_are_bounded_oldest_first(small_pool):
    pool = small_pool
    sent = [_fresh(pool, 1) for _ in range(6)]
    for seg in sent:
        pool.sent(seg)
    assert list(pool._away) == [seg.name for seg in sent[2:]]
    assert pool.attach(sent[5].name) is sent[5]  # no second mapping
    pool.release(sent[5])
    pool.sent(_fresh(pool, 11))  # larger than the byte bound on its own
    assert not pool._away


def test_rank_reports_show_a_warm_pool():
    """What a run hands back says whether segments circulated."""
    rng = np.random.default_rng(11)
    pos = rng.random((512, 3))
    config = SimulationConfig(
        domain=DomainConfig(divisions=(2, 1, 1), cost_balance=False),
        treepm=TreePMConfig(pm=PMConfig(mesh_size=32)),
    )
    *_, reports, _ = run_parallel_simulation(
        config, pos, np.zeros_like(pos), np.full(512, 1 / 512), 0.0, 0.01, 4,
        backend="multiprocess",
    )
    for report in reports:
        assert report.shm_created > 0
        assert report.shm_reused > 2 * report.shm_created


def _hold_segments_then(comm, how, marker):
    """Both ranks end up with pooled segments; then the job ends ``how``."""
    block = _strided_mib(3)
    other = 1 - comm.rank
    for i in range(3):
        got = comm.sendrecv(block, other, other, sendtag=i, recvtag=i)
        assert got.shape == block.shape
    held = [seg.name for seg in comm._ctl.shm_pool._free]
    if comm.rank == 1:
        with open(marker, "w") as fh:
            fh.write(" ".join(held))
    comm.barrier()
    if how == "abort" and comm.rank == 1:
        raise ValueError("rank 1 gives up")
    if how == "sigkill":
        comm.fault_point(0)  # the plan SIGKILLs rank 1 here
    comm.barrier()
    return len(held)


@start_methods
@pytest.mark.parametrize("how", ["normal", "abort", "sigkill"])
def test_nothing_left_in_dev_shm(how, start_method, tmp_path):
    marker = tmp_path / "held"
    plan = FaultPlan().kill_rank(1, 0) if how == "sigkill" else None
    backend = MultiprocessBackend(
        2, fault_plan=plan, recv_timeout=20.0, start_method=start_method
    )
    if how == "normal":
        assert min(backend.run(_hold_segments_then, how, str(marker))) >= 1
    else:
        with pytest.raises(RuntimeError):
            backend.run(_hold_segments_then, how, str(marker))
    # rank 1 really held pooled segments when it went down
    assert marker.read_text().split()
    assert not _segments(backend._supervisor.job.shm_prefix)
