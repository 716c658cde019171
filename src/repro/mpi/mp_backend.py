"""Supervised multiprocess communicator backend.

One OS process per rank, a supervising parent, and a shared-memory
transport: the ``"multiprocess"`` backend runs the *same* SPMD functions
as the thread backend with true parallelism (one GIL per rank) and fault
tolerance across real process boundaries — a SIGKILLed worker surfaces
to the survivors as the same :class:`repro.mpi.faults.PeerFailure` an
injected thread death produces, so the elastic shrink-and-continue
recovery of :mod:`repro.mpi.recovery` works unchanged against genuinely
dead processes.

Architecture (fork start method by default; override with
``REPRO_MP_START_METHOD=spawn``, which additionally requires the SPMD
function to be picklable):

* **Transport** — one inbound ``multiprocessing.Queue`` per world rank;
  every message is ``(comm_key, epoch, src_world, tag, blob)``.  A rank
  has exactly one queue consumer (its :class:`_Mailbox`) that routes
  messages to whichever communicator — world, split, or shrunk — is
  receiving, stashing out-of-order arrivals by ``(comm_key, epoch,
  src, tag)`` and discarding other-epoch stragglers exactly like the
  thread backend (counted in ``comm.stale_rejected``).
* **Large arrays** ride POSIX shared memory instead of the queue pipe:
  a custom pickler packs every numpy array above a size threshold
  (strided views included) into a ``SharedMemory`` segment (job-unique
  name prefix) and the receiver copies it out.  The pipe then carries
  only metadata, and a block crosses process boundaries with one copy
  in and one copy out.  Ownership of a segment passes to the receiver,
  who keeps it mapped in a small :class:`_ShmPool` to carry its own
  next send instead of unlinking it: in steady state the same segments
  circulate between the ranks and no step creates, maps or faults in a
  new one.  The supervisor's prefix sweep is the backstop for whatever
  a killed worker held.
* **Collectives** come from :class:`repro.mpi.backend.CollectiveComm`
  — the identical binomial-tree / pairwise-exchange message patterns as
  every other backend, so results are bit-identical across backends.
  Barriers are dissemination barriers built from the same transport
  (internal token messages, exempt from fault injection — the thread
  backend's ``threading.Barrier`` is equally exempt).
* **Liveness** — every worker heartbeats a shared board and watches its
  parent pid (orphan protection); the parent-side
  :class:`repro.mpi.supervisor.Supervisor` turns exit codes, missing
  heartbeats and announced deaths into the shared ``dead_flags`` array
  that peers poll from every blocking receive, and frees the queue
  write locks a killed worker died holding (:class:`_OwnedLock`).
* **Fault injection** — a worker given a
  :class:`repro.mpi.faults.FaultPlan` wraps its world communicator in a
  :class:`repro.mpi.faults.FaultComm` (its own copy of the plan, so
  per-process event counters); the transport only offers the two fault
  hooks.  ``kill_rank`` kills *for real*: the victim SIGKILLs itself at
  the scheduled ``fault_point`` — no cleanup, no goodbye message — so
  what the survivors and the supervisor observe is a genuine process
  death, not a simulation of one; ``corrupt_shm`` damages a
  shared-memory frame after its checksum.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import pickle
import queue as _queue
import signal
import threading
import time
import uuid
from collections import OrderedDict, deque
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.backend import (
    BackendCapabilities,
    CollectiveComm,
    CommBackend,
    StepRecord,
    job_results,
    payload_bytes as _payload_bytes,
)
from repro.mpi.comm import CommAborted
from repro.mpi.faults import CommTimeout, FaultComm, PeerFailure, RankDeath
from repro.mpi.network import TrafficLog
from repro.mpi.supervisor import DEATH_EXIT_CODE, Supervisor
from repro.native import frame

__all__ = [
    "MultiprocessBackend",
    "MPComm",
    "UnpicklableResult",
    "ShmFrameCorrupted",
    "DEFAULT_SHM_THRESHOLD",
]

_POLL_SECONDS = 0.02

#: payload size (bytes) above which arrays ride shared memory
DEFAULT_SHM_THRESHOLD = 1 << 16

#: comm_key of the world communicator
_WORLD_KEY: Tuple[Any, ...] = ("w",)


# ---------------------------------------------------------------------------
# shared-memory transport
# ---------------------------------------------------------------------------


#: free segments a process keeps per size class, and in total bytes
_POOL_PER_CLASS = 2
_POOL_MAX_BYTES = 128 << 20
#: mappings it remembers of the segments it sent last (same byte bound)
_POOL_REMEMBERED = 16


def _untrack_shm(shm) -> None:
    """Detach a segment from the resource tracker: segments change
    owner with every message, and the supervisor's prefix sweep — not a
    tracker that would have to follow them — is the backstop."""
    resource_tracker.unregister(shm._name, "shared_memory")


def _create_shm(prefix: str, nbytes: int):
    shm = shared_memory.SharedMemory(
        create=True, size=nbytes, name=f"{prefix}{uuid.uuid4().hex[:12]}"
    )
    _untrack_shm(shm)
    return shm


def _attach_shm(name: str):
    shm = shared_memory.SharedMemory(name=name)
    _untrack_shm(shm)
    return shm


def _unlink_shm(shm) -> None:
    """Unmap and unlink a segment this process owns."""
    shm.close()
    # ``unlink`` also unregisters, so the tracker has to know the name
    resource_tracker.register(shm._name, "shared_memory")
    try:
        shm.unlink()
    except FileNotFoundError:  # already swept
        _untrack_shm(shm)


class _ShmPool:
    """The segments one worker may reuse, and the mappings it keeps.

    A consumed frame's segment belongs to the receiver.  Instead of
    unlinking it, :meth:`release` keeps it — mapped — and
    :meth:`acquire` hands it to the next send of its size class
    (creating a segment only when the class has none free), so a steady
    exchange stops paying for ``shm_open``/``mmap``/first-touch faults
    on every frame.  :meth:`sent` remembers the mapping of a segment
    that left, so that :meth:`attach` does not map it again when a peer
    sends it back.

    Segments come in power-of-two sizes (the tail of a segment is never
    touched, so it costs address space only): frames whose sizes wander
    from step to step, as particle exchanges do, keep landing in the
    same few classes, and a small frame cannot take a large segment away
    from the transposes.  A rank that receives more frames of a class
    than it sends keeps ``_POOL_PER_CLASS`` of them and unlinks the
    rest, which is the behaviour without a pool; ``_POOL_MAX_BYTES``
    bounds the total, and the remembered mappings are the last
    ``_POOL_REMEMBERED`` sent, under the same byte bound.
    """

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        #: owned and mapped, ready to carry a send
        self._free: List[Any] = []
        #: name -> mapping of a segment now owned by a peer, oldest first
        self._away: "OrderedDict[str, Any]" = OrderedDict()
        #: segments this process created / sends that reused one
        self.created = 0
        self.reused = 0

    def acquire(self, nbytes: int):
        """A mapped segment for an outgoing frame of ``nbytes``."""
        size = 1 << (nbytes - 1).bit_length()
        for seg in self._free:
            if seg.size == size:
                self._free.remove(seg)
                self.reused += 1
                return seg
        self.created += 1
        return _create_shm(self._prefix, size)

    def sent(self, seg) -> None:
        """``seg`` left with a message: it is the receiver's now."""
        away = self._away
        away[seg.name] = seg
        while (
            len(away) > _POOL_REMEMBERED
            or sum(s.size for s in away.values()) > _POOL_MAX_BYTES
        ):
            away.popitem(last=False)[1].close()

    def attach(self, name: str):
        """The mapping of an incoming frame's segment."""
        seg = self._away.pop(name, None)
        return seg if seg is not None else _attach_shm(name)

    def release(self, seg) -> None:
        """A consumed frame's segment: kept for a later send while there
        is room, unlinked otherwise."""
        free = self._free
        if (
            sum(s.size == seg.size for s in free) < _POOL_PER_CLASS
            and sum(s.size for s in free) + seg.size <= _POOL_MAX_BYTES
        ):
            free.append(seg)
        else:
            _unlink_shm(seg)

    def clear(self) -> None:
        """Unlink every owned segment, drop every remembered mapping."""
        while self._free:
            _unlink_shm(self._free.pop())
        while self._away:
            self._away.popitem()[1].close()


class ShmFrameCorrupted(pickle.UnpicklingError):
    """A SharedMemory frame failed its CRC32 — transport-level silent
    data corruption.  Receivers treat the whole message as undelivered
    (the sender's reliable path or the elastic rollback covers the
    loss), never as data."""


class _ShmPickler(pickle.Pickler):
    """Externalizes large arrays into SharedMemory segments.

    Every frame carries a CRC32 of its payload bytes, computed *before*
    the segment leaves the sender, so a frame corrupted in shared memory
    (or by the fault plan's ``corrupt_shm`` rule, which flips segment
    bytes after the CRC is taken) is caught at rehydration instead of
    being consumed as data.  ``sabotage=True`` is that injection hook.
    """

    def __init__(
        self, file, pool: _ShmPool, threshold: int, sabotage: bool = False
    ) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._pool = pool
        self._threshold = threshold
        self._sabotage = sabotage

    def persistent_id(self, obj: Any):
        if _rides_shm(obj, self._threshold):
            shm = self._pool.acquire(obj.nbytes)
            view = np.ndarray(obj.shape, dtype=obj.dtype, buffer=shm.buf)
            if obj.flags.c_contiguous:  # copied and checksummed in one pass
                crc = frame.crc32_copy(view, obj)
            else:
                # numpy packs a strided block straight into the segment:
                # the CRC covers the packed bytes, which is what arrives
                view[...] = obj
                crc = frame.crc32_copy(None, view)
            del view
            if self._sabotage:
                # flip one payload byte *after* the checksum was taken:
                # exactly what a DMA or DRAM bit-flip in flight looks like
                shm.buf[0] ^= 0xFF
            self._pool.sent(shm)
            return ("repro-shm", shm.name, obj.dtype.str, obj.shape, crc)
        return None


class _ShmUnpickler(pickle.Unpickler):
    """Rehydrates externalized arrays (CRC-check, copy out).  What
    becomes of the segments is :func:`shm_loads`' business."""

    def __init__(self, file, pool: Optional[_ShmPool]) -> None:
        super().__init__(file)
        self._pool = pool
        #: segments whose frames passed their CRC and were copied out
        self.consumed: List[Any] = []

    def persistent_load(self, pid):
        kind, name, dtstr, shape, crc = pid
        if kind != "repro-shm":  # pragma: no cover - format guard
            raise pickle.UnpicklingError(f"unknown persistent id {kind!r}")
        seg = self._pool.attach(name) if self._pool else _attach_shm(name)
        try:
            frame_view = np.ndarray(shape, dtype=np.dtype(dtstr), buffer=seg.buf)
            arr = np.empty_like(frame_view)
            # checked and copied out in one pass; a mismatch drops the copy
            got = frame.crc32_copy(arr, frame_view)
            if got != crc:
                raise ShmFrameCorrupted(
                    f"shared-memory frame {name!r} failed its CRC32 "
                    f"(stored {crc:#010x}, computed {got:#010x})"
                )
        except BaseException:
            # a frame that cannot be trusted takes its segment with it
            _unlink_shm(seg)
            raise
        self.consumed.append(seg)
        return arr


class _ShmScrubber(pickle.Unpickler):
    """Unpickler that only *unlinks* referenced segments (discarding an
    undelivered message without leaking its shared memory)."""

    def persistent_load(self, pid):
        try:
            seg = shared_memory.SharedMemory(name=pid[1])
            seg.close()
            seg.unlink()
        except Exception:
            pass
        return None


def shm_dumps(
    obj: Any, pool: _ShmPool, threshold: int, sabotage: bool = False
) -> bytes:
    buf = io.BytesIO()
    _ShmPickler(buf, pool, threshold, sabotage=sabotage).dump(obj)
    return buf.getvalue()


def _rides_shm(obj: Any, threshold: int) -> bool:
    """Whether ``obj`` itself is an array :class:`_ShmPickler` puts in a
    SharedMemory frame."""
    return bool(
        isinstance(obj, np.ndarray)
        and obj.size
        and obj.nbytes >= threshold
        and not obj.dtype.hasobject
        and obj.dtype.names is None
    )


def has_shm_frames(obj: Any, threshold: int) -> bool:
    """True when serializing ``obj`` would externalize at least one
    array into a SharedMemory frame.  ``corrupt_shm`` fault rules count
    *frames*, not messages, so array-free control traffic must not
    advance their sequence window."""
    if isinstance(obj, np.ndarray):
        return _rides_shm(obj, threshold)
    if isinstance(obj, dict):
        return any(has_shm_frames(v, threshold) for v in obj.values())
    if isinstance(obj, (tuple, list, set, frozenset)):
        return any(has_shm_frames(v, threshold) for v in obj)
    return False


def shm_loads(blob: bytes, pool: Optional[_ShmPool] = None) -> Any:
    """Rehydrate a message.  Its segments go to ``pool`` (unlinked
    without one) once every frame has passed its CRC; a message that
    fails leaves none of them behind, pooled or linked."""
    unpickler = _ShmUnpickler(io.BytesIO(blob), pool)
    try:
        obj = unpickler.load()
    except BaseException:
        for seg in unpickler.consumed:
            _unlink_shm(seg)
        raise
    for seg in unpickler.consumed:
        if pool is not None:
            pool.release(seg)
        else:
            _unlink_shm(seg)
    return obj


def free_blob(blob: bytes) -> None:
    """Release the shared-memory segments of an undelivered message."""
    try:
        _ShmScrubber(io.BytesIO(blob)).load()
    except Exception:
        pass


# ---------------------------------------------------------------------------
# shared job state (built in the parent, inherited/passed to workers)
# ---------------------------------------------------------------------------


class _OwnedLock:
    """A queue's pipe write lock that knows which process holds it.

    Every sender to a rank shares the write lock of that rank's inbound
    ``multiprocessing.Queue``, and a worker SIGKILLed while its feeder
    thread is inside ``send_bytes`` dies holding it: nothing would reach
    that rank in any later epoch.  The supervisor calls
    :meth:`release_if_held_by` for every process it finds gone.
    """

    def __init__(self, ctx) -> None:
        self._lock = ctx.Lock()
        self._owner = ctx.Value("i", 0, lock=False)

    def acquire(self, block: bool = True, timeout: Optional[float] = None) -> bool:
        got = self._lock.acquire(block, timeout)
        if got:
            self._owner.value = os.getpid()
        return got

    def release(self) -> None:
        self._owner.value = 0
        self._lock.release()

    def release_if_held_by(self, pid: int) -> bool:
        if self._owner.value != pid:
            return False
        self.release()
        return True


class _MPJob:
    """Everything the parent and all workers share for one job."""

    def __init__(
        self,
        ctx,
        n_ranks: int,
        elastic: bool,
        fault_plan,
        recv_timeout: Optional[float],
        retry_budget: int,
        shm_threshold: int,
        heartbeat_interval: float,
    ) -> None:
        self.n_ranks = n_ranks
        #: the launcher's pid, taken before any worker exists: a worker
        #: that sampled ``os.getppid()`` itself would record the reaper
        #: when the launcher died first, and never notice it is orphaned
        self.parent_pid = os.getpid()
        self.jobid = uuid.uuid4().hex[:8]
        self.shm_prefix = f"rpmp{self.jobid}"
        self.elastic = elastic
        self.fault_plan = fault_plan
        self.recv_timeout = recv_timeout
        self.retry_budget = retry_budget
        self.shm_threshold = shm_threshold
        self.heartbeat_interval = heartbeat_interval
        #: inbound message queue per world rank
        self.data_queues = [ctx.Queue() for _ in range(n_ranks)]
        #: workers -> supervisor (votes, announced deaths, aborts)
        self.ctrl_queue = ctx.Queue()
        #: workers -> parent (per-rank results)
        self.result_queue = ctx.Queue()
        #: supervisor -> worker (consensus verdicts)
        self.reply_queues = [ctx.Queue() for _ in range(n_ranks)]
        self.abort_event = ctx.Event()
        #: per-rank death flags, polled by every blocking receive
        self.dead_flags = ctx.Array("i", n_ranks, lock=False)
        #: per-rank heartbeat board (time.time() of the last beat)
        self.hb_board = ctx.Array("d", n_ranks, lock=False)
        #: abort reason, written once by the supervisor
        self.reason_buf = ctx.Array("c", 1024, lock=False)
        # the queues with more than one writing process; swapped in
        # before the first put starts a feeder thread
        for q in (*self.data_queues, self.ctrl_queue, self.result_queue):
            q._wlock = _OwnedLock(ctx)

    def release_write_locks(self, pid: int) -> int:
        """Free every queue write lock the (dead) process ``pid`` still
        holds; returns how many were stuck."""
        queues = (*self.data_queues, self.ctrl_queue, self.result_queue)
        return sum(q._wlock.release_if_held_by(pid) for q in queues)

    def abort_reason(self, fallback: str) -> str:
        raw = bytes(self.reason_buf[:])
        msg = raw.split(b"\x00", 1)[0].decode("utf-8", "replace")
        return msg or fallback


# ---------------------------------------------------------------------------
# worker-side runtime state
# ---------------------------------------------------------------------------


class _LocalControl:
    """Per-process state of a worker (analog of
    ``repro.mpi.comm._JobControl``; no locking — one process, and the
    communicator is only ever driven from the rank's main thread)."""

    def __init__(self, job: _MPJob) -> None:
        self.recv_timeout = job.recv_timeout
        self.record = StepRecord(job.retry_budget)
        self.shm_pool = _ShmPool(job.shm_prefix)
        self.epoch = 0


class _Mailbox:
    """The single consumer of this rank's inbound queue.

    Routes each message to the communicator receive that wants it;
    arrivals for other ``(comm_key, epoch, src, tag)`` keys are stashed
    (out-of-order delivery across interleaved communicators), and
    messages stamped with an epoch older than the newest one registered
    for their communicator are discarded as post-recovery stragglers —
    freeing their shared-memory blobs — exactly like the thread
    backend's epoch quarantine.
    """

    def __init__(self, job: _MPJob, world_rank: int) -> None:
        self.q = job.data_queues[world_rank]
        self.stash: Dict[Tuple[Any, int, int, Any], deque] = {}
        self.epoch_of: Dict[Any, int] = {}
        self.stale_drops = 0

    def register_epoch(self, comm_key: Any, epoch: int) -> None:
        cur = self.epoch_of.get(comm_key, -1)
        if epoch <= cur:
            return
        self.epoch_of[comm_key] = epoch
        for key in [k for k in self.stash if k[0] == comm_key and k[1] < epoch]:
            for blob in self.stash.pop(key):
                free_blob(blob)
                self.stale_drops += 1

    def _classify(self, msg, want) -> Tuple[bool, Any]:
        """Deliver, stash, or drop one raw message; returns
        ``(matched, blob)``."""
        comm_key, epoch, src_w, tag, blob = msg
        key = (comm_key, epoch, src_w, tag)
        if key == want:
            return True, blob
        reg = self.epoch_of.get(comm_key)
        if reg is not None and epoch < reg:
            free_blob(blob)
            self.stale_drops += 1
            return False, None
        self.stash.setdefault(key, deque()).append(blob)
        return False, None

    def try_take(self, want) -> Tuple[bool, Any]:
        """Non-blocking: stash first, then drain whatever the queue
        already holds."""
        d = self.stash.get(want)
        if d:
            blob = d.popleft()
            if not d:
                del self.stash[want]
            return True, blob
        while True:
            try:
                msg = self.q.get_nowait()
            except _queue.Empty:
                return False, None
            matched, blob = self._classify(msg, want)
            if matched:
                return True, blob

    def wait(self, timeout: float) -> None:
        """Block up to ``timeout`` for one raw message and stash (or
        drop) it for the next :meth:`try_take`."""
        try:
            self._classify(self.q.get(timeout=timeout), None)
        except _queue.Empty:
            pass


# ---------------------------------------------------------------------------
# the communicator
# ---------------------------------------------------------------------------


class MPComm(CollectiveComm):
    """One rank's communicator handle on the multiprocess backend.

    The collective surface comes from
    :class:`repro.mpi.backend.CollectiveComm`; this class provides the
    cross-process transport: queue + shared-memory sends, mailbox
    receives with epoch quarantine, dissemination barriers, and failure
    detection against the shared death flags.
    """

    def __init__(
        self,
        job: _MPJob,
        ctl: _LocalControl,
        mailbox: _Mailbox,
        comm_key: Tuple[Any, ...],
        epoch: int,
        world_ranks: Sequence[int],
        rank: int,
        known_dead: frozenset,
        traffic: TrafficLog,
    ) -> None:
        self._job = job
        self._ctl = ctl
        self._mailbox = mailbox
        self._comm_key = comm_key
        self._epoch = int(epoch)
        self._world_ranks = list(world_ranks)
        self._rank = int(rank)
        self._record = ctl.record
        self._known_dead = frozenset(known_dead)
        self.traffic = traffic
        self._split_seq = 0
        self._barrier_seq = 0
        mailbox.register_epoch(comm_key, epoch)
        #: stragglers discarded since this communicator was created
        self._stale_offset = mailbox.stale_drops
        #: messages discarded because a SharedMemory frame failed CRC32
        self.shm_crc_failures = 0

    # -- identity ---------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._world_ranks)

    @property
    def world_rank(self) -> int:
        return self._world_ranks[self._rank]

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def stale_rejected(self) -> int:
        """Other-epoch stragglers this rank's mailbox discarded since
        this communicator was created."""
        return self._mailbox.stale_drops - self._stale_offset

    @property
    def shm_created(self) -> int:
        """SharedMemory segments this rank's process has created."""
        return self._ctl.shm_pool.created

    @property
    def shm_reused(self) -> int:
        """Frames this rank's process sent in a segment it had received
        earlier; next to :attr:`shm_created` it shows a cold pool."""
        return self._ctl.shm_pool.reused

    def _loads_checked(self, blob: bytes) -> Tuple[bool, Any]:
        """Rehydrate a matched message; a CRC32 failure discards it as
        transport corruption (``(False, None)``) instead of delivering
        damaged data — the loss then surfaces through the normal
        timeout/retry machinery, same as a dropped message."""
        try:
            return True, shm_loads(blob, self._ctl.shm_pool)
        except ShmFrameCorrupted:
            free_blob(blob)
            self.shm_crc_failures += 1
            return False, None

    # -- failure detection -------------------------------------------------------

    def _check_abort(self, fallback: str = "peer rank failed") -> None:
        if self._job.abort_event.is_set():
            raise CommAborted(self._job.abort_reason(fallback))

    def _check_peer_failure(self) -> None:
        if not self._job.elastic:
            return
        flags = self._job.dead_flags
        dead = frozenset(i for i in range(self._job.n_ranks) if flags[i])
        delta = dead - self._known_dead
        if delta:
            raise PeerFailure(
                f"rank {self.world_rank}: peer rank(s) {sorted(delta)} died "
                f"(epoch {self._epoch})",
                dead_ranks=dead,
                epoch=self._epoch,
            )

    def _poll_failure_signals(self) -> None:
        self._check_abort()
        self._check_peer_failure()

    # -- fault hooks ---------------------------------------------------------------

    def _die(self, real: Optional[bool]) -> None:
        """Unless ``real=False`` the worker SIGKILLs itself — no cleanup,
        no goodbye — and the supervisor must discover the loss through
        liveness monitoring, exactly like a crashed node."""
        if real is not False:
            os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)  # pragma: no cover - SIGKILL is immediate

    def _shm_frames(self, obj: Any) -> bool:
        return has_shm_frames(obj, self._job.shm_threshold)

    # -- point to point -----------------------------------------------------------

    def _put_raw(self, obj: Any, dest: int, tag: Any, sabotage: bool = False) -> None:
        """Transport put without traffic accounting (barrier tokens; the
        thread backend's ``threading.Barrier`` is equally exempt)."""
        blob = shm_dumps(
            obj, self._ctl.shm_pool, self._job.shm_threshold, sabotage=sabotage
        )
        self._job.data_queues[self._world_ranks[dest]].put(
            (self._comm_key, self._epoch, self.world_rank, tag, blob)
        )

    def _send(self, obj: Any, dest: int, tag: Any, sabotage: bool = False) -> None:
        """Log and put one message; ``sabotage`` flips a byte of its
        first shared-memory frame after the checksum was taken."""
        self.traffic.record(
            self.world_rank, self._world_ranks[dest], _payload_bytes(obj)
        )
        self._put_raw(obj, dest, tag, sabotage=sabotage)

    def recv(self, source: int, tag: Any = 0, timeout: Optional[float] = None) -> Any:
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        ctl = self._ctl
        if timeout is None:
            timeout = ctl.recv_timeout
        t0 = time.monotonic()
        deadline = t0 + timeout if timeout is not None else None
        me_w = self.world_rank
        src_w = self._world_ranks[source]
        want = (self._comm_key, self._epoch, src_w, tag)
        mb = self._mailbox
        op = self._current_op or "recv"
        self._wait_enter()
        try:
            while True:
                # drain what already arrived before looking at failure
                # signals: a delivered message must win over a concurrent
                # peer-death flag (thread-backend parity)
                matched, blob = mb.try_take(want)
                if matched:
                    ok, obj = self._loads_checked(blob)
                    if ok:
                        return obj
                self._poll_failure_signals()
                if deadline is not None and time.monotonic() > deadline:
                    raise CommTimeout.of_recv(
                        me_w, op, src_w, tag, timeout, t0, self._record.step
                    )
                mb.wait(_POLL_SECONDS)
        finally:
            self._wait_exit()

    def _try_recv(self, source: int, tag: Any) -> Tuple[bool, Any]:
        src_w = self._world_ranks[source]
        want = (self._comm_key, self._epoch, src_w, tag)
        matched, blob = self._mailbox.try_take(want)
        if not matched:
            return False, None
        return self._loads_checked(blob)

    # -- barriers ------------------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier over the regular transport: round k
        sends a token to ``(rank + 2**k) % size`` and waits for one from
        ``(rank - 2**k) % size`` — log2(size) rounds, deadlock-free, and
        automatically failure-aware because the token receive polls the
        same abort/death signals as every other receive."""
        self._barrier_seq += 1
        if self.size == 1:
            self._poll_failure_signals()
            return
        seq = self._barrier_seq
        n, r = self.size, self._rank
        mask, k = 1, 0
        while mask < n:
            dst = (r + mask) % n
            src = (r - mask) % n
            self._put_raw(None, dst, ("bar", seq, k))
            self.recv(src, tag=("bar", seq, k))
            mask <<= 1
            k += 1

    def traffic_phase(self, name: str) -> None:
        """Start a new named traffic phase (collective).  Each worker
        logs its own traffic, so the phase is opened in every rank's
        local log (the thread backend opens it once in the shared log)."""
        self.barrier()
        self.traffic.begin_phase(name)
        self.barrier()

    # -- communicator management -----------------------------------------------------

    def _make_split_comm(
        self, seq: int, color: int, member_ranks: Sequence[int], new_rank: int
    ) -> "MPComm":
        """Split hook: the child's identity is the deterministic key
        ``parent_key + ("s", seq, color)`` — every member process
        derives the same key independently, no registry needed."""
        child_key = self._comm_key + (("s", seq, color),)
        world_ranks = [self._world_ranks[r] for r in member_ranks]
        return MPComm(
            self._job,
            self._ctl,
            self._mailbox,
            child_key,
            self._epoch,
            world_ranks,
            new_rank,
            self._known_dead,
            self.traffic,
        )

    # -- elastic recovery --------------------------------------------------------------

    def shrink(self, timeout: float = 30.0) -> Tuple["MPComm", List[int], int]:
        """One survivor-consensus round, coordinated by the supervisor
        (the cross-process analog of the thread backend's consensus
        board); see :func:`repro.mpi.recovery.shrink_after_failure` for
        the contract."""
        job = self._job
        if not job.elastic:
            raise RuntimeError(
                "shrink_after_failure requires an elastic job "
                "(MultiprocessBackend(elastic=True))"
            )
        ctl = self._ctl
        me_w = self.world_rank
        rnd = ctl.epoch + 1
        job.ctrl_queue.put(("vote", me_w, rnd))
        deadline = time.monotonic() + timeout
        while True:
            try:
                verdict = job.reply_queues[me_w].get(timeout=_POLL_SECONDS)
            except _queue.Empty:
                if job.abort_event.is_set():
                    raise CommAborted(
                        job.abort_reason("job aborted during survivor consensus")
                    )
                if time.monotonic() > deadline:
                    reason = (
                        f"survivor consensus for epoch {rnd} timed out "
                        f"after {timeout:.3g}s on rank {me_w}"
                    )
                    job.ctrl_queue.put(("abort", me_w, reason))
                    raise CommAborted(reason)
                continue
            vrnd, dead, survivors = verdict
            if vrnd == rnd:
                break
        ctl.epoch = rnd
        if me_w not in survivors:  # pragma: no cover - live voters survive
            raise PeerFailure(
                f"rank {me_w} was declared dead by consensus",
                dead_ranks=dead,
                epoch=rnd,
            )
        new_comm = MPComm(
            job,
            ctl,
            self._mailbox,
            self._comm_key,
            rnd,
            survivors,
            survivors.index(me_w),
            frozenset(dead),
            self.traffic,
        )
        newly_dead = sorted(set(dead) - set(self._known_dead))
        return new_comm, newly_dead, rnd

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MPComm(rank={self._rank}/{self.size}, world={self.world_rank}, "
            f"epoch={self._epoch})"
        )


# ---------------------------------------------------------------------------
# worker process entry point
# ---------------------------------------------------------------------------


class UnpicklableResult:
    """Placeholder for a rank result that could not cross the process
    boundary (carries ``repr()`` of the original)."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f"UnpicklableResult({self.text!r})"


def _safe_exc(exc: BaseException) -> BaseException:
    """An exception safe to ship through a queue (falls back to a
    RuntimeError carrying type and message)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(job: _MPJob, world_rank: int, fn, args, kwargs) -> None:
    # the child must not inherit the parent's job-guard state: it has no
    # jobs of its own, and the guard would try to reap its own siblings
    from repro.mpi import supervisor as _sup

    _sup._ACTIVE_JOBS.clear()
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover
        pass

    ctl = _LocalControl(job)
    job.hb_board[world_rank] = time.time()
    stop_beat = threading.Event()

    def beat() -> None:
        while not stop_beat.wait(job.heartbeat_interval):
            job.hb_board[world_rank] = time.time()
            if os.getppid() != job.parent_pid:
                # orphaned: the parent died without cleaning up, and
                # nobody is left to sweep what this worker holds
                try:
                    ctl.shm_pool.clear()
                finally:
                    os._exit(3)

    threading.Thread(target=beat, name="heartbeat", daemon=True).start()

    mailbox = _Mailbox(job, world_rank)
    comm = MPComm(
        job,
        ctl,
        mailbox,
        _WORLD_KEY,
        0,
        list(range(job.n_ranks)),
        world_rank,
        frozenset(),
        TrafficLog(),
    )
    if job.fault_plan is not None:
        comm = FaultComm(comm, job.fault_plan)
    exit_code = 0
    control = report = None  # for the supervisor / for the launcher
    try:
        result = fn(comm, *args, **kwargs)
        try:
            blob = shm_dumps(result, ctl.shm_pool, job.shm_threshold)
            report = ("ok", world_rank, blob)
        except Exception:
            report = ("unpicklable", world_rank, repr(result))
    except CommAborted as exc:
        report = ("aborted", world_rank, str(exc))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        if isinstance(exc, RankDeath) and job.elastic:
            # announced simulated death: no result, a dedicated exit code
            control = ("death", world_rank, f"{type(exc).__name__}: {exc}")
            exit_code = DEATH_EXIT_CODE
        else:
            control = (
                "abort",
                world_rank,
                f"rank {world_rank} failed: {type(exc).__name__}: {exc}",
            )
            report = ("error", world_rank, _safe_exc(exc))
            exit_code = 1
    finally:
        stop_beat.set()
        # before the reports go out: a rank the supervisor has heard
        # from may be terminated at any moment
        ctl.shm_pool.clear()
    if control is not None:
        job.ctrl_queue.put(control)
    if report is not None:
        job.result_queue.put(report)
    # normal Process teardown flushes the queue feeders before exit
    if exit_code:
        raise SystemExit(exit_code)


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class MultiprocessBackend(CommBackend):
    """One OS process per rank under a supervising parent — the
    ``"multiprocess"`` communicator backend.

    Accepts the thread backend's constructor signature (``torus_shape``
    and the network-model parameters are accepted and ignored — traffic
    is logged per worker, and no torus model runs — so driver code can
    switch backends without changing call sites), plus:

    shm_threshold:
        Payload size (bytes) above which arrays cross process
        boundaries through POSIX shared memory instead of the queue
        pipe.
    heartbeat_interval / suspect_timeout / heartbeat_timeout:
        Liveness cadence and thresholds (see
        :class:`repro.mpi.supervisor.Supervisor`); a worker silent for
        ``heartbeat_timeout`` seconds is killed and treated as dead.
    adaptive_liveness:
        Derive escalation thresholds from observed inter-beat gaps
        instead of the fixed constants (see
        :meth:`repro.mpi.supervisor.Supervisor.effective_timeouts`).
    start_method:
        ``"fork"`` (default; SPMD closures allowed) or ``"spawn"``
        (requires picklable ``fn``); overridable with the
        ``REPRO_MP_START_METHOD`` environment variable.
    """

    name = "multiprocess"

    #: hard cap on worker processes (sanity bound, not a tuning knob)
    MAX_RANKS = 128

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        return BackendCapabilities(
            true_parallelism=True,
            simulated_kill=True,
            real_process_kill=True,
            network_model=False,
            heartbeat_liveness=True,
            elastic=True,
        )

    def __init__(
        self,
        n_ranks: int,
        torus_shape: Optional[Sequence[int]] = None,
        link_bandwidth: float = 5.0e9,
        link_latency: float = 1.0e-6,
        fault_plan=None,
        recv_timeout: Optional[float] = None,
        watchdog_timeout: Optional[float] = None,
        elastic: bool = False,
        retry_budget: int = 16,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
        heartbeat_interval: float = 0.1,
        suspect_timeout: float = 5.0,
        heartbeat_timeout: Optional[float] = 60.0,
        adaptive_liveness: bool = False,
        start_method: Optional[str] = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if n_ranks > self.MAX_RANKS:
            raise ValueError(f"n_ranks must be <= {self.MAX_RANKS}")
        if recv_timeout is not None and recv_timeout <= 0:
            raise ValueError("recv_timeout must be positive")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if shm_threshold < 1:
            raise ValueError("shm_threshold must be >= 1")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.n_ranks = int(n_ranks)
        self.fault_plan = fault_plan
        self.recv_timeout = recv_timeout
        self.elastic = bool(elastic)
        self.retry_budget = int(retry_budget)
        self.shm_threshold = int(shm_threshold)
        self.heartbeat_interval = float(heartbeat_interval)
        self.suspect_timeout = float(suspect_timeout)
        self.heartbeat_timeout = heartbeat_timeout
        self.adaptive_liveness = bool(adaptive_liveness)
        self.start_method = (
            start_method
            or os.environ.get("REPRO_MP_START_METHOD")
            or "fork"
        )
        if self.start_method not in ("fork", "spawn"):
            # the workers' orphan watch needs the launcher as their
            # direct parent, which a fork server is not
            raise ValueError("start_method must be 'fork' or 'spawn'")
        #: parent-side traffic log (stays empty: workers log their own)
        self.traffic = TrafficLog()
        #: world ranks that died in the last elastic run (diagnostics)
        self.dead_ranks: List[int] = []
        #: liveness snapshot taken when the last run finished
        self.last_liveness: List[Dict[str, Any]] = []
        self._supervisor: Optional[Supervisor] = None

    # -- the launcher ------------------------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank, each in its
        own supervised OS process; same result/failure contract as
        :meth:`repro.mpi.runtime.MPIRuntime.run`."""
        # compile and self-test the frame kernel here, not inside some
        # rank's timed step; forked workers inherit the verified library
        frame.get_lib()
        ctx = mp.get_context(self.start_method)
        job = _MPJob(
            ctx,
            self.n_ranks,
            elastic=self.elastic,
            fault_plan=self.fault_plan,
            recv_timeout=self.recv_timeout,
            retry_budget=self.retry_budget,
            shm_threshold=self.shm_threshold,
            heartbeat_interval=self.heartbeat_interval,
        )
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(job, r, fn, args, kwargs),
                name=f"mp-rank-{r}",
                daemon=True,
            )
            for r in range(self.n_ranks)
        ]
        for p in procs:
            p.start()
        sup = Supervisor(
            job,
            procs,
            elastic=self.elastic,
            suspect_timeout=self.suspect_timeout,
            heartbeat_timeout=self.heartbeat_timeout,
            adaptive_liveness=self.adaptive_liveness,
        )
        self._supervisor = sup
        sup.start()
        try:
            while not sup.finished.wait(timeout=0.2):
                pass
            return self._assemble(sup)
        finally:
            sup.shutdown(drain_blobs=lambda: self._drain_data_queues(job))
            # after shutdown every worker is reaped, so the snapshot
            # carries final exit codes (not None for a mid-reap rank)
            for rank, proc in enumerate(sup.processes):
                st = sup.status[rank]
                if st.exitcode is None and proc.exitcode is not None:
                    st.exitcode = proc.exitcode
            self.last_liveness = sup.liveness_report()

    def liveness_report(self) -> List[Dict[str, Any]]:
        """Live per-rank liveness snapshot of the current (or most
        recent) job."""
        if self._supervisor is None:
            return []
        return self._supervisor.liveness_report()

    @staticmethod
    def _drain_data_queues(job: _MPJob) -> None:
        for q in [*job.data_queues, *job.reply_queues]:
            while True:
                try:
                    msg = q.get_nowait()
                except Exception:
                    break
                if isinstance(msg, tuple) and len(msg) == 5:
                    free_blob(msg[4])

    # -- result assembly ---------------------------------------------------------

    def _assemble(self, sup: Supervisor) -> List[Any]:
        results: List[Any] = [None] * self.n_ranks
        failures: List[Tuple[int, BaseException]] = []
        aborted: List[Tuple[int, None]] = []
        for rank in sorted(sup.results):
            kind, payload = sup.results[rank]
            if kind == "ok":
                results[rank] = shm_loads(payload)
            elif kind == "unpicklable":
                results[rank] = UnpicklableResult(payload)
            elif kind == "error":
                failures.append((rank, payload))
            elif kind == "aborted":
                aborted.append((rank, None))
        self.dead_ranks = sorted(sup.dead)
        deaths = {r: RuntimeError(reason) for r, reason in sup.dead.items()}
        return job_results(
            results, self.elastic, failures, aborted, deaths,
            sup.abort_reason, sup.abort_origin, "process mp-rank-{rank}",
        )
