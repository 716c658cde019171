"""The communicator: MPI call surface over in-process queues.

Semantics follow mpi4py's lowercase (generic-object) API, with numpy
arrays as the intended payload.  Arrays are copied on send so SPMD code
behaves as if ranks had separate address spaces.  Collectives are
implemented on top of point-to-point transfers with realistic message
patterns (binomial trees for bcast/reduce, pairwise exchange for
alltoall), so the traffic log reflects what a real MPI would inject
into the network.

Failure semantics are deadlock-free by construction: every blocking
receive polls the shared abort flag, optionally enforces a timeout
(raising :class:`repro.mpi.faults.CommTimeout`), and registers itself
on a shared *watch board* so the runtime's watchdog can convert a hung
collective into a clean :class:`CommAborted` naming the originating
rank and operation.  The transport never consults a
:class:`repro.mpi.faults.FaultPlan`: the runtime wraps the world
communicator of a job with a plan in a
:class:`repro.mpi.faults.FaultComm`, which applies the rules before
calling in here.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.mpi.backend import (
    CollectiveComm,
    Request,
    StepRecord,
    _copy,
    payload_bytes as _payload_bytes,
)
from repro.mpi.faults import CommTimeout, PeerFailure
from repro.mpi.network import TrafficLog

__all__ = ["Comm", "Request", "CommAborted", "CommTimeout", "PeerFailure"]

_POLL_SECONDS = 0.05

#: put into the queue of a receive whose source died or gave up on the
#: communicator (voted in a consensus round), so the receive sees the
#: failure now, not at its next poll
_WAKE = object()


class CommAborted(RuntimeError):
    """Raised in surviving ranks when another rank failed."""


class _JobControl:
    """Failure-control state shared by *every* communicator of one job.

    Sub-communicators created with ``split`` get their own
    :class:`_CommState` (queues, barrier) but share this object, so an
    abort anywhere reaches ranks blocked in any communicator — including
    barriers of sub-communicators, which are all registered here and
    broken on abort.
    """

    def __init__(
        self,
        recv_timeout: Optional[float] = None,
        elastic: bool = False,
        world_size: Optional[int] = None,
        retry_budget: int = 16,
    ) -> None:
        self.abort_event = threading.Event()
        self.recv_timeout = recv_timeout
        self.retry_budget = int(retry_budget)
        #: world rank -> its StepRecord, shared by all its communicators
        self._records: Dict[int, StepRecord] = {}
        #: watch-board registration is enabled only when a watchdog runs,
        #: keeping the per-receive overhead at a single attribute check.
        self.watching = False
        # RLock: abort()/register_barrier() are reachable from code paths
        # that already hold the lock (consensus, shrunk-state creation)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.abort_reason: Optional[str] = None
        self.abort_origin: Optional[int] = None
        self._blocked: Dict[int, Tuple[str, str, float]] = {}
        #: world rank -> (queue, source world rank) of a blocked receive
        self._wake: Dict[int, Tuple[Any, int]] = {}
        self._barriers: List[threading.Barrier] = []
        # -- elastic recovery state (see repro.mpi.recovery) ------------------
        #: survivable death is opt-in; without it a RankDeath aborts the job
        self.elastic = bool(elastic)
        self.world_size = world_size
        #: world ranks that died (monotonically growing; never resurrected)
        self.dead_ranks: set = set()
        #: current epoch: bumped by each sealed consensus round
        self.epoch = 0
        self._consensus_votes: Dict[int, set] = {}
        self._consensus_result: Dict[int, Tuple[frozenset, Tuple[int, ...]]] = {}
        #: one shared _CommState per post-recovery epoch
        self.epoch_states: Dict[int, "_CommState"] = {}

    def register_barrier(self, barrier: threading.Barrier) -> None:
        with self._lock:
            self._barriers.append(barrier)

    def abort(self, reason: Optional[str] = None, origin: Optional[int] = None) -> None:
        """Abort the job; the first recorded reason/origin wins."""
        with self._lock:
            if self.abort_reason is None and reason is not None:
                self.abort_reason = reason
                self.abort_origin = origin
            barriers = list(self._barriers)
            self._cond.notify_all()
        self.abort_event.set()
        for b in barriers:
            b.abort()

    # -- elastic death tracking ------------------------------------------------

    def mark_dead(self, world_rank: int) -> None:
        """Record a rank death (elastic mode) and wake every blocked rank.

        Unlike :meth:`abort` the job keeps running: barriers are broken
        so survivors blocked in them observe the death *now*, but the
        abort flag stays clear — survivors turn the resulting
        :class:`PeerFailure` into a consensus round instead of dying.
        """
        with self._lock:
            self.dead_ranks.add(int(world_rank))
            barriers = list(self._barriers)
            self._wake_receivers_from(int(world_rank))
            self._cond.notify_all()
        for b in barriers:
            b.abort()

    def _wake_receivers_from(self, world_rank: int) -> None:
        """Wake every rank blocked receiving from ``world_rank``, which
        will send nothing more (caller holds the lock)."""
        for q, source in self._wake.values():
            if source == world_rank:
                q.put(_WAKE)

    def record_of(self, world_rank: int) -> StepRecord:
        with self._lock:
            return self._records.setdefault(world_rank, StepRecord(self.retry_budget))

    def new_dead(self, known: frozenset) -> frozenset:
        """Dead world ranks not in ``known`` (snapshot under the lock)."""
        with self._lock:
            return frozenset(self.dead_ranks - known)

    def gave_up(self, world_rank: int, epoch: int) -> bool:
        """Whether ``world_rank`` died or voted in the recovery round
        that ends ``epoch``: either way it sends nothing more in it."""
        with self._lock:
            return world_rank in self.dead_ranks or world_rank in (
                self._consensus_votes.get(epoch + 1, ())
            )

    # -- survivor consensus ------------------------------------------------------

    def survivor_consensus(
        self, world_rank: int, timeout: float = 30.0
    ) -> Tuple[set, List[int], int]:
        """One ULFM-``agree``-style round: block until every live rank
        has voted, then return the agreed ``(dead set, survivor world
        ranks, new epoch)`` — identical on every caller.

        The round targeting epoch ``current + 1`` seals when the set of
        voters covers every rank not currently marked dead; the sealing
        rank records the result and bumps the epoch, late arrivals read
        the cached result.  A rank that dies mid-round shrinks the
        expected voter set, so the round re-evaluates rather than hangs.
        Expiry of ``timeout`` aborts the whole job (a survivor that
        never joins is indistinguishable from a hang).
        """
        if self.world_size is None:
            raise RuntimeError("survivor consensus needs a job world size")
        deadline = time.monotonic() + timeout
        with self._cond:
            rnd = self.epoch + 1
            votes = self._consensus_votes.setdefault(rnd, set())
            votes.add(int(world_rank))
            self._wake_receivers_from(int(world_rank))
            self._cond.notify_all()
            while True:
                cached = self._consensus_result.get(rnd)
                if cached is not None:
                    dead, survivors = cached
                    return set(dead), list(survivors), rnd
                dead = set(self.dead_ranks)
                expected = set(range(self.world_size)) - dead
                if expected and expected <= votes:
                    survivors = tuple(sorted(expected))
                    self._consensus_result[rnd] = (frozenset(dead), survivors)
                    self.epoch = rnd
                    self._cond.notify_all()
                    return set(dead), list(survivors), rnd
                if self.abort_event.is_set():
                    raise CommAborted(
                        self.abort_reason or "job aborted during survivor consensus"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.abort(
                        reason=(
                            f"survivor consensus for epoch {rnd} timed out "
                            f"after {timeout:.3g}s on rank {world_rank} "
                            f"({len(votes)}/{len(expected)} votes)"
                        ),
                        origin=world_rank,
                    )
                    raise CommAborted(self.abort_reason)
                self._cond.wait(min(remaining, _POLL_SECONDS))

    def shrunk_state(
        self,
        epoch: int,
        survivor_world_ranks: Sequence[int],
        dead: Sequence[int],
        traffic: TrafficLog,
    ) -> "_CommState":
        """Create-or-get the shared communicator state of ``epoch``.

        The first survivor to arrive builds it (fresh queues, fresh
        barrier, ``known_dead`` frozen to the agreed dead set); the rest
        reuse it.  Old-epoch queues are simply abandoned — any straggler
        message parked there is never routed into the new state, and the
        epoch stamp on every message rejects cross-state leaks.
        """
        with self._lock:
            st = self.epoch_states.get(epoch)
            if st is None:
                st = _CommState(
                    len(survivor_world_ranks),
                    list(survivor_world_ranks),
                    traffic,
                    self,
                    epoch=epoch,
                    known_dead=frozenset(dead),
                )
                self.epoch_states[epoch] = st
            return st

    # -- watch board (who is blocked where, for the watchdog) -----------------

    def block(self, world_rank: int, op: str, detail: str, wake=None) -> bool:
        """Register a blocked rank.  In an elastic job ``wake`` is the
        ``(queue, source world rank)`` of a receive: the source's death
        or consensus vote puts a wake token into the queue.  ``True``
        when the caller must :meth:`unblock`."""
        wake = wake if self.elastic else None
        if not self.watching and wake is None:
            return False
        with self._lock:
            if self.watching:
                self._blocked[world_rank] = (op, detail, time.monotonic())
            if wake is not None:
                self._wake[world_rank] = wake
        return True

    def unblock(self, world_rank: int) -> None:
        with self._lock:
            self._blocked.pop(world_rank, None)
            self._wake.pop(world_rank, None)

    def oldest_blocked(self) -> Optional[Tuple[int, str, str, float]]:
        """(world_rank, op, detail, since) of the longest-blocked rank."""
        with self._lock:
            if not self._blocked:
                return None
            rank = min(self._blocked, key=lambda r: self._blocked[r][2])
            op, detail, since = self._blocked[rank]
        return rank, op, detail, since


class _CommState:
    """State shared by all ranks of one communicator."""

    def __init__(
        self,
        size: int,
        world_ranks: Sequence[int],
        traffic: TrafficLog,
        control: _JobControl,
        epoch: int = 0,
        known_dead: frozenset = frozenset(),
    ) -> None:
        self.size = size
        self.world_ranks = list(world_ranks)
        self.traffic = traffic
        self.control = control
        #: epoch stamp carried by every message sent through this state;
        #: receives reject other-epoch stragglers instead of delivering them
        self.epoch = int(epoch)
        #: deaths this state already excludes — only *new* deaths beyond
        #: this set raise PeerFailure on its members
        self.known_dead = frozenset(known_dead)
        #: generations the barrier released (counted by the last arriver)
        self.barrier_passes = 0
        self.barrier = threading.Barrier(size, action=self._barrier_passed)
        control.register_barrier(self.barrier)
        # queues[dst][src]
        self.queues = [
            [_queue.SimpleQueue() for _ in range(size)] for _ in range(size)
        ]
        self.lock = threading.Lock()
        self.split_registry: Dict[Tuple[int, Any], "_CommState"] = {}

    def _barrier_passed(self) -> None:
        self.barrier_passes += 1


class Comm(CollectiveComm):
    """One rank's handle on a communicator (thread backend).

    The collective surface (bcast/reduce/gather/scatter/alltoall/...)
    comes from :class:`repro.mpi.backend.CollectiveComm`; this class
    provides the in-process transport — per-pair queues, the shared
    barrier and the failure-detection machinery.
    """

    def __init__(self, state: _CommState, rank: int) -> None:
        self._state = state
        #: the job-wide control block (one receive deadline for all ranks)
        self._ctl = state.control
        self._rank = rank
        self._world_ranks = state.world_ranks
        self._record = state.control.record_of(self.world_rank)
        self._split_seq = 0
        #: stragglers from another epoch this rank discarded on receive
        self.stale_rejected = 0

    # -- identity -------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._state.size

    @property
    def world_rank(self) -> int:
        """This rank's id in the world communicator (the node id used
        by the network model)."""
        return self._world_ranks[self._rank]

    @property
    def epoch(self) -> int:
        """Recovery epoch of this communicator (0 before any failure)."""
        return self._state.epoch

    # -- failure detection --------------------------------------------------------

    def _check_abort(self, fallback: str = "peer rank failed") -> None:
        ctl = self._ctl
        if ctl.abort_event.is_set():
            raise CommAborted(ctl.abort_reason or fallback)

    def _check_peer_failure(self, source: Optional[int] = None) -> None:
        """Elastic mode: surface deaths this communicator does not
        already exclude as :class:`PeerFailure` (cheap: one attribute
        test on the common path).  A receive passes its ``source``
        (world rank) and fails only once that source died or entered a
        recovery round, so what a late but live source still sends is
        not lost to a death elsewhere."""
        st = self._state
        ctl = self._ctl
        if not ctl.elastic:
            return
        if source is not None and not ctl.gave_up(source, st.epoch):
            return
        delta = ctl.new_dead(st.known_dead)
        if not delta and source is None:
            return
        what = (
            f"peer rank(s) {sorted(delta)} died" if delta
            else f"peer rank {source} entered recovery"
        )
        raise PeerFailure(
            f"rank {self.world_rank}: {what} (epoch {st.epoch})",
            dead_ranks=ctl.new_dead(frozenset()),
            epoch=st.epoch,
        )

    @contextmanager
    def _watched(self, op: str, detail: str, wake=None):
        """Register on the watch board for the watchdog, with a receive's
        ``(queue, source)`` wake entry in an elastic job."""
        ctl = self._ctl
        me_w = self.world_rank
        registered = ctl.block(me_w, op, detail, wake=wake)
        try:
            yield
        finally:
            if registered:
                ctl.unblock(me_w)

    # -- point to point ---------------------------------------------------------

    def _send(self, obj: Any, dest: int, tag: int, sabotage: bool = False) -> None:
        """Copy ``obj`` into ``dest``'s queue (no frames to sabotage)."""
        st = self._state
        st.traffic.record(
            self._world_ranks[self._rank], self._world_ranks[dest],
            _payload_bytes(obj),
        )
        st.queues[dest][self._rank].put((st.epoch, tag, _copy(obj)))

    def recv(self, source: int, tag: int = 0, timeout: Optional[float] = None) -> Any:
        """Blocking receive.

        ``timeout`` (seconds) bounds the wait; ``None`` falls back to
        the job-wide default (``MPIRuntime(recv_timeout=...)``), and a
        job with neither waits until the message arrives or the job
        aborts.  Expiry raises :class:`CommTimeout` naming this rank,
        the awaited source and the enclosing operation — a hung peer
        can therefore never deadlock the caller.  In an elastic job the
        source's death, or its entry into a recovery round, raises
        :class:`PeerFailure` instead of letting the wait run out.
        Messages stamped with another epoch (stragglers of a
        pre-recovery send) are discarded, counted in
        ``self.stale_rejected``.
        """
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        st = self._state
        if timeout is None:
            timeout = self._ctl.recv_timeout
        t0 = time.monotonic()
        deadline = t0 + timeout if timeout is not None else None
        q = st.queues[self._rank][source]
        me_w = self.world_rank
        src_w = self._world_ranks[source]
        op = self._current_op or "recv"
        with self._watched(op, f"from rank {src_w}, tag {tag}", wake=(q, src_w)):
            self._wait_enter()
            try:
                while True:
                    # drain the queue before looking at failure signals:
                    # a message that was already delivered must win over
                    # a concurrent peer-death mark (otherwise a survivor
                    # could spuriously lose e.g. its buddy copy to a
                    # PeerFailure raised while the data sat in its queue)
                    try:
                        item = q.get_nowait()
                    except _queue.Empty:
                        self._check_abort()
                        self._check_peer_failure(src_w)
                        if deadline is not None and time.monotonic() > deadline:
                            raise CommTimeout.of_recv(
                                me_w, op, src_w, tag, timeout, t0, self._record.step
                            )
                        try:
                            item = q.get(timeout=_POLL_SECONDS)
                        except _queue.Empty:
                            continue
                    if item is _WAKE:
                        continue
                    got_epoch, got_tag, payload = item
                    if got_epoch != st.epoch:
                        self.stale_rejected += 1
                        continue
                    if got_tag != tag:
                        raise RuntimeError(
                            f"tag mismatch: expected {tag}, got {got_tag} "
                            f"(rank {self._rank} <- {source})"
                        )
                    return payload
            finally:
                self._wait_exit()

    def _try_recv(self, source: int, tag: int) -> Tuple[bool, Any]:
        """Non-blocking receive probe (backs ``Request.test``)."""
        st = self._state
        q = st.queues[self.rank][source]
        while True:
            try:
                item = q.get_nowait()
            except _queue.Empty:
                return False, None
            if item is _WAKE:
                continue
            got_epoch, got_tag, payload = item
            if got_epoch != st.epoch:
                self.stale_rejected += 1
                continue
            break
        if got_tag != tag:
            raise RuntimeError(
                f"tag mismatch: expected {tag}, got {got_tag}"
            )
        return True, payload

    # -- barriers ----------------------------------------------------------------

    def barrier(self) -> None:
        st = self._state
        passes = st.barrier_passes
        with self._watched(self._current_op or "barrier", ""):
            self._wait_enter()
            try:
                st.barrier.wait()
            except threading.BrokenBarrierError:
                if st.barrier_passes > passes:
                    # every rank arrived before the break (a rank that
                    # left first died before this one woke): it held
                    return
                # elastic death breaks barriers without aborting the
                # job: classify before reporting a (fatal) CommAborted
                self._check_peer_failure()
                raise CommAborted(
                    self._ctl.abort_reason or "barrier broken by failing rank"
                ) from None
            finally:
                self._wait_exit()

    def traffic_phase(self, name: str) -> None:
        """Start a new named traffic phase (collective: all ranks call).

        Bracketed by barriers so no in-flight messages of the previous
        phase leak into the new one.
        """
        self.barrier()
        if self._rank == 0:
            self._state.traffic.begin_phase(name)
        self.barrier()

    # -- communicator management ---------------------------------------------------

    def _make_split_comm(
        self, seq: int, color: int, member_ranks: Sequence[int], new_rank: int
    ) -> "Comm":
        """Split hook: share one :class:`_CommState` per ``(seq,
        color)`` among the member ranks (first to arrive creates it)."""
        st = self._state
        reg_key = (seq, color)
        with st.lock:
            if reg_key not in st.split_registry:
                st.split_registry[reg_key] = _CommState(
                    len(member_ranks),
                    [st.world_ranks[r] for r in member_ranks],
                    st.traffic,
                    st.control,
                    epoch=st.epoch,
                    known_dead=st.known_dead,
                )
            new_state = st.split_registry[reg_key]
        return Comm(new_state, new_rank)

    # -- elastic recovery ----------------------------------------------------------

    def shrink(self, timeout: float = 30.0) -> Tuple["Comm", List[int], int]:
        """One survivor-consensus round; see
        :func:`repro.mpi.recovery.shrink_after_failure` (the public
        entry point) for the contract."""
        st = self._state
        ctl = self._ctl
        if not ctl.elastic:
            raise RuntimeError(
                "shrink_after_failure requires an elastic job "
                "(MPIRuntime(elastic=True))"
            )
        dead, survivors, epoch = ctl.survivor_consensus(
            self.world_rank, timeout=timeout
        )
        if self.world_rank not in survivors:
            # cannot happen for a live caller: the round only seals once
            # every non-dead rank (including us) has voted
            raise PeerFailure(
                f"rank {self.world_rank} was declared dead by consensus",
                dead_ranks=dead,
                epoch=epoch,
            )
        new_state = ctl.shrunk_state(epoch, survivors, dead, st.traffic)
        new_comm = Comm(new_state, survivors.index(self.world_rank))
        newly_dead = sorted(set(dead) - set(st.known_dead))
        return new_comm, newly_dead, epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Comm(rank={self._rank}/{self.size})"
