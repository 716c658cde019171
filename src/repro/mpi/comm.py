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
rank and operation.  A :class:`repro.mpi.faults.FaultPlan` attached to
the job is consulted on every send (drop/delay/corrupt), at every
collective entry (stalls) and at application ``fault_point`` calls
(rank kills).
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
    _copy,
    payload_bytes as _payload_bytes,
)
from repro.mpi.faults import (
    CommTimeout,
    InjectedFault,
    MessageDropped,
    PeerFailure,
    corrupt_payload,
    retry_with_backoff,
)
from repro.mpi.network import TrafficLog

__all__ = ["Comm", "Request", "CommAborted", "CommTimeout", "PeerFailure"]

_POLL_SECONDS = 0.05

#: put into the queue of a receive whose source died or gave up on the
#: communicator (voted in a consensus round), so the receive sees the
#: failure now, not at its next poll
_WAKE = object()

#: retry caps of the "reliable" transport path (per individual call);
#: the per-rank, per-step total is bounded by ``_JobControl.retry_budget``.
_RELIABLE_SEND_RETRIES = 3
_RELIABLE_RECV_RETRIES = 2
_RETRY_BASE_DELAY = 0.002


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
        fault_plan=None,
        recv_timeout: Optional[float] = None,
        elastic: bool = False,
        world_size: Optional[int] = None,
        retry_budget: int = 16,
    ) -> None:
        self.abort_event = threading.Event()
        self.fault_plan = fault_plan
        self.recv_timeout = recv_timeout
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
        self._event_seq: Dict[Any, int] = {}
        # -- elastic recovery state (see repro.mpi.recovery) ------------------
        #: survivable death is opt-in; without it a RankDeath aborts the job
        self.elastic = bool(elastic)
        self.world_size = world_size
        #: world ranks that died (monotonically growing; never resurrected)
        self.dead_ranks: set = set()
        self.dead_errors: Dict[int, BaseException] = {}
        #: current epoch: bumped by each sealed consensus round
        self.epoch = 0
        self._consensus_votes: Dict[int, set] = {}
        self._consensus_result: Dict[int, Tuple[frozenset, Tuple[int, ...]]] = {}
        #: one shared _CommState per post-recovery epoch
        self.epoch_states: Dict[int, "_CommState"] = {}
        #: last step each world rank passed to ``comm.fault_point``
        self.rank_step: Dict[int, int] = {}
        #: per-rank, per-step cap on reliable-path retransmissions
        self.retry_budget = int(retry_budget)
        self._retry_left: Dict[int, Tuple[int, int]] = {}

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

    def mark_dead(self, world_rank: int, exc: BaseException) -> None:
        """Record a rank death (elastic mode) and wake every blocked rank.

        Unlike :meth:`abort` the job keeps running: barriers are broken
        so survivors blocked in them observe the death *now*, but the
        abort flag stays clear — survivors turn the resulting
        :class:`PeerFailure` into a consensus round instead of dying.
        """
        with self._lock:
            self.dead_ranks.add(int(world_rank))
            self.dead_errors[int(world_rank)] = exc
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

    def new_dead(self, known: frozenset) -> frozenset:
        """Dead world ranks not in ``known`` (snapshot under the lock)."""
        with self._lock:
            return frozenset(self.dead_ranks - known)

    def record_step(self, world_rank: int, step: int) -> None:
        with self._lock:
            self.rank_step[world_rank] = int(step)

    def step_of(self, world_rank: int) -> Optional[int]:
        with self._lock:
            return self.rank_step.get(world_rank)

    # -- reliable-path retry budget --------------------------------------------

    def try_consume_retry(self, world_rank: int) -> bool:
        """Take one retransmission from this rank's per-step budget.

        The budget resets whenever the rank's recorded step advances, so
        a long run cannot starve later steps, while a pathological storm
        of injected faults within one step is bounded instead of retried
        forever.  Returns ``False`` when the budget is exhausted.
        """
        with self._lock:
            step = self.rank_step.get(world_rank, -1)
            entry = self._retry_left.get(world_rank)
            left = self.retry_budget if entry is None or entry[0] != step else entry[1]
            if left <= 0:
                return False
            self._retry_left[world_rank] = (step, left - 1)
            return True

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

    def next_event_seq(self, key: Any) -> int:
        """Monotonic per-key sequence counter (fault-event matching)."""
        with self._lock:
            seq = self._event_seq.get(key, 0)
            self._event_seq[key] = seq + 1
        return seq


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

    @property
    def abort_event(self) -> threading.Event:
        return self.control.abort_event

    def abort(self, reason: Optional[str] = None, origin: Optional[int] = None) -> None:
        self.control.abort(reason, origin)


class Comm(CollectiveComm):
    """One rank's handle on a communicator (thread backend).

    The collective surface (bcast/reduce/gather/scatter/alltoall/...)
    comes from :class:`repro.mpi.backend.CollectiveComm`; this class
    provides the in-process transport — per-pair queues, the shared
    barrier, fault injection and the failure-detection machinery.
    """

    def __init__(self, state: _CommState, rank: int) -> None:
        self._state = state
        self._rank = rank
        self._split_seq = 0
        self._current_op: Optional[str] = None
        #: stragglers from another epoch this rank discarded on receive
        self.stale_rejected = 0
        #: cumulative seconds this rank spent blocked in communication
        #: (collectives, barriers, receive waits); straggler detection
        #: subtracts it from wall time to get *work* time — in
        #: lock-step collectives every rank's wall time equals the
        #: straggler's, and only the work/wait split tells them apart
        self._wait_seconds = 0.0
        self._wait_depth = 0
        self._wait_t0 = 0.0

    @property
    def wait_seconds(self) -> float:
        return self._wait_seconds

    def _wait_enter(self) -> None:
        self._wait_depth += 1
        if self._wait_depth == 1:
            self._wait_t0 = time.perf_counter()

    def _wait_exit(self) -> None:
        self._wait_depth -= 1
        if self._wait_depth == 0:
            self._wait_seconds += time.perf_counter() - self._wait_t0

    # -- identity -------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._state.size

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._state.size

    @property
    def world_rank(self) -> int:
        """This rank's id in the world communicator (the node id used
        by the network model)."""
        return self._state.world_ranks[self._rank]

    @property
    def epoch(self) -> int:
        """Recovery epoch of this communicator (0 before any failure)."""
        return self._state.epoch

    @property
    def fault_plan(self):
        """The job's :class:`~repro.mpi.faults.FaultPlan` (None when no
        faults are scheduled).  Application layers consult it for the
        state-corruption rules (``flip_bits`` / ``rot_checkpoint``) that
        fire outside the transport."""
        return self._state.control.fault_plan

    @property
    def recv_timeout(self):
        """The job-wide default receive deadline (seconds, or None)."""
        return self._state.control.recv_timeout

    def set_recv_timeout(self, seconds) -> None:
        """Retune the job-wide default receive deadline at runtime —
        the hook the health layer uses to derive collective deadlines
        from *observed* step times instead of a fixed constant.  The
        control block is shared, so every rank of the job sees the new
        deadline (callers set it collectively with an identical value)."""
        self._state.control.recv_timeout = (
            None if seconds is None else float(seconds)
        )

    # -- fault injection --------------------------------------------------------

    def fault_point(self, step: int) -> None:
        """Application hook: raise :class:`InjectedFault` if the job's
        fault plan kills this rank at ``step``.  A no-op (one attribute
        check) when no plan is attached.

        Also records ``step`` as this rank's current application step —
        the value structured :class:`CommTimeout` errors carry and the
        boundary at which the reliable-path retry budget refills.
        """
        ctl = self._state.control
        ctl.record_step(self.world_rank, step)
        plan = ctl.fault_plan
        if plan is None:
            return
        if plan.should_kill(self.world_rank, step):
            raise InjectedFault(
                f"rank {self.world_rank} killed by fault plan at step {step}"
            )
        self._injected_sleep(plan.slow_delay(self.world_rank, step))

    def _injected_sleep(self, delay: float) -> None:
        """Pay an injected gray-failure delay, staying abortable: the
        rank is *slow*, not wedged — a job abort still frees it."""
        if delay <= 0.0:
            return
        ctl = self._state.control
        deadline = time.monotonic() + delay
        while time.monotonic() < deadline:
            if ctl.abort_event.is_set():
                raise CommAborted(self._abort_reason("peer rank failed"))
            time.sleep(min(_POLL_SECONDS, delay))

    def _check_peer_failure(self) -> None:
        """Elastic mode: surface deaths this communicator does not
        already exclude as :class:`PeerFailure` (cheap: one attribute
        test on the common path)."""
        st = self._state
        ctl = st.control
        if not ctl.elastic:
            return
        delta = ctl.new_dead(st.known_dead)
        if delta:
            raise PeerFailure(
                f"rank {self.world_rank}: peer rank(s) {sorted(delta)} died "
                f"(epoch {st.epoch})",
                dead_ranks=ctl.new_dead(frozenset()),
                epoch=st.epoch,
            )

    def _abort_reason(self, fallback: str) -> str:
        return self._state.control.abort_reason or fallback

    @contextmanager
    def _collective(self, name: str):
        """Label the current collective (for watchdog reports) and apply
        any scheduled stall for this rank at this call."""
        ctl = self._state.control
        prev = self._current_op
        self._current_op = name
        self._wait_enter()
        try:
            plan = ctl.fault_plan
            if plan is not None:
                seq = ctl.next_event_seq(("collective", self.world_rank, name))
                if plan.should_stall(self.world_rank, name, seq):
                    registered = ctl.block(
                        self.world_rank, name, "stalled by fault plan"
                    )
                    try:
                        while not ctl.abort_event.is_set():
                            time.sleep(_POLL_SECONDS)
                    finally:
                        if registered:
                            ctl.unblock(self.world_rank)
                    raise CommAborted(
                        self._abort_reason(f"{name} stalled by fault plan")
                    )
                self._injected_sleep(
                    plan.collective_delay(
                        self.world_rank, name,
                        ctl.step_of(self.world_rank) or 0,
                    )
                )
            yield
        finally:
            self._wait_exit()
            self._current_op = prev

    # -- point to point ---------------------------------------------------------

    def _send_attempt(self, obj: Any, dest: int, tag: int) -> bool:
        """One transmission attempt; returns ``False`` when the fault
        plan dropped the message (the bytes left this rank but never
        arrive)."""
        st = self._state
        ctl = st.control
        src_w = st.world_ranks[self._rank]
        dst_w = st.world_ranks[dest]
        st.traffic.record(src_w, dst_w, _payload_bytes(obj))
        payload = _copy(obj)
        plan = ctl.fault_plan
        if plan is not None:
            drop = False
            delay = 0.0
            for ev in plan.message_events(src_w, dst_w):
                seq = ctl.next_event_seq(("message", id(ev)))
                if not ev.hits(seq, plan.seed, src_w, dst_w):
                    continue
                if ev.kind == "drop":
                    drop = True
                elif ev.kind == "delay":
                    delay += ev.seconds
                elif ev.kind == "corrupt":
                    payload = corrupt_payload(payload, key=ev.key)
            if delay > 0.0:
                deadline = time.monotonic() + delay
                while time.monotonic() < deadline:
                    if ctl.abort_event.is_set():
                        raise CommAborted(self._abort_reason("peer rank failed"))
                    time.sleep(min(_POLL_SECONDS, delay))
            if drop:
                return False
        st.queues[dest][self._rank].put((st.epoch, tag, payload))
        return True

    def send(self, obj: Any, dest: int, tag: int = 0, reliable: bool = False) -> None:
        """Send ``obj`` to ``dest``.

        With ``reliable=True`` the send models transport-level
        retransmission: an injected drop is *observed at the sender*
        (this runtime's stand-in for a missing ack) and the transfer is
        retried with exponential backoff, consuming one unit of the
        job's per-rank, per-step retry budget per retransmission.  Each
        retry consults the fault plan afresh, so a finite drop rule is
        absorbed; a persistent one (or an exhausted budget) raises
        :class:`repro.mpi.faults.MessageDropped`.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        if not reliable:
            self._send_attempt(obj, dest, tag)
            return
        st = self._state
        ctl = st.control
        me_w = st.world_ranks[self._rank]
        dst_w = st.world_ranks[dest]

        def attempt() -> None:
            if not self._send_attempt(obj, dest, tag):
                raise MessageDropped(
                    f"rank {me_w}: send to rank {dst_w} (tag {tag}) dropped "
                    f"by fault plan",
                    rank=me_w,
                    source=dst_w,
                    tag=tag,
                    step=ctl.step_of(me_w),
                    op="send",
                )

        def on_retry(attempt_idx: int, exc: BaseException) -> None:
            if not ctl.try_consume_retry(me_w):
                raise exc  # budget exhausted: surface the drop now

        retry_with_backoff(
            attempt,
            retries=_RELIABLE_SEND_RETRIES,
            base_delay=_RETRY_BASE_DELAY,
            # per-rank, per-step seed: simultaneous drops on N ranks
            # back off on diverging (but reproducible) schedules
            seed=(me_w, max(0, ctl.step_of(me_w) or 0)),
            exceptions=(MessageDropped,),
            on_retry=on_retry,
        )

    def recv(self, source: int, tag: int = 0, timeout: Optional[float] = None) -> Any:
        """Blocking receive.

        ``timeout`` (seconds) bounds the wait; ``None`` falls back to
        the job-wide default (``MPIRuntime(recv_timeout=...)``), and a
        job with neither waits until the message arrives or the job
        aborts.  Expiry raises :class:`CommTimeout` naming this rank,
        the awaited source and the enclosing operation — a hung peer
        can therefore never deadlock the caller.  In an elastic job a
        peer death raises :class:`PeerFailure` instead of letting the
        wait run out.  Messages stamped with another epoch (stragglers
        of a pre-recovery send) are discarded, counted in
        ``self.stale_rejected``.
        """
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        st = self._state
        ctl = st.control
        if timeout is None:
            timeout = ctl.recv_timeout
        t0 = time.monotonic()
        deadline = t0 + timeout if timeout is not None else None
        q = st.queues[self._rank][source]
        me_w = st.world_ranks[self._rank]
        src_w = st.world_ranks[source]
        op = self._current_op or "recv"
        registered = ctl.block(
            me_w, op, f"from rank {src_w}, tag {tag}", wake=(q, src_w)
        )
        self._wait_enter()
        try:
            while True:
                # drain the queue before looking at failure signals: a
                # message that was already delivered must win over a
                # concurrent peer-death mark (otherwise a survivor could
                # spuriously lose e.g. its buddy copy to a PeerFailure
                # raised while the data sat in its queue)
                try:
                    item = q.get_nowait()
                except _queue.Empty:
                    if ctl.abort_event.is_set():
                        raise CommAborted(self._abort_reason("peer rank failed"))
                    self._check_peer_failure()
                    if deadline is not None and time.monotonic() > deadline:
                        elapsed = time.monotonic() - t0
                        raise CommTimeout(
                            f"rank {me_w}: {op} from rank {src_w} (tag {tag}) "
                            f"timed out after {timeout:.3g}s",
                            rank=me_w,
                            source=src_w,
                            tag=tag,
                            step=ctl.step_of(me_w),
                            elapsed=elapsed,
                            op=op,
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
            if registered:
                ctl.unblock(me_w)

    def _recv_reliable(self, source: int, tag: int = 0) -> Any:
        """Receive with timeout-absorbing retries (the delay-fault
        counterpart of ``send(reliable=True)``): each expired wait costs
        one unit of the per-step retry budget and re-enters the wait, so
        a transiently delayed message is delivered instead of failing
        the step."""
        ctl = self._state.control
        me_w = self.world_rank

        def on_retry(attempt_idx: int, exc: BaseException) -> None:
            if not ctl.try_consume_retry(me_w):
                raise exc

        return retry_with_backoff(
            lambda: self.recv(source, tag=tag),
            retries=_RELIABLE_RECV_RETRIES,
            base_delay=0.0,
            exceptions=(CommTimeout,),
            on_retry=on_retry,
        )

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
        ctl = self._state.control
        me_w = self.world_rank
        registered = ctl.block(me_w, self._current_op or "barrier", "")
        self._wait_enter()
        st = self._state
        passes = st.barrier_passes
        try:
            st.barrier.wait()
        except threading.BrokenBarrierError:
            if st.barrier_passes > passes:
                # every rank arrived before the break (a rank that left
                # first died before this one woke): the barrier held
                return
            # elastic death breaks barriers without aborting the job:
            # classify before reporting a (fatal) CommAborted
            self._check_peer_failure()
            raise CommAborted(
                self._abort_reason("barrier broken by failing rank")
            ) from None
        finally:
            self._wait_exit()
            if registered:
                ctl.unblock(me_w)

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
        ctl = st.control
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
