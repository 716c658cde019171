"""Deterministic fault injection for the SPMD runtime.

Production campaigns like the paper's month-long 24576-node run survive
because the code's failure paths work: a killed process must not corrupt
the checkpoint set, and a hung collective must surface as an error
instead of wedging the job.  This module provides a :class:`FaultPlan`
— a declarative, seedable schedule of failures — and the
:class:`FaultComm` that applies it.  A launcher given a plan wraps each
rank's world communicator in a :class:`FaultComm`, on every backend;
the transports never consult the plan.  The rules fire at well-defined
points:

* **rank kills** — ``kill_rank(rank, step)`` makes that rank raise
  :class:`InjectedFault` at its next ``comm.fault_point(step)``;
* **message faults** — ``drop_messages`` / ``delay_messages`` /
  ``corrupt_messages`` act on point-to-point sends matching a
  ``(src, dst)`` filter, by match index (``nth``/``count``) or with a
  seeded Bernoulli ``probability``;
* **stalled collectives** — ``stall_collective(op, rank)`` makes that
  rank hang inside the named collective until the job aborts, which is
  what the runtime's watchdog is for.

Every decision is a pure function of the plan and a per-event sequence
number, so a plan with pinned ``src``/``dst`` filters reproduces the
same failures run after run (wildcard filters match in cross-thread
arrival order, which is scheduler-dependent).  The sequence counters
live on the plan instance: the thread backend's ranks share one, so
counts are job-wide there; each multiprocess worker holds its own copy,
so counts are per process.
"""

from __future__ import annotations

import errno
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.mpi.backend import CollectiveComm

__all__ = [
    "FaultPlan",
    "FaultComm",
    "RankDeath",
    "InjectedFault",
    "CommTimeout",
    "MessageDropped",
    "PeerFailure",
    "backoff_delays",
    "retry_with_backoff",
    "flip_array_bits",
    "flip_file_bits",
    "apply_scheduled_flips",
]


class RankDeath(RuntimeError):
    """A rank is dead and will never execute another statement.

    Under ``MPIRuntime(elastic=True)`` a death is *survivable*: the
    runtime marks the rank dead instead of aborting the job, and the
    surviving ranks observe a :class:`PeerFailure` from their next
    blocking operation.  In a non-elastic job it is an ordinary fatal
    rank failure.  Applications may raise it deliberately to simulate a
    node loss; the fault plan's :class:`InjectedFault` subclasses it.
    """


class InjectedFault(RankDeath):
    """Raised on a rank killed by a :class:`FaultPlan` schedule."""


class CommTimeout(RuntimeError):
    """A blocking receive exceeded its timeout (deadlock-free failure).

    Unlike :class:`repro.mpi.comm.CommAborted` (a *secondary* casualty
    of some other rank's failure), a timeout is a primary failure of the
    rank that was waiting, and is reported as such by the runtime.

    Structured fields (all ``None`` when unknown) let recovery code and
    test assertions dispatch without parsing the message string:

    ``rank``
        World rank of the waiting (failing) rank.
    ``source``
        World rank of the peer that never delivered.
    ``tag``
        Message tag of the expected transfer.
    ``step``
        Application step (the last ``comm.fault_point(step)`` value
        this rank passed), if the application reports steps.
    ``elapsed``
        Seconds actually spent waiting when the timeout fired.
    ``op``
        The enclosing operation label (``"recv"``, ``"alltoall"``, ...).
    """

    def __init__(
        self,
        message: str,
        *,
        rank: Optional[int] = None,
        source: Optional[int] = None,
        tag: Optional[int] = None,
        step: Optional[int] = None,
        elapsed: Optional[float] = None,
        op: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.source = source
        self.tag = tag
        self.step = step
        self.elapsed = elapsed
        self.op = op

    @classmethod
    def of_recv(cls, rank, op, source, tag, timeout, t0, step) -> "CommTimeout":
        """The timeout of a receive (``op``) from ``source`` that began
        at ``t0`` (``time.monotonic()``) and outlived ``timeout``."""
        return cls(
            f"rank {rank}: {op} from rank {source} (tag {tag}) "
            f"timed out after {timeout:.3g}s",
            rank=rank,
            source=source,
            tag=tag if isinstance(tag, int) else None,
            step=step,
            elapsed=time.monotonic() - t0,
            op=op,
        )


class MessageDropped(CommTimeout):
    """A reliable send exhausted its retry budget against injected drops.

    Subclasses :class:`CommTimeout` because at the application level a
    lost message and an expired wait are the same failure shape: the
    data never made it, and the same recovery path (elastic rollback or
    job abort) applies.
    """


class PeerFailure(RuntimeError):
    """A peer rank died while this rank was communicating with it.

    Raised (elastic mode only) from blocking receives, barriers and
    collectives when the shared dead-set gained members this
    communicator does not already exclude.  Carries the world ranks of
    *all* known-dead peers at detection time — the input to the
    survivor-consensus round in :mod:`repro.mpi.recovery`.
    """

    def __init__(self, message: str, dead_ranks=(), epoch: Optional[int] = None) -> None:
        super().__init__(message)
        self.dead_ranks = frozenset(int(r) for r in dead_ranks)
        self.epoch = epoch


@dataclass(frozen=True)
class _MessageFault:
    """One message-level fault rule (internal)."""

    kind: str  # "drop" | "delay" | "corrupt"
    src: Optional[int]
    dst: Optional[int]
    nth: int
    count: int
    seconds: float
    probability: float
    key: Optional[str] = None  # corrupt only this entry of dict payloads

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )

    def hits(self, seq: int, seed: int, src: int, dst: int) -> bool:
        """Does the seq-th matching message trigger this fault?"""
        if not self.nth <= seq < self.nth + self.count:
            return False
        if self.probability >= 1.0:
            return True
        draw = np.random.default_rng((seed, self.nth, src, dst, seq)).random()
        return bool(draw < self.probability)


@dataclass(frozen=True)
class _KillFault:
    rank: int
    step: int
    #: ``None`` — backend default (thread: raise InjectedFault;
    #: multiprocess: SIGKILL the worker process).  ``True`` — demand a
    #: real OS-level kill (backends without real processes fall back to
    #: the raise).  ``False`` — always the in-rank raise, even where a
    #: real kill is possible.
    real: Optional[bool] = None


@dataclass(frozen=True)
class _StallFault:
    op: str
    rank: int
    nth: int


@dataclass(frozen=True)
class _FlipFault:
    """One scheduled in-memory bit flip (silent data corruption)."""

    rank: int
    array: str
    step: int
    nbits: int = 1
    #: which copy of the array to damage: ``"live"`` (the working
    #: particle arrays), ``"self_copy"`` (the owner's frozen rollback
    #: snapshot) or ``"peer_copy"`` (the buddy's replica of the
    #: predecessor's block)
    target: str = "self_copy"


@dataclass(frozen=True)
class _RotFault:
    """One scheduled on-disk bit-rot event against a checkpoint file."""

    rank: int
    step: int
    nbits: int = 1


@dataclass(frozen=True)
class _SlowFault:
    """A gray failure: the rank is alive but runs at ``1/factor`` speed."""

    rank: int
    factor: float
    start_step: int
    #: steps affected; 0 = until the run ends
    duration: int
    #: nominal healthy step seconds the factor stretches
    base: float

    def active(self, step: int) -> bool:
        if step < self.start_step:
            return False
        return self.duration <= 0 or step < self.start_step + self.duration


@dataclass(frozen=True)
class _DegradeFault:
    """A degraded collective: every matching call pays ``seconds``."""

    op: str  # collective name, "*" = any
    seconds: float
    rank: Optional[int]  # None = every rank
    start_step: int
    duration: int  # steps affected; 0 = until the run ends

    def active(self, rank: int, op: str, step: int) -> bool:
        if self.rank is not None and self.rank != rank:
            return False
        if self.op not in ("*", op):
            return False
        if step < self.start_step:
            return False
        return self.duration <= 0 or step < self.start_step + self.duration


@dataclass(frozen=True)
class _DiskFullFault:
    """The filesystem fills up after ``after_bytes`` further writes."""

    path: str  # substring filter on the target path ("" = any)
    after_bytes: int
    rank: Optional[int]  # None = every rank


class FaultPlan:
    """A declarative, reproducible schedule of injected failures.

    Builder methods return ``self`` so plans read as one chained
    expression::

        plan = (FaultPlan(seed=7)
                .kill_rank(1, step=2)
                .drop_messages(src=0, dst=1, nth=0)
                .stall_collective("bcast", rank=3))

    Pass the plan to :class:`repro.mpi.runtime.MPIRuntime`; ranks and
    steps refer to *world* ranks and whatever step indices the
    application passes to ``comm.fault_point``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._kills: List[_KillFault] = []
        self._messages: List[_MessageFault] = []
        self._stalls: List[_StallFault] = []
        self._flips: List[_FlipFault] = []
        self._rots: List[_RotFault] = []
        self._slows: List[_SlowFault] = []
        self._degrades: List[_DegradeFault] = []
        self._disk_fulls: List[_DiskFullFault] = []
        #: cumulative bytes written against each disk_full rule, keyed
        #: ``(rule index, rank)``
        self._disk_written: Dict[Tuple[int, int], int] = {}
        # one-shot bookkeeping for state faults: a rollback replays the
        # step indices the faults are keyed on, and a cosmic ray does
        # not strike twice just because the application re-executed
        self._fired: set = set()
        #: per-key event counters of the message and stall rules
        self._seq: Dict[Any, int] = {}
        self._seq_lock = threading.Lock()

    def __getstate__(self):
        # a spawned worker gets the plan pickled; the lock is recreated
        return {k: v for k, v in self.__dict__.items() if k != "_seq_lock"}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state, _seq_lock=threading.Lock())

    # -- builders ---------------------------------------------------------------

    def kill_rank(
        self, rank: int, step: int, real: Optional[bool] = None
    ) -> "FaultPlan":
        """Kill ``rank`` when it reaches ``comm.fault_point(step)``.

        ``real`` selects *how* the rank dies on backends with real OS
        processes: ``None`` uses the backend default (the multiprocess
        backend SIGKILLs the worker — no cleanup, no goodbye message —
        while the thread backend raises :class:`InjectedFault`);
        ``True`` demands the SIGKILL where possible; ``False`` forces
        the in-rank raise everywhere (the death is then *announced* to
        the supervisor instead of being discovered by liveness
        monitoring).
        """
        self._kills.append(_KillFault(int(rank), int(step), real))
        return self

    def _add_message(
        self,
        kind: str,
        src: Optional[int],
        dst: Optional[int],
        nth: int,
        count: int,
        seconds: float,
        probability: float,
        key: Optional[str] = None,
    ) -> "FaultPlan":
        if count < 1:
            raise ValueError("count must be >= 1")
        if nth < 0:
            raise ValueError("nth must be >= 0")
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self._messages.append(
            _MessageFault(
                kind, src, dst, int(nth), int(count), seconds, probability,
                None if key is None else str(key),
            )
        )
        return self

    def drop_messages(
        self,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        nth: int = 0,
        count: int = 1,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Silently lose matching messages (the receiver never sees them;
        recover via receive timeouts / the watchdog)."""
        return self._add_message("drop", src, dst, nth, count, 0.0, probability)

    def delay_messages(
        self,
        seconds: float,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        nth: int = 0,
        count: int = 1,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Hold matching messages for ``seconds`` before delivery."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        return self._add_message("delay", src, dst, nth, count, seconds, probability)

    def corrupt_messages(
        self,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        nth: int = 0,
        count: int = 1,
        probability: float = 1.0,
        key: Optional[str] = None,
    ) -> "FaultPlan":
        """Flip bits in matching payloads (arrays get every byte of
        their first element inverted; other objects are replaced by a
        marker string).  With ``key``, dict payloads have only that
        entry damaged — the shape of realistic silent data corruption,
        where a flipped bit garbles one field of a structured message
        without making the message undeliverable."""
        return self._add_message(
            "corrupt", src, dst, nth, count, 0.0, probability, key
        )

    def flip_bits(
        self,
        rank: int,
        array: str,
        step: int,
        nbits: int = 1,
        target: str = "self_copy",
    ) -> "FaultPlan":
        """Flip ``nbits`` random bits of ``array`` on ``rank`` at
        ``step`` — the canonical silent-data-corruption event (a cosmic
        ray in DRAM flips a mantissa bit; nothing crashes, nothing logs).

        ``target`` picks which copy is damaged: ``"self_copy"`` (the
        newest rank file the rank froze in its :class:`BuddyStore` —
        that of boundary ``step`` when one was frozen there — detected
        and healed in place by the SDC snapshot audit),
        ``"peer_copy"`` (the buddy replica it holds for its ring
        predecessor — attributed to the buddy and re-replicated), or
        ``"live"`` (the working particle arrays; flips in conserved
        arrays like ``ids``/``mass`` are caught by the fingerprint
        audit and healed by a boundary rollback).  Bit positions are a
        pure function of ``(plan seed, rank, array, step)``.
        """
        if nbits < 1:
            raise ValueError("nbits must be >= 1")
        if target not in ("live", "self_copy", "peer_copy"):
            raise ValueError(f"unknown flip target {target!r}")
        self._flips.append(
            _FlipFault(int(rank), str(array), int(step), int(nbits), target)
        )
        return self

    def corrupt_shm(
        self,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        nth: int = 0,
        count: int = 1,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Flip bits inside the SharedMemory frame of a matching
        multiprocess message *after* its CRC32 was computed — transport
        corruption the receiver must catch by checksum, not by
        structure.  The receiver discards the mangled frame (logged as
        transport corruption), so the message is effectively lost and
        the usual timeout/rollback machinery takes over.  On backends
        without SharedMemory transport the rule is inert.
        """
        return self._add_message("corrupt_shm", src, dst, nth, count, 0.0, probability)

    def rot_checkpoint(self, rank: int, step: int, nbits: int = 1) -> "FaultPlan":
        """Flip ``nbits`` bits of ``rank``'s on-disk checkpoint file for
        the epoch written at ``step`` — bit-rot at rest.  Detected by
        manifest digest verification (``repro ckpt scrub``, checkpoint
        validation on restore); recovery skips to the newest epoch that
        still verifies.
        """
        if nbits < 1:
            raise ValueError("nbits must be >= 1")
        self._rots.append(_RotFault(int(rank), int(step), int(nbits)))
        return self

    def slow_rank(
        self,
        rank: int,
        factor: float,
        duration: int = 0,
        start_step: int = 0,
        base: float = 0.05,
    ) -> "FaultPlan":
        """Make ``rank`` a *straggler*: alive, beating, answering — but
        running at roughly ``1/factor`` speed for ``duration`` steps
        starting at ``start_step`` (``duration=0`` = until the run
        ends).  The canonical gray failure: a thermally-throttled CPU, a
        neighbour saturating the memory bus, a swapping node.

        Implemented as a deterministic per-step delay of
        ``(factor - 1) * base`` seconds at the rank's ``fault_point``
        (``base`` is the nominal healthy step time the factor
        stretches).  Each ``(rule, step)`` fires exactly once — a
        rollback replaying the step does not pay the delay twice.
        """
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        if base <= 0.0:
            raise ValueError("base must be > 0")
        self._slows.append(
            _SlowFault(int(rank), float(factor), int(start_step), int(duration), float(base))
        )
        return self

    def degrade_collective(
        self,
        op: str,
        delay: float,
        rank: Optional[int] = None,
        start_step: int = 0,
        duration: int = 0,
    ) -> "FaultPlan":
        """Degrade collective ``op`` (``"*"`` = any): every matching
        call on ``rank`` (None = all ranks) pays ``delay`` extra seconds
        while active — a congested link or oversubscribed switch, not a
        wedge.  One-shot per ``(rule, rank, op, step)``, so a replayed
        step pays the toll once."""
        if delay < 0.0:
            raise ValueError("delay must be >= 0")
        self._degrades.append(
            _DegradeFault(
                str(op), float(delay),
                None if rank is None else int(rank),
                int(start_step), int(duration),
            )
        )
        return self

    def disk_full(
        self, path: str = "", after_bytes: int = 0, rank: Optional[int] = None
    ) -> "FaultPlan":
        """Fill the disk under the checkpoint writer: after
        ``after_bytes`` further bytes are written to paths containing
        ``path`` (``""`` = any path) on ``rank`` (None = all ranks), the
        next write raises ``OSError(ENOSPC)`` — exactly once per rule
        and rank, like a transient full filesystem later cleared by
        retention pruning.  Consulted by the checkpoint write path via
        :meth:`check_disk`."""
        if after_bytes < 0:
            raise ValueError("after_bytes must be >= 0")
        self._disk_fulls.append(
            _DiskFullFault(str(path), int(after_bytes), None if rank is None else int(rank))
        )
        return self

    def stall_collective(self, op: str, rank: int, nth: int = 0) -> "FaultPlan":
        """Hang ``rank`` inside its ``nth``-th call of collective ``op``
        (``"bcast"``, ``"reduce"``, ``"gather"``, ...) until the job
        aborts.  Pair with the runtime's ``watchdog_timeout`` so the
        hang is converted into a clean abort."""
        self._stalls.append(_StallFault(str(op), int(rank), int(nth)))
        return self

    # -- queries (used by FaultComm and the application layers) ------------------

    def next_seq(self, key: Any) -> int:
        """The next value of the event counter ``key`` (0, 1, 2, ...):
        the sequence number a message or stall rule is matched on."""
        with self._seq_lock:
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
        return seq

    def kill_action(self, rank: int, step: int) -> Optional[_KillFault]:
        """The kill rule hitting ``rank`` at ``step`` (None if none);
        its ``.real`` picks raise-vs-SIGKILL on backends with real
        processes."""
        for k in self._kills:
            if k.rank == rank and k.step == step:
                return k
        return None

    def message_events(self, src: int, dst: int) -> List[_MessageFault]:
        """All message rules whose filter matches ``src -> dst``."""
        return [ev for ev in self._messages if ev.matches(src, dst)]

    def should_stall(self, rank: int, op: str, seq: int) -> bool:
        return any(
            s.rank == rank and s.op == op and s.nth == seq for s in self._stalls
        )

    def flip_events(self, rank: int, step: int, target: Optional[str] = None) -> List[_FlipFault]:
        """Bit-flip rules hitting ``rank`` at ``step`` (optionally only
        those aimed at one ``target`` copy)."""
        return [
            f
            for f in self._flips
            if f.rank == rank and f.step == step
            and (target is None or f.target == target)
        ]

    def rot_events(self, rank: int, step: int) -> List[_RotFault]:
        """Checkpoint bit-rot rules hitting ``rank``'s epoch at ``step``."""
        return [r for r in self._rots if r.rank == rank and r.step == step]

    def slow_delay(self, rank: int, step: int) -> float:
        """Total injected straggler delay for ``rank`` at ``step``
        (0.0 when no ``slow_rank`` rule is active).  One-shot per
        ``(rule, step)``: a rollback replaying the step pays nothing."""
        total = 0.0
        for idx, ev in enumerate(self._slows):
            if ev.rank != rank or not ev.active(step):
                continue
            if self.fire_once(("slow", idx, rank, step)):
                total += (ev.factor - 1.0) * ev.base
        return total

    def collective_delay(self, rank: int, op: str, step: int) -> float:
        """Total injected degradation delay for ``rank``'s collective
        ``op`` at ``step`` (0.0 when no rule is active).  One-shot per
        ``(rule, rank, op, step)``."""
        total = 0.0
        for idx, ev in enumerate(self._degrades):
            if not ev.active(rank, op, step):
                continue
            if self.fire_once(("degrade", idx, rank, op, step)):
                total += ev.seconds
        return total

    def check_disk(self, rank: int, path, nbytes: int) -> None:
        """Account ``nbytes`` about to be written to ``path`` on
        ``rank`` against every matching ``disk_full`` rule; raise
        ``OSError(ENOSPC)`` the first time a rule's byte budget is
        exhausted (once per rule and rank — the failure is transient,
        like a filesystem later cleared by pruning)."""
        for idx, ev in enumerate(self._disk_fulls):
            if ev.rank is not None and ev.rank != rank:
                continue
            if ev.path and ev.path not in str(path):
                continue
            written = self._disk_written.get((idx, rank), 0) + int(nbytes)
            self._disk_written[(idx, rank)] = written
            if written > ev.after_bytes and self.fire_once(("disk_full", idx, rank)):
                raise OSError(
                    errno.ENOSPC,
                    f"injected disk_full: {written} bytes written against a "
                    f"budget of {ev.after_bytes}",
                    str(path),
                )

    def fire_once(self, key) -> bool:
        """True exactly once per ``key`` — the guard that keeps a
        state fault (flip / rot) from re-striking when a rollback
        replays the step it was keyed on.  Keys include the rank, so
        concurrent rank threads never contend for the same entry."""
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    @property
    def empty(self) -> bool:
        return not (
            self._kills or self._messages or self._stalls
            or self._flips or self._rots
            or self._slows or self._degrades or self._disk_fulls
        )

    def describe(self) -> str:
        """Human-readable summary of the scheduled faults."""
        lines = [f"FaultPlan(seed={self.seed})"]
        for k in self._kills:
            how = "" if k.real is None else (" [real]" if k.real else " [raise]")
            lines.append(f"  kill rank {k.rank} at step {k.step}{how}")
        for m in self._messages:
            where = f"{'any' if m.src is None else m.src}->" \
                    f"{'any' if m.dst is None else m.dst}"
            extra = f", {m.seconds}s" if m.kind == "delay" else ""
            prob = f", p={m.probability}" if m.probability < 1.0 else ""
            field = f", key={m.key!r}" if m.key is not None else ""
            lines.append(
                f"  {m.kind} {where} messages "
                f"[{m.nth}, {m.nth + m.count}){extra}{prob}{field}"
            )
        for s in self._stalls:
            lines.append(f"  stall {s.op} #{s.nth} on rank {s.rank}")
        for f in self._flips:
            lines.append(
                f"  flip {f.nbits} bit(s) of {f.array!r} ({f.target}) "
                f"on rank {f.rank} at step {f.step}"
            )
        for r in self._rots:
            lines.append(
                f"  rot {r.nbits} bit(s) of rank {r.rank}'s checkpoint "
                f"at step {r.step}"
            )
        for sl in self._slows:
            until = "end" if sl.duration <= 0 else sl.start_step + sl.duration
            lines.append(
                f"  slow rank {sl.rank} x{sl.factor:g} over steps "
                f"[{sl.start_step}, {until})"
            )
        for d in self._degrades:
            who = "any rank" if d.rank is None else f"rank {d.rank}"
            until = "end" if d.duration <= 0 else d.start_step + d.duration
            lines.append(
                f"  degrade {d.op} on {who} by {d.seconds}s over steps "
                f"[{d.start_step}, {until})"
            )
        for df in self._disk_fulls:
            who = "any rank" if df.rank is None else f"rank {df.rank}"
            where = f" under {df.path!r}" if df.path else ""
            lines.append(
                f"  disk full on {who} after {df.after_bytes} bytes{where}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


def corrupt_payload(obj: Any, key: Optional[str] = None) -> Any:
    """Deterministically damage a message payload (first element's
    bytes inverted for arrays; non-array objects become a marker
    string).

    With ``key``, a dict payload has only ``obj[key]`` damaged (the
    message stays structurally valid, its data silently wrong); dicts
    missing the key — and non-dict payloads — pass through untouched,
    so a keyed rule targets exactly one kind of structured message.
    """
    if key is not None:
        target = obj.get(key) if isinstance(obj, dict) else None
        if isinstance(target, np.ndarray) and target.size:
            out = dict(obj)
            out[key] = corrupt_payload(target)
            return out
        return obj
    if isinstance(obj, np.ndarray) and obj.size:
        raw = bytearray(obj.tobytes())
        span = max(obj.itemsize, 1)
        for i in range(min(span, len(raw))):
            raw[i] ^= 0xFF
        return np.frombuffer(bytes(raw), dtype=obj.dtype).reshape(obj.shape).copy()
    return "<corrupted payload>"


#: seconds between abort checks of an injected delay or stall
_POLL_SECONDS = 0.02

#: retransmissions of one reliable send; the per-rank, per-step total
#: is bounded by the job's retry budget
_RELIABLE_SEND_RETRIES = 3
_RETRY_BASE_DELAY = 0.002


class FaultComm(CollectiveComm):
    """Wraps any backend's communicator and applies a :class:`FaultPlan`.

    Message rules act on each send before it reaches the wrapped
    transport, stall and degrade rules at collective entry, kill and
    slow rules at ``fault_point``; the collectives run here, so their
    messages meet the rules too.  What cannot be done from outside the
    transport goes through the wrapped comm's two fault hooks, ``_die``
    and ``_shm_frames`` with ``_send(..., sabotage=True)``.  ``split``
    and ``shrink`` return wrapped comms; everything else is the wrapped
    comm's.
    """

    def __init__(self, inner: CollectiveComm, plan: FaultPlan) -> None:
        self._inner = inner
        #: also read by the application layers' state rules
        self.fault_plan = plan

    def __getattr__(self, name: str):
        # recv, barrier, identity and backend extras (shm_created,
        # traffic, stale_rejected, ...) are the wrapped comm's
        if name == "_inner":  # not set yet: no recursion
            raise AttributeError(name)
        return getattr(self._inner, name)

    @property
    def wait_seconds(self) -> float:
        return self._inner.wait_seconds

    def _sleep(self, seconds: Optional[float], fallback: str = "peer rank failed") -> None:
        """Pay an injected delay (``None``: until the job aborts),
        staying abortable — the rank is slow, not wedged."""
        if seconds is not None and seconds <= 0.0:
            return
        deadline = None if seconds is None else time.monotonic() + seconds
        poll = _POLL_SECONDS if seconds is None else min(_POLL_SECONDS, seconds)
        while deadline is None or time.monotonic() < deadline:
            self._inner._check_abort(fallback)
            time.sleep(poll)

    def fault_point(self, step: int) -> None:
        inner, plan = self._inner, self.fault_plan
        inner.fault_point(step)
        me = inner.world_rank
        kill = plan.kill_action(me, step)
        if kill is not None:
            inner._die(kill.real)
            raise InjectedFault(f"rank {me} killed by fault plan at step {step}")
        self._sleep(plan.slow_delay(me, step))

    @contextmanager
    def _collective(self, name: str):
        inner, plan = self._inner, self.fault_plan
        me = inner.world_rank
        with inner._collective(name):
            if plan.should_stall(me, name, plan.next_seq(("collective", me, name))):
                with inner._watched(name, "stalled by fault plan"):
                    self._sleep(None, f"{name} stalled by fault plan")
            self._sleep(plan.collective_delay(me, name, inner._record.step or 0))
            yield

    def _send(self, obj: Any, dest: int, tag: Any) -> bool:
        """One transmission through the message rules; ``False`` when a
        drop rule lost it before the transport (and its traffic log)."""
        inner, plan = self._inner, self.fault_plan
        src_w, dst_w = inner.world_rank, inner._world_ranks[dest]
        drop, delay, sabotage = False, 0.0, False
        for ev in plan.message_events(src_w, dst_w):
            if ev.kind == "corrupt_shm" and not inner._shm_frames(obj):
                # the rule counts shared-memory frames: a message that
                # carries none must not take a slot of its window
                continue
            if not ev.hits(plan.next_seq(("message", id(ev))), plan.seed, src_w, dst_w):
                continue
            if ev.kind == "drop":
                drop = True
            elif ev.kind == "delay":
                delay += ev.seconds
            elif ev.kind == "corrupt":
                obj = corrupt_payload(obj, key=ev.key)
            else:  # corrupt_shm
                sabotage = True
        self._sleep(delay)
        if drop:
            return False
        inner._send(obj, dest, tag, sabotage=sabotage)
        return True

    def send(self, obj: Any, dest: int, tag: Any = 0, reliable: bool = False) -> None:
        """With ``reliable=True`` a drop is *observed at the sender* (a
        missing ack) and retried with backoff, each retry meeting the
        rules afresh and costing one unit of the per-step retry budget;
        a persistent drop rule or an exhausted budget raises
        :class:`MessageDropped`."""
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        if not reliable:
            self._send(obj, dest, tag)
            return
        record = self._inner._record
        me_w, dst_w = self.world_rank, self._inner._world_ranks[dest]

        def attempt() -> None:
            if not self._send(obj, dest, tag):
                raise MessageDropped(
                    f"rank {me_w}: send to rank {dst_w} (tag {tag}) dropped "
                    f"by fault plan",
                    rank=me_w,
                    source=dst_w,
                    tag=tag if isinstance(tag, int) else None,
                    step=record.step,
                    op="send",
                )

        def on_retry(attempt_idx: int, exc: BaseException) -> None:
            if not record.try_consume_retry():
                raise exc  # budget exhausted: surface the drop now

        retry_with_backoff(
            attempt,
            retries=_RELIABLE_SEND_RETRIES,
            base_delay=_RETRY_BASE_DELAY,
            # per-rank, per-step seed: simultaneous drops on N ranks
            # back off on diverging (but reproducible) schedules
            seed=(me_w, max(0, record.step or 0)),
            exceptions=(MessageDropped,),
            on_retry=on_retry,
        )

    def _make_split_comm(self, seq: int, color: int, member_ranks, new_rank: int):
        sub = self._inner._make_split_comm(seq, color, member_ranks, new_rank)
        return FaultComm(sub, self.fault_plan)

    def shrink(self, timeout: float = 30.0):
        new_comm, newly_dead, epoch = self._inner.shrink(timeout=timeout)
        return FaultComm(new_comm, self.fault_plan), newly_dead, epoch


def flip_array_bits(arr: np.ndarray, nbits: int = 1, seed: int = 0) -> List[int]:
    """Flip ``nbits`` deterministically-chosen bits of ``arr`` in place.

    Bit positions are drawn without replacement from a generator seeded
    with ``seed``, so the same call damages the same bits run after run.
    Returns the flipped global bit indices (empty for zero-size arrays —
    there is nothing to corrupt).  The array must own contiguous memory
    (the working particle arrays and snapshot copies all do).
    """
    if nbits < 1:
        raise ValueError("nbits must be >= 1")
    if arr.size == 0:
        return []
    if not arr.flags.c_contiguous:
        raise ValueError("can only flip bits of C-contiguous arrays in place")
    raw = arr.view(np.uint8).reshape(-1)
    total_bits = raw.size * 8
    rng = np.random.default_rng(seed)
    chosen = rng.choice(total_bits, size=min(nbits, total_bits), replace=False)
    for bit in chosen:
        raw[int(bit) // 8] ^= np.uint8(1 << (int(bit) % 8))
    return sorted(int(b) for b in chosen)


def flip_file_bits(path, nbits: int = 1, seed: int = 0) -> List[int]:
    """Flip ``nbits`` deterministically-chosen bits of the file at
    ``path`` in place (on-disk bit-rot; the bits
    :func:`flip_array_bits` picks for the file's bytes).  Returns the
    flipped global bit indices (empty for an empty file)."""
    with open(path, "r+b") as fh:
        data = np.frombuffer(fh.read(), dtype=np.uint8).copy()
        flipped = flip_array_bits(data, nbits, seed=seed)
        fh.seek(0)
        fh.write(data.tobytes())
    return flipped


def apply_scheduled_flips(
    plan: Optional["FaultPlan"],
    rank: int,
    step: int,
    arrays,
    target: str = "live",
) -> List[str]:
    """Apply every matching ``flip_bits`` rule of ``plan`` to the named
    ``arrays`` (a mapping ``name -> ndarray``, damaged in place) and
    return the names actually flipped.  The per-rule seed mixes the plan
    seed with ``(rank, array, step)`` so each rule is independently
    reproducible.  Rules naming arrays absent from ``arrays`` are
    ignored (they may target a different copy holder).  Each rule fires
    at most once per plan instance (:meth:`FaultPlan.fire_once`): after
    a rollback the application replays the step the rule is keyed on,
    and the point of the exercise is healing the *first* strike.
    """
    flipped: List[str] = []
    if plan is None:
        return flipped
    for ev in plan.flip_events(rank, step, target=target):
        arr = arrays.get(ev.array) if hasattr(arrays, "get") else None
        if arr is None:
            continue
        if not plan.fire_once(("flip", ev.rank, ev.array, ev.step, ev.target)):
            continue
        seed = (plan.seed, zlib.crc32(ev.array.encode()), ev.rank, ev.step)
        if flip_array_bits(arr, ev.nbits, seed=seed):
            flipped.append(ev.array)
    return flipped


def backoff_delays(
    retries: int,
    base_delay: float = 0.01,
    factor: float = 2.0,
    max_delay: float = 1.0,
    jitter: bool = True,
    seed=None,
) -> List[float]:
    """The sleep schedule :func:`retry_with_backoff` would use.

    With ``jitter`` (the default) delays follow *decorrelated jitter*:
    each delay is drawn uniformly from ``[base_delay, prev * factor]``
    and capped at ``max_delay``, so N ranks that hit the same transient
    at the same instant spread out instead of re-colliding in lock-step
    retry storms.  The draw sequence is a pure function of ``seed`` —
    pass a per-rank value (e.g. the world rank) so schedules are
    reproducible *and* diverge across ranks.  Without jitter the
    schedule is the classic capped exponential
    ``min(max_delay, base_delay * factor**attempt)``.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if base_delay < 0:
        raise ValueError("base_delay must be >= 0")
    if max_delay < base_delay:
        raise ValueError("max_delay must be >= base_delay")
    if not jitter:
        return [
            min(max_delay, base_delay * factor**attempt)
            for attempt in range(retries)
        ]
    rng = np.random.default_rng(0xB0FF if seed is None else seed)
    delays: List[float] = []
    prev = base_delay
    for _ in range(retries):
        prev = min(
            max_delay,
            float(rng.uniform(base_delay, max(base_delay, prev) * factor)),
        )
        delays.append(prev)
    return delays


def retry_with_backoff(
    fn: Callable[[], Any],
    retries: int = 3,
    base_delay: float = 0.01,
    factor: float = 2.0,
    max_delay: float = 1.0,
    jitter: bool = True,
    seed=None,
    exceptions: Tuple[Type[BaseException], ...] = (CommTimeout,),
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
) -> Any:
    """Call ``fn`` and retry transient failures with capped, jittered
    exponential backoff.

    Retries up to ``retries`` times (so at most ``retries + 1`` calls),
    and only on the given ``exceptions`` (default: receive timeouts, the
    shape an injected transient fault takes).  The final failure
    propagates.  Sleeps follow :func:`backoff_delays`: decorrelated
    jitter capped at ``max_delay``, deterministic per ``seed`` — callers
    pass a per-rank seed so simultaneous failures on N ranks fan out
    instead of resynchronizing into a retry storm, while each rank's
    schedule stays reproducible run after run.
    """
    delays = backoff_delays(
        retries, base_delay=base_delay, factor=factor,
        max_delay=max_delay, jitter=jitter, seed=seed,
    )
    attempt = 0
    while True:
        try:
            return fn()
        except exceptions as exc:
            if attempt >= retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            time.sleep(delays[attempt])
            attempt += 1
