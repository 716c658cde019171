"""Gray-failure health layer: straggler detection and graceful degradation.

The recovery stack so far handles the *binary* failures — fail-stop
crashes (:mod:`repro.mpi.recovery`) and silent corruption
(:mod:`repro.validate.sdc`).  This module closes the gap between "fully
alive" and "dead": the gray failures that dominated operations on the
paper's 82,944-node lock-step runs, where a node that is merely *slow*
stalls every collective behind it, yet killing it on a fixed heartbeat
deadline murders a healthy-but-loaded rank.

Three cooperating pieces, configured by the guard configuration
(:class:`repro.config.ValidationConfig`, check name ``"straggler"``)
and logging :class:`repro.validate.GuardEvent` rows into the driver's
guard log:

:class:`HealthMonitor`
    Straggler verdicts fed by per-step timings (the same numbers the
    :class:`repro.utils.timer.TimingLedger` accumulates) allgathered
    each step.  A rank is *suspect* when its step time exceeds the
    robust fleet median by ``straggler_factor``; it is a *confirmed
    straggler* after ``straggler_patience`` consecutive suspect steps.
    Every rank runs the identical verdict function on the identical
    allgathered samples, so verdicts are deterministic and collective —
    no extra agreement round is needed.
:class:`AdaptiveDeadline`
    Collective deadlines derived from the observed step-time
    distribution (a quantile scaled by a factor, clamped to a declared
    floor/ceil) instead of a fixed ``recv_timeout`` constant: slow
    fleets aren't mass-timed-out, fast fleets detect wedges sooner.
:class:`DegradationPolicy`
    The degraded-mode engine that keeps a fleet running with a
    straggler it does not evict, or under disk pressure: each
    escalation stretches SDC-audit and checkpoint cadence within the
    declared bound, from level 2 drops the non-essential derived output
    (the cross-rank snapshot audit), and falls back native→numpy when a
    kernel's bitwise self-test starts failing mid-run.  The level only
    rises; it never falls back within a run.

Eviction itself is *cooperative*: the confirmed straggler flushes its
buddy replica at the current boundary along with everyone else (the
drain), then raises :class:`StragglerEvicted` — an announced
:class:`repro.mpi.faults.RankDeath` that the elastic runtime converts
into the ordinary shrink-and-continue path with **zero replayed steps**
and no hard-timeout SIGKILL.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.mpi.faults import RankDeath
from repro.native.build import recheck_gates
from repro.validate.errors import GuardEvent

__all__ = [
    "HealthMonitor",
    "AdaptiveDeadline",
    "DegradationPolicy",
    "StragglerEvicted",
]


class StragglerEvicted(RankDeath):
    """Voluntary exit of a confirmed straggler (cooperative eviction).

    Subclasses :class:`RankDeath`, so the elastic runtime treats it as
    an *announced* death: the rank is marked dead, the survivors shrink
    through the ordinary consensus path, and — because the drain flushed
    the buddy replica at the current boundary first — recovery replays
    zero steps.
    """


def straggler_event(
    step: int, rank: int, kind: str, detail: str = "", **data
) -> GuardEvent:
    """A ``check="straggler"`` row of the guard log."""
    return GuardEvent(
        step=step, rank=rank, check="straggler", kind=kind, detail=detail,
        data=data,
    )


class AdaptiveDeadline:
    """Collective deadline from the observed step-time distribution.

    Tracks the fleet-wide *maximum* step time (the straggler defines
    how long a healthy rank may legitimately block in a collective) in
    a bounded window and proposes ``clamp(FACTOR * quantile(QUANTILE),
    FLOOR, CEIL)`` once ``min_samples`` ticks have been observed.
    """

    WINDOW = 64
    QUANTILE = 0.9
    FACTOR = 10.0
    #: clamp bounds in seconds
    FLOOR = 1.0
    CEIL = 120.0

    def __init__(self, min_samples: int) -> None:
        self.min_samples = int(min_samples)
        self._samples: List[float] = []

    def observe(self, fleet_max_seconds: float) -> None:
        self._samples.append(float(fleet_max_seconds))
        if len(self._samples) > self.WINDOW:
            del self._samples[0]

    def deadline(self) -> Optional[float]:
        """Proposed collective deadline in seconds, or ``None`` until
        enough samples exist."""
        if len(self._samples) < self.min_samples:
            return None
        q = float(np.quantile(self._samples, self.QUANTILE))
        return min(self.CEIL, max(self.FLOOR, self.FACTOR * q))


class HealthMonitor:
    """Deterministic straggler verdicts.

    Feed :meth:`observe` once per step with the allgathered
    ``(world_rank, step_seconds)`` samples; it returns the world rank of
    a newly *confirmed* straggler (or ``None``) and logs the
    corresponding events into ``guard.events``.  The verdict function is
    a pure function of the sample history, so every rank that feeds it
    the same allgathered rows reaches the same verdict on the same step
    — detection is collective by construction.
    """

    def __init__(self, guard) -> None:
        self.config = guard.config
        #: the guard log this monitor writes to
        self.events: List[GuardEvent] = guard.events
        self.deadline = AdaptiveDeadline(self.config.straggler_patience)
        #: consecutive over-threshold steps per world rank
        self._streak: Dict[int, int] = {}
        #: ranks already confirmed in the current episode (suppresses
        #: repeat confirmations until the rank recovers)
        self._confirmed: set = set()

    def observe(
        self,
        step: int,
        samples: Iterable[Tuple[int, float]],
        deadline_seconds: Optional[float] = None,
    ) -> Optional[int]:
        """Ingest one step's fleet samples; return a newly confirmed
        straggler's world rank, or ``None``.

        ``samples`` should be per-rank *work* times (wall minus time
        blocked in communication): in lock-step collectives every
        rank's wall time equals the straggler's, and only the
        work/wait split attributes the slowness.  ``deadline_seconds``
        feeds the adaptive-deadline distribution (normally the fleet's
        max *wall* time — how long a collective may legitimately
        block); it defaults to the largest sample.
        """
        rows = sorted((int(r), float(t)) for r, t in samples)
        if not rows:
            return None
        times = np.array([t for _, t in rows])
        median = float(np.median(times))
        self.deadline.observe(
            float(times.max()) if deadline_seconds is None else deadline_seconds
        )
        if median <= 0.0:
            return None
        factor = self.config.straggler_factor
        patience = self.config.straggler_patience
        confirmed: Dict[int, float] = {}
        for rank, t in rows:
            if t > factor * median:
                streak = self._streak.get(rank, 0) + 1
                self._streak[rank] = streak
                if streak == 1:
                    self.events.append(straggler_event(
                        step, rank, "straggler_suspect",
                        f"step time {t:.3f}s > {factor:g}x fleet median "
                        f"{median:.3f}s",
                        seconds=t, median=median,
                    ))
                if streak >= patience and rank not in self._confirmed:
                    confirmed[rank] = t / median
            elif self._streak.pop(rank, 0):
                self._confirmed.discard(rank)
                self.events.append(straggler_event(
                    step, rank, "recovered", "step time back under threshold",
                    seconds=t, median=median,
                ))
        if not confirmed:
            return None
        # one eviction at a time: the lowest confirmed rank (identical
        # choice on every rank — the verdict is collective)
        rank = min(confirmed)
        self._confirmed.add(rank)
        self._streak[rank] = 0
        self.events.append(straggler_event(
            step, rank, "straggler_confirmed",
            f"{patience} consecutive steps over {factor:g}x fleet median",
            slowdown=confirmed[rank],
        ))
        return rank


class DegradationPolicy:
    """Degraded-mode engine (the "tolerate" half of eviction).

    Each :meth:`escalate` raises the level by one (up to ``MAX_LEVEL``);
    the level never falls within a run.  It maps onto concrete
    sheddings:

    * ``audit_stretch`` — multiply the SDC-audit and checkpoint cadence
      by ``min(2**level, AUDIT_STRETCH_MAX)``.  The declared bound keeps
      "stretch the cadence" from becoming "silently disable audits".
    * ``skip_derived`` — at level >= 2 drop non-essential derived
      outputs (the cross-rank snapshot audit; checkpoints and the
      fingerprint audit are essential and never skipped).
    * every :meth:`escalate` re-runs the native kernel self-tests
      (:meth:`recheck_kernels`): a kernel failing its bitwise gate falls
      back native→numpy and logs a ``native_fallback`` event.

    Every transition is logged into ``guard.events``.
    """

    MAX_LEVEL = 8
    #: upper bound on the audit/checkpoint cadence multiplier
    AUDIT_STRETCH_MAX = 4

    def __init__(self, guard) -> None:
        self.world_rank = int(guard.rank or 0)
        #: the guard log this engine writes to
        self.events: List[GuardEvent] = guard.events
        self.level = 0
        self._fallen_back: set = set()

    @property
    def audit_stretch(self) -> int:
        """Cadence multiplier in effect (1 = no degradation)."""
        if self.level <= 0:
            return 1
        return min(2 ** self.level, self.AUDIT_STRETCH_MAX)

    @property
    def skip_derived(self) -> bool:
        return self.level >= 2

    def escalate(self, step: int, rank: int, reason: str) -> None:
        """Raise the degradation level by one (bounded) and log the
        transition; idempotent at the ceiling."""
        if self.level < self.MAX_LEVEL:
            self.level += 1
            self.events.append(straggler_event(
                step, rank, "degrade_enter", reason, level=float(self.level)
            ))
            self.events.append(straggler_event(
                step, rank, "audit_stretch",
                f"audit/checkpoint cadence x{self.audit_stretch} "
                f"(bound {self.AUDIT_STRETCH_MAX})",
                stretch=float(self.audit_stretch),
            ))
        self.recheck_kernels(step)

    def recheck_kernels(self, step: int) -> Dict[str, bool]:
        """Re-run the bitwise self-test of every loaded native kernel
        (:func:`repro.native.build.recheck_gates` writes the fresh
        verdict back into the gate, so a failing kernel's later calls
        take the bitwise-identical numpy path) and log a
        ``native_fallback`` event for every stage that newly fails."""
        results = recheck_gates()
        for stage, ok in results.items():
            if not ok and stage not in self._fallen_back:
                self._fallen_back.add(stage)
                self.events.append(straggler_event(
                    step, self.world_rank, "native_fallback",
                    f"native {stage} kernel failed its bitwise self-test; "
                    f"falling back to numpy",
                ))
        return results
