"""Gray-failure health layer: straggler detection and graceful degradation.

The recovery stack so far handles the *binary* failures — fail-stop
crashes (:mod:`repro.mpi.recovery`) and silent corruption
(:mod:`repro.validate.sdc`).  This module closes the gap between "fully
alive" and "dead": the gray failures that dominated operations on the
paper's 82,944-node lock-step runs, where a node that is merely *slow*
stalls every collective behind it, yet killing it on a fixed heartbeat
deadline murders a healthy-but-loaded rank.

Three cooperating pieces, all policy-driven by
:class:`repro.config.HealthConfig`:

:class:`HealthMonitor`
    Per-rank health scoring fed by per-step timings (the same numbers
    the :class:`repro.utils.timer.TimingLedger` accumulates) allgathered
    each step, optionally folded with heartbeat ages from the
    supervisor's board.  A rank is *suspect* when its step time exceeds
    the robust fleet median by ``straggler_factor``; it is a *confirmed
    straggler* after ``straggler_patience`` consecutive suspect steps.
    Every rank runs the identical verdict function on the identical
    allgathered samples, so verdicts are deterministic and collective —
    no extra agreement round is needed.
:class:`AdaptiveDeadline`
    Collective deadlines derived from the observed step-time
    distribution (``deadline_quantile`` scaled by ``deadline_factor``,
    clamped to the declared floor/ceil) instead of a fixed
    ``recv_timeout`` constant: slow fleets aren't mass-timed-out, fast
    fleets detect wedges sooner.
:class:`DegradationPolicy`
    The explicit degraded-mode engine: under sustained pressure it
    stretches SDC-audit and checkpoint cadence within the declared
    ``audit_stretch_max`` bound, drops non-essential derived outputs
    (the cross-rank snapshot audit), and falls back native→numpy when a
    kernel's bitwise self-test starts failing mid-run.  Every
    transition is emitted as a structured :class:`HealthEvent`.

Eviction itself is *cooperative*: the confirmed straggler flushes its
buddy replica at the current boundary along with everyone else (the
drain), then raises :class:`StragglerEvicted` — an announced
:class:`repro.mpi.faults.RankDeath` that the elastic runtime converts
into the ordinary shrink-and-continue path with **zero replayed steps**
and no hard-timeout SIGKILL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import HealthConfig
from repro.mpi.faults import RankDeath
from repro.native.build import recheck_gates

__all__ = [
    "HealthEvent",
    "HealthMonitor",
    "AdaptiveDeadline",
    "DegradationPolicy",
    "StragglerEvicted",
    "recheck_native_kernels",
]

class StragglerEvicted(RankDeath):
    """Voluntary exit of a confirmed straggler (cooperative eviction).

    Subclasses :class:`RankDeath`, so the elastic runtime treats it as
    an *announced* death: the rank is marked dead, the survivors shrink
    through the ordinary consensus path, and — because the drain flushed
    the buddy replica at the current boundary first — recovery replays
    zero steps.
    """


@dataclass(frozen=True)
class HealthEvent:
    """One structured health-state transition.

    ``kind`` is one of: ``straggler_suspect``, ``straggler_confirmed``,
    ``drain``, ``evict``, ``evict_shrink``, ``degrade_enter``,
    ``audit_stretch``, ``deadline_widen``, ``native_fallback``,
    ``checkpoint_skipped``, ``recovered``.

    ``rank`` is the *subject* world rank (the straggler, the healed
    rank, ...); the emitting rank records the event in its own log, and
    verdict-derived events are identical on every rank.
    """

    step: int
    rank: int
    kind: str
    detail: str = ""
    data: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "rank": self.rank,
            "kind": self.kind,
            "detail": self.detail,
            "data": dict(self.data),
        }


class AdaptiveDeadline:
    """Collective deadline from the observed step-time distribution.

    Tracks the fleet-wide *maximum* step time (the straggler defines
    how long a healthy rank may legitimately block in a collective) in
    a bounded window and proposes
    ``clamp(factor * quantile, floor, ceil)`` once ``min_samples``
    ticks have been observed.
    """

    WINDOW = 64

    def __init__(self, config: HealthConfig) -> None:
        self.config = config
        self._samples: List[float] = []

    def observe(self, fleet_max_seconds: float) -> None:
        self._samples.append(float(fleet_max_seconds))
        if len(self._samples) > self.WINDOW:
            del self._samples[0]

    def deadline(self) -> Optional[float]:
        """Proposed collective deadline in seconds, or ``None`` until
        enough samples exist."""
        cfg = self.config
        if len(self._samples) < cfg.min_samples:
            return None
        q = float(np.quantile(self._samples, cfg.deadline_quantile))
        return min(cfg.deadline_ceil, max(cfg.deadline_floor, cfg.deadline_factor * q))


class HealthMonitor:
    """Deterministic per-rank health scoring and straggler verdicts.

    Feed :meth:`observe` once per step with the allgathered
    ``(world_rank, step_seconds)`` samples; it returns the world rank of
    a newly *confirmed* straggler (or ``None``) and appends the
    corresponding :class:`HealthEvent`\\ s to :attr:`events`.  The
    verdict function is a pure function of the sample history, so every
    rank that feeds it the same allgathered rows reaches the same
    verdict on the same step — detection is collective by construction.
    """

    #: EWMA smoothing of the per-rank slowdown score
    EWMA = 0.5

    def __init__(self, config: HealthConfig, world_rank: int) -> None:
        self.config = config
        self.world_rank = int(world_rank)
        self.events: List[HealthEvent] = []
        self.deadline = AdaptiveDeadline(config)
        self._ticks = 0
        #: consecutive over-threshold steps per world rank
        self._streak: Dict[int, int] = {}
        #: EWMA of step-time / fleet-median per world rank
        self._slowdown: Dict[int, float] = {}
        #: ranks already confirmed in the current episode (suppresses
        #: repeat confirmations until the rank recovers)
        self._confirmed: set = set()
        #: most recent heartbeat ages, if a supervisor feeds them
        self._beat_age: Dict[int, float] = {}

    # -- scoring ------------------------------------------------------------------

    def record_beat_age(self, rank: int, age_seconds: float) -> None:
        """Fold a supervisor-observed heartbeat age into the score."""
        self._beat_age[int(rank)] = float(age_seconds)

    def score(self, rank: int) -> float:
        """Health score in ``(0, 1]``: 1 is healthy, → 0 as the rank's
        smoothed slowdown grows or its heartbeat goes quiet."""
        slowdown = max(1.0, self._slowdown.get(int(rank), 1.0))
        s = 1.0 / slowdown
        age = self._beat_age.get(int(rank))
        if age is not None and age > 0.0:
            s /= 1.0 + age
        return s

    def scores(self) -> Dict[int, float]:
        ranks = set(self._slowdown) | set(self._beat_age)
        return {r: self.score(r) for r in sorted(ranks)}

    # -- verdicts -----------------------------------------------------------------

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
        self._ticks += 1
        if median <= 0.0:
            return None
        threshold = self.config.straggler_factor * median
        confirmed: List[int] = []
        for rank, t in rows:
            ratio = t / median
            self._slowdown[rank] = (
                self.EWMA * ratio
                + (1.0 - self.EWMA) * self._slowdown.get(rank, 1.0)
            )
            if t > threshold:
                streak = self._streak.get(rank, 0) + 1
                self._streak[rank] = streak
                if streak == 1:
                    self.events.append(
                        HealthEvent(
                            step=step,
                            rank=rank,
                            kind="straggler_suspect",
                            detail=(
                                f"step time {t:.3f}s > "
                                f"{self.config.straggler_factor:g}x fleet "
                                f"median {median:.3f}s"
                            ),
                            data={"seconds": t, "median": median},
                        )
                    )
                if (
                    streak >= self.config.straggler_patience
                    and self._ticks >= self.config.min_samples
                    and rank not in self._confirmed
                ):
                    confirmed.append(rank)
            else:
                if self._streak.pop(rank, 0):
                    self._confirmed.discard(rank)
                    self.events.append(
                        HealthEvent(
                            step=step,
                            rank=rank,
                            kind="recovered",
                            detail="step time back under threshold",
                            data={"seconds": t, "median": median},
                        )
                    )
        if not confirmed:
            return None
        # one eviction at a time: the lowest confirmed rank (identical
        # choice on every rank — the verdict is collective)
        rank = min(confirmed)
        self._confirmed.add(rank)
        self._streak[rank] = 0
        self.events.append(
            HealthEvent(
                step=step,
                rank=rank,
                kind="straggler_confirmed",
                detail=(
                    f"{self.config.straggler_patience} consecutive steps over "
                    f"{self.config.straggler_factor:g}x fleet median"
                ),
                data={"slowdown": self._slowdown.get(rank, 1.0)},
            )
        )
        return rank


def recheck_native_kernels() -> Dict[str, bool]:
    """Re-run the bitwise self-test of every *loaded* native kernel.

    The compile-time gate runs each self-test once and caches the
    verdict; a kernel that starts mis-computing mid-run (bad memory,
    clock instability) would keep its stale pass.  This re-runs the
    test and **writes the fresh verdict back into the gate**
    (:func:`repro.native.build.recheck_gates`), so a failing kernel
    flips its ``get_lib()`` to ``None`` and every later call takes the
    bitwise-identical numpy path.

    Returns ``{stage: verdict}`` keyed by the ``REPRO_NO_NATIVE_<STAGE>``
    stage names (``tree``, ``traverse``, ``certify``, ``mesh``,
    ``update``, ``pp``) for the stages that had a loaded library to
    test; stages never loaded are omitted.
    """
    return recheck_gates()


class DegradationPolicy:
    """Explicit degraded-mode engine (the "tolerate" half of eviction).

    Levels escalate under sustained pressure and de-escalate when the
    pressure clears; the current level maps onto concrete sheddings:

    * ``audit_stretch`` — multiply the SDC-audit and checkpoint cadence
      by ``min(2**level, audit_stretch_max)``.  The declared bound keeps
      "stretch the cadence" from becoming "silently disable audits".
    * ``skip_derived`` — at level >= 2 drop non-essential derived
      outputs (the cross-rank snapshot audit; checkpoints and the
      fingerprint audit are essential and never skipped).
    * every :meth:`escalate` re-runs the native kernel self-tests
      (:func:`recheck_native_kernels`): a kernel failing its bitwise
      gate falls back native→numpy and emits a ``native_fallback``
      event.

    Every transition appends a structured :class:`HealthEvent` to
    :attr:`events`.
    """

    MAX_LEVEL = 8

    def __init__(self, config: HealthConfig, world_rank: int) -> None:
        self.config = config
        self.world_rank = int(world_rank)
        self.level = 0
        self.events: List[HealthEvent] = []
        self._fallen_back: set = set()

    @property
    def active(self) -> bool:
        return self.level > 0

    @property
    def audit_stretch(self) -> int:
        """Cadence multiplier in effect (1 = no degradation)."""
        if self.level <= 0:
            return 1
        return min(2 ** self.level, self.config.audit_stretch_max)

    @property
    def skip_derived(self) -> bool:
        return self.level >= 2

    def escalate(self, step: int, rank: int, reason: str) -> None:
        """Raise the degradation level by one (bounded) and emit the
        transition events; idempotent at the ceiling."""
        if self.level < self.MAX_LEVEL:
            self.level += 1
            self.events.append(
                HealthEvent(
                    step=step,
                    rank=rank,
                    kind="degrade_enter",
                    detail=reason,
                    data={"level": float(self.level)},
                )
            )
            self.events.append(
                HealthEvent(
                    step=step,
                    rank=rank,
                    kind="audit_stretch",
                    detail=(
                        f"audit/checkpoint cadence x{self.audit_stretch} "
                        f"(bound {self.config.audit_stretch_max})"
                    ),
                    data={"stretch": float(self.audit_stretch)},
                )
            )
        self.recheck_kernels(step)

    def relax(self, step: int, rank: int, reason: str) -> None:
        """Lower the degradation level by one when pressure clears."""
        if self.level <= 0:
            return
        self.level -= 1
        self.events.append(
            HealthEvent(
                step=step,
                rank=rank,
                kind="recovered",
                detail=reason,
                data={"level": float(self.level)},
            )
        )

    def recheck_kernels(self, step: int) -> Dict[str, bool]:
        """Re-run native self-tests; record a ``native_fallback`` event
        for every stage that newly fails its gate."""
        results = recheck_native_kernels()
        for stage, ok in results.items():
            if not ok and stage not in self._fallen_back:
                self._fallen_back.add(stage)
                self.events.append(
                    HealthEvent(
                        step=step,
                        rank=self.world_rank,
                        kind="native_fallback",
                        detail=(
                            f"native {stage} kernel failed its bitwise "
                            f"self-test; falling back to numpy"
                        ),
                    )
                )
        return results
