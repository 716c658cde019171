"""The guard router: decides *what happens* when a check finds something.

A :class:`Validator` binds a :class:`repro.config.ValidationConfig` to
one driver (a serial simulation, one rank of an SPMD job, or one rank
of an elastic runner) and routes every finding — an invariant
:class:`~repro.validate.errors.InvariantViolation`, an SDC audit's
corruption report, a straggler verdict — through one policy
vocabulary:

* ``off``     — the check is never evaluated;
* ``warn``    — emit an :class:`~repro.validate.errors.InvariantWarning`
  and keep running (cheap enough to leave on: invariants are vectorized
  and sampled every ``interval`` steps);
* ``recover`` — the caller applies the check's own remedy (SDC: heal
  in place or roll back; straggler: cooperative eviction); a check
  without a remedy treats ``recover`` as ``abort``;
* ``abort``   — raise the violation, after writing a diagnostic
  checkpoint epoch through the driver's dump hook when ``dump_dir`` is
  set, so the violation is reproducible offline.

Per-check overrides let a production run keep e.g. finite-field sweeps
at ``abort`` while the SDC audits ``recover``.  Each driver runs a
known set of checks (:data:`DRIVER_CHECKS`) and refuses, at
construction, an override naming any other
(:func:`refuse_unrun_checks`).

Detectors record what they see as :class:`GuardEvent` rows in the
router's one log (:attr:`Validator.events`).

In SPMD jobs checks must be *collective-safe*: a violation detected on
one rank only (a corrupted point-to-point payload, say) must still
produce a coordinated dump and a clean job-wide abort instead of a
deadlock.  :meth:`Validator.handle_collective` therefore allgathers the
per-rank verdicts so every rank takes the same branch.
"""

from __future__ import annotations

import warnings
from typing import Callable, List, Optional

from repro.config import ValidationConfig
from repro.validate.errors import GuardEvent, InvariantViolation, InvariantWarning

__all__ = ["Validator", "POLICIES", "DRIVER_CHECKS", "refuse_unrun_checks"]

POLICIES = ValidationConfig._POLICIES

#: checks whose ``recover`` is a remedy the caller applies
_REMEDIES = ("sdc", "straggler")

_INVARIANTS = (
    "finite_fields",
    "mass_conservation",
    "octree_moments",
    "octree_com_bounds",
    "momentum_drift",
)
#: the checks each driver runs
DRIVER_CHECKS = {
    "SerialSimulation": (*_INVARIANTS, "energy_drift", "sdc"),
    "ParallelSimulation": (
        *_INVARIANTS,
        "momentum_conservation",
        "domain_partition",
        "domain_containment",
    ),
}
DRIVER_CHECKS["ElasticRunner"] = (
    *DRIVER_CHECKS["ParallelSimulation"], "sdc", "straggler"
)


def refuse_unrun_checks(config: ValidationConfig, driver: str) -> None:
    """Raise ``ValueError`` when an override names a check ``driver``
    does not run (the override would silently do nothing)."""
    for check in config.overrides:
        if check not in DRIVER_CHECKS[driver]:
            runners = " or ".join(
                d for d, checks in DRIVER_CHECKS.items() if check in checks
            )
            raise ValueError(
                f"{driver} does not run the {check!r} check; it is run by "
                f"{runners}"
            )


class Validator:
    """Policy router and event log of one driver's guards.

    Parameters
    ----------
    config:
        A :class:`repro.config.ValidationConfig`.
    rank:
        Rank of the owning driver (``None`` for serial).
    dump_fn:
        Called by an ``abort`` when ``config.dump_dir`` is set, with the
        violation; must write a diagnostic checkpoint and return its
        path.  In SPMD jobs the hook is invoked on *every* rank
        (collectively), so a distributed checkpoint write is safe.
    """

    def __init__(
        self,
        config: ValidationConfig,
        rank: Optional[int] = None,
        dump_fn: Optional[Callable[[InvariantViolation], object]] = None,
    ) -> None:
        self.config = config
        self.rank = rank
        self.dump_fn = dump_fn
        self.step = 0  # set by begin_step; lets deep call sites skip plumbing
        #: the one guard log of this driver, appended in detection order
        self.events: List[GuardEvent] = []

    # -- gating -----------------------------------------------------------------

    def begin_step(self, step: int) -> None:
        """Record the current step index (used when ``active`` /
        ``check_enabled`` are called without one, e.g. deep inside the
        PM pipeline where the step is not threaded through)."""
        self.step = int(step)

    @property
    def enabled(self) -> bool:
        """True when any check can fire (global policy or an override)."""
        return self.config.enabled

    def active(self, step: Optional[int] = None) -> bool:
        """Should checks run at this step?  (Sampling interval gate —
        deterministic in ``step``, so every rank agrees.)"""
        if step is None:
            step = self.step
        return self.enabled and step % self.config.interval == 0

    def policy_for(self, check: str) -> str:
        """Effective policy for a named check (override or global)."""
        return self.config.overrides.get(check, self.config.policy)

    def runs(self, check: str) -> bool:
        """Is ``check`` on at all (any policy but ``off``)?"""
        return self.policy_for(check) != "off"

    def check_enabled(self, check: str, step: Optional[int] = None) -> bool:
        return self.active(step) and self.runs(check)

    # -- routing -----------------------------------------------------------------

    def handle(self, violation: Optional[InvariantViolation]) -> bool:
        """Apply the policy to one (possibly absent) finding.

        Returns ``True`` when the caller must apply the check's remedy
        (``recover`` on a check that has one); warns or raises
        otherwise.
        """
        if violation is None:
            return False
        return self._route(violation, violation)

    def handle_collective(
        self, comm, violation: Optional[InvariantViolation]
    ) -> bool:
        """Apply the policy across an SPMD job (collective: every rank
        calls, with its local finding or ``None``).

        The per-rank verdicts are allgathered; if any rank found
        something, every rank takes the same policy branch — warning
        locally, returning ``True`` together for a remedy, or writing
        the distributed diagnostic checkpoint together before all ranks
        raise.  The lowest detecting rank's violation is the one
        re-raised everywhere, so the job-level error names the true
        origin.
        """
        reports = comm.allgather(
            violation.summary() if violation is not None else None
        )
        origin = next((r for r in reports if r is not None), None)
        if origin is None:
            return False
        mine = violation if violation is not None else (
            InvariantViolation.from_summary(origin)
        )
        return self._route(mine, violation)

    def _route(
        self, violation: InvariantViolation, local: Optional[InvariantViolation]
    ) -> bool:
        policy = self.policy_for(violation.check)
        if policy == "off":
            return False
        if policy == "warn":
            if local is not None:
                warnings.warn(str(local), InvariantWarning, stacklevel=3)
            return False
        if policy == "recover" and violation.check in _REMEDIES:
            return True
        if self.config.dump_dir is not None and self.dump_fn is not None:
            violation.dump_path = self.dump_fn(violation)
        raise violation
