"""The guard layer: runtime invariants, corruption audits, straggler
health and diagnostic dumps under one policy.

The paper's trillion-particle campaign can only trust a week-long
integration because every pipeline stage conserves what it must:
particle count across the 3-D multisection exchange, mass through mesh
assignment and the relay/slab conversions, momentum and energy across
the TreePM force split.  This package turns those conservation laws
into *runtime guardrails*:

* :mod:`repro.validate.checks` — composable, vectorized invariant
  checkers (finite-field sweeps, count/momentum/mass conservation,
  octree moment consistency, domain partition coverage);
* :mod:`repro.validate.monitor` — per-step energy and momentum drift
  monitors with configurable tolerances;
* :mod:`repro.validate.errors` — the structured
  :class:`InvariantViolation` every finding becomes, carrying check,
  step, rank, stage and offending-array statistics, and the
  :class:`GuardEvent` rows of the guard log;
* :mod:`repro.validate.runtime` — the :class:`Validator`, the one
  router (``off | warn | recover | abort``, per-check overrides,
  sampling interval) every driver consults for invariants, SDC audits
  and straggler verdicts alike; an ``abort`` with ``dump_dir`` set
  writes a diagnostic checkpoint first, so every violation is
  reproducible offline;
* :mod:`repro.validate.sdc` — silent-data-corruption audits
  (:class:`SdcAuditor`): snapshot digest cross-checks with
  two-out-of-three attribution and in-place healing, a
  partition-independent live-state fingerprint, and ABFT force
  spot-checks against the reference kernel (check name ``sdc``).

See ``docs/validation.md`` for the invariant catalogue and the
"violation -> diagnostic dump -> offline repro" workflow.
"""

from repro.validate.checks import (
    check_domain_containment,
    check_domain_partition,
    check_finite,
    check_in_box,
    check_mesh_mass,
    check_momentum,
    check_octree,
    check_particle_count,
    check_positive,
    check_recovery_totals,
    first_violation,
)
from repro.validate.errors import (
    GuardEvent,
    InvariantViolation,
    InvariantWarning,
    array_stats,
)
from repro.validate.monitor import (
    EnergyDriftMonitor,
    LayzerIrvineMonitor,
    MomentumDriftMonitor,
)
from repro.validate.runtime import (
    DRIVER_CHECKS,
    POLICIES,
    Validator,
    refuse_unrun_checks,
)
from repro.validate.sdc import SdcAuditor

__all__ = [
    "GuardEvent",
    "InvariantViolation",
    "InvariantWarning",
    "array_stats",
    "check_finite",
    "check_positive",
    "check_in_box",
    "check_particle_count",
    "check_momentum",
    "check_mesh_mass",
    "check_octree",
    "check_domain_partition",
    "check_domain_containment",
    "check_recovery_totals",
    "first_violation",
    "EnergyDriftMonitor",
    "LayzerIrvineMonitor",
    "MomentumDriftMonitor",
    "Validator",
    "POLICIES",
    "DRIVER_CHECKS",
    "refuse_unrun_checks",
    "SdcAuditor",
]
