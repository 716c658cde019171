"""Simulation drivers: the GreeM-equivalent orchestration layer.

:class:`SerialSimulation` runs the TreePM step cycle in one process;
:class:`ParallelSimulation` is the SPMD driver combining dynamic domain
decomposition, ghost exchange, the distributed tree solver and the
relay-mesh PM — the full per-step pipeline whose cost breakdown is the
paper's Table I.
"""

from repro.sim.ghosts import distance_to_domain, exchange_ghosts
from repro.sim.checkpoint import (
    CheckpointError,
    latest_checkpoint,
    load_distributed_checkpoint,
    validate_checkpoint,
)
from repro.sim.serial import SerialSimulation
from repro.sim.parallel import (
    ParallelSimulation,
    resume_parallel_simulation,
    run_parallel_simulation,
)

__all__ = [
    "distance_to_domain",
    "exchange_ghosts",
    "CheckpointError",
    "latest_checkpoint",
    "load_distributed_checkpoint",
    "validate_checkpoint",
    "SerialSimulation",
    "ParallelSimulation",
    "resume_parallel_simulation",
    "run_parallel_simulation",
]
