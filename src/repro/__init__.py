"""repro — a GreeM-style massively parallel TreePM N-body framework.

A full reproduction of Ishiyama, Nitadori & Makino (SC12),
"4.45 Pflops Astrophysical N-Body Simulation on K computer — The
Gravitational Trillion-Body Problem": the TreePM force solver (S2
split, Phantom-GRAPE-style kernel, Barnes-modified tree), dynamic
multisection domain decomposition with the sampling method, the relay
mesh communication algorithm over an in-process SPMD runtime with a
torus network model, cosmological initial conditions and integration,
and the performance models behind the paper's Table I.

Quick start::

    import numpy as np
    from repro import SimulationConfig, SerialSimulation

    rng = np.random.default_rng(0)
    pos = rng.random((512, 3))
    sim = SerialSimulation(
        SimulationConfig(), pos, np.zeros_like(pos), np.full(512, 1 / 512)
    )
    sim.run(0.0, 0.1, n_steps=5)
"""

from repro.config import (
    DomainConfig,
    MachineConfig,
    PMConfig,
    RelayMeshConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
    ValidationConfig,
)
from repro.treepm.solver import TreePMSolver
from repro.validate import InvariantViolation, InvariantWarning, Validator
from repro.sim.serial import SerialSimulation
from repro.sim.parallel import (
    ParallelSimulation,
    resume_parallel_simulation,
    run_parallel_simulation,
)
from repro.sim.elastic import ElasticRunner, run_elastic_simulation
from repro.mpi.faults import FaultPlan, PeerFailure
from repro.mpi.recovery import RecoveryError, RecoveryEvent
from repro.mpi.runtime import MPIRuntime, run_spmd
from repro.utils.heap import keep_freed_blocks as _keep_freed_blocks

# every process that imports the package (fork and spawn workers
# included) recycles its freed work arrays instead of faulting them in
# again each step; process-wide malloc policy, see repro.utils.heap
_keep_freed_blocks()

__version__ = "1.0.0"

__all__ = [
    "TreeConfig",
    "PMConfig",
    "TreePMConfig",
    "DomainConfig",
    "RelayMeshConfig",
    "MachineConfig",
    "SimulationConfig",
    "ValidationConfig",
    "InvariantViolation",
    "InvariantWarning",
    "Validator",
    "TreePMSolver",
    "SerialSimulation",
    "ParallelSimulation",
    "run_parallel_simulation",
    "resume_parallel_simulation",
    "ElasticRunner",
    "run_elastic_simulation",
    "FaultPlan",
    "PeerFailure",
    "RecoveryError",
    "RecoveryEvent",
    "MPIRuntime",
    "run_spmd",
    "__version__",
]
