"""SPMD message-passing runtime (the MPI substitute), with pluggable
communicator backends.

The paper runs on MPI over the K computer's Tofu interconnect; neither
is available here, so this package provides a faithful substitute with
interchangeable backends behind one interface:

* ``"thread"`` (:class:`MPIRuntime`, the deterministic default) runs an
  SPMD function on N in-process ranks, with the full fault-injection
  surface, traffic logging and the :class:`TorusNetwork` model;
* ``"multiprocess"`` (:class:`~repro.mpi.mp_backend.MultiprocessBackend`)
  runs one supervised OS process per rank: true parallelism,
  shared-memory transport for large arrays, heartbeat liveness
  monitoring, and elastic recovery against *real* process deaths.

Every backend hands ranks a communicator implementing the MPI call
surface GreeM uses — Send/Recv, Sendrecv, Barrier, Bcast, Gather(v),
Scatter, Allgather, Reduce, Allreduce, Alltoall(v) and ``Comm_split`` —
with numpy-buffer payloads; the in-tree backends share the collective
algorithms of :class:`~repro.mpi.backend.CollectiveComm`, so results
are bit-identical across them.  Select a backend by name through
:func:`create_backend` (or the drivers' ``backend=`` parameters).
"""

from repro.mpi.backend import (
    BackendCapabilities,
    CommBackend,
    available_backends,
    backend_capabilities,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.mpi.runtime import MPIRuntime, run_spmd
from repro.mpi.comm import Comm, CommAborted, Request
from repro.mpi.faults import (
    CommTimeout,
    FaultPlan,
    InjectedFault,
    MessageDropped,
    PeerFailure,
    RankDeath,
    backoff_delays,
    retry_with_backoff,
)
from repro.mpi.health import (
    AdaptiveDeadline,
    DegradationPolicy,
    HealthMonitor,
    StragglerEvicted,
)
from repro.mpi.network import TorusNetwork, TrafficLog, PhaseTraffic
from repro.mpi.recovery import (
    BuddyStore,
    RecoveryError,
    RecoveryEvent,
    shrink_after_failure,
)

__all__ = [
    "BackendCapabilities",
    "CommBackend",
    "available_backends",
    "backend_capabilities",
    "create_backend",
    "register_backend",
    "resolve_backend",
    "MPIRuntime",
    "run_spmd",
    "Comm",
    "CommAborted",
    "CommTimeout",
    "FaultPlan",
    "InjectedFault",
    "MessageDropped",
    "PeerFailure",
    "RankDeath",
    "backoff_delays",
    "retry_with_backoff",
    "AdaptiveDeadline",
    "DegradationPolicy",
    "HealthMonitor",
    "StragglerEvicted",
    "BuddyStore",
    "RecoveryError",
    "RecoveryEvent",
    "shrink_after_failure",
    "Request",
    "TorusNetwork",
    "TrafficLog",
    "PhaseTraffic",
]
