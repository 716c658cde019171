"""Pluggable communicator backends for the SPMD runtime.

The paper's SPMD code is written against MPI; this reproduction runs the
identical rank code against interchangeable *backends* behind one
interface (chainermn's ``CommunicatorBase``-over-``mpi4py`` shape):

* ``"thread"`` — the original in-process runtime
  (:class:`repro.mpi.runtime.MPIRuntime`): deterministic scheduling,
  traffic logging and the torus network model.  GIL-bound, so it cannot
  speed up numpy-heavy rank code.
* ``"multiprocess"`` — one OS process per rank with a supervising
  parent (:class:`repro.mpi.mp_backend.MultiprocessBackend`): true
  parallelism, ``SharedMemory`` transport for large arrays, heartbeat
  liveness monitoring, and fault tolerance against *real* process
  deaths (SIGKILL included).

A :class:`repro.mpi.faults.FaultPlan` runs on every backend the same
way: the launcher wraps the world communicator in a
:class:`repro.mpi.faults.FaultComm`, and no transport consults the plan.

An adapter over a real MPI comes back through :func:`register_backend`,
together with a CI job that executes it.

Two layers live here:

:class:`CommBackend`
    The launcher contract: ``run(fn, *args)`` executes ``fn(comm, ...)``
    on every rank and returns the per-rank results, with the failure
    semantics of :class:`repro.mpi.runtime.MPIRuntime` (one
    ``RuntimeError`` naming every failing rank; elastic jobs return
    ``None`` for dead ranks).

:class:`CollectiveComm`
    The communicator contract, as a mixin: every backend provides the
    point-to-point primitives (``_send``/``recv``/``barrier``/
    ``_try_recv``), the abort check and identity properties; the mixin
    keeps the step record, the wait accounting and the reliable receive,
    and derives the entire
    collective surface (bcast/reduce/allreduce/gather/allgather/
    scatter/alltoall(v)/split/sendrecv/isend/irecv) from them with the
    *same* message patterns on every backend — binomial trees and
    pairwise exchanges in identical order, so results are bit-identical
    across backends.
"""

from __future__ import annotations

import pickle
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BackendCapabilities",
    "CommBackend",
    "CollectiveComm",
    "Request",
    "SelfComm",
    "StepRecord",
    "available_backends",
    "backend_capabilities",
    "create_backend",
    "register_backend",
    "resolve_backend",
]


# ---------------------------------------------------------------------------
# capability descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can and cannot do (documented per backend in
    ``docs/fault_tolerance.md``)."""

    #: ranks execute concurrently on separate GILs / separate hosts
    true_parallelism: bool = False
    #: ``FaultPlan.kill_rank`` raises :class:`InjectedFault` in-rank
    simulated_kill: bool = False
    #: ``FaultPlan.kill_rank(real=True)`` SIGKILLs a live OS process
    real_process_kill: bool = False
    #: per-message traffic log + torus network model
    network_model: bool = False
    #: supervisor-side heartbeat liveness detection of dead/stuck ranks
    heartbeat_liveness: bool = False
    #: elastic shrink-and-continue recovery (survivor consensus)
    elastic: bool = False


# ---------------------------------------------------------------------------
# the launcher contract
# ---------------------------------------------------------------------------


class CommBackend(ABC):
    """Executes SPMD functions on ``n_ranks`` ranks.

    Concrete backends own rank creation (threads, processes, an MPI
    launcher), the transport between ranks, and failure detection; they
    agree on the contract of :meth:`run` so drivers and tests are
    backend-agnostic.
    """

    #: registry key; subclasses override
    name: str = "abstract"

    @classmethod
    @abstractmethod
    def capabilities(cls) -> BackendCapabilities:
        """Static description of what this backend supports."""

    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend can actually be instantiated here —
        backends with optional dependencies override this to probe the
        import without raising."""
        return True

    @abstractmethod
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank and return
        the per-rank results (index = world rank).

        Any rank failure aborts the job and raises a ``RuntimeError``
        carrying ``rank_errors`` / ``aborted_ranks`` / ``abort_origin``
        attributes; an elastic job survives :class:`RankDeath` failures
        and returns ``None`` for dead ranks instead.
        """


def job_results(
    results: List[Any],
    elastic: bool,
    failures: List[Tuple[int, BaseException]],
    aborted: List[Tuple[int, Optional[BaseException]]],
    deaths: Dict[int, BaseException],
    abort_reason: Optional[str],
    abort_origin: Optional[int],
    where: str,
) -> List[Any]:
    """The failure contract of :meth:`CommBackend.run`, shared by the
    in-tree backends: ``results`` when the job succeeded (an elastic
    job's dead ranks contribute ``None``), else one ``RuntimeError``
    naming every failing rank (``where`` formats a rank's thread or
    process name) with the ``rank_errors`` / ``aborted_ranks`` /
    ``abort_origin`` attributes.  ``aborted`` lists the secondary
    casualties (rank, :class:`~repro.mpi.comm.CommAborted` or None)."""
    failures = sorted(failures, key=lambda e: e[0])
    aborted_ranks = sorted(r for r, _ in aborted)
    if elastic and not failures and not aborted:
        if deaths and len(deaths) == len(results):
            raise _job_error(
                f"elastic job lost all {len(results)} rank(s): no survivor "
                f"left to continue", dict(deaths), [], None,
            )
        return results
    if failures:
        rank, exc = failures[0]
        msg = f"rank {rank} ({where.format(rank=rank)}) failed: {exc!r}"
        if len(failures) > 1:
            others = "; ".join(f"rank {r}: {e!r}" for r, e in failures[1:])
            msg += f"; {len(failures) - 1} more rank(s) failed: {others}"
        if aborted_ranks:
            msg += (
                f"; rank(s) {aborted_ranks} aborted (CommAborted) after "
                f"the first failure"
            )
        raise _job_error(msg, dict(failures), aborted_ranks, abort_origin) from exc
    if aborted or deaths:
        # no rank raised a primary error, yet the job aborted: the
        # watchdog, an injected stall or (not elastic) a death
        reason = abort_reason or "communication aborted"
        raise _job_error(
            f"job aborted: {reason} (CommAborted on rank(s) {aborted_ranks})",
            {}, aborted_ranks, abort_origin,
        ) from (aborted[0][1] if aborted else None)
    return results


def _job_error(msg, rank_errors, aborted_ranks, abort_origin) -> RuntimeError:
    err = RuntimeError(msg)
    err.rank_errors = rank_errors
    err.aborted_ranks = aborted_ranks
    err.abort_origin = abort_origin
    return err


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[], type]] = {}


def register_backend(name: str, loader: Callable[[], type]) -> None:
    """Register a backend class under ``name``.

    ``loader`` is a zero-argument callable returning the class, so
    backends with heavy or optional imports stay lazy.
    """
    _REGISTRY[str(name)] = loader


def resolve_backend(name: str) -> type:
    """Return the backend class registered under ``name``.

    Raises ``ValueError`` for unknown names and ``ImportError`` (with
    an actionable message) when the backend's dependencies are missing.
    """
    _ensure_builtins()
    try:
        loader = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown communicator backend {name!r}; available: "
            f"{sorted(_REGISTRY)}"
        ) from None
    return loader()


def create_backend(name_or_backend, n_ranks: int, **kwargs) -> CommBackend:
    """Instantiate a backend from a registry name (or pass an existing
    :class:`CommBackend` instance through unchanged)."""
    if isinstance(name_or_backend, CommBackend):
        return name_or_backend
    cls = resolve_backend(name_or_backend)
    return cls(n_ranks, **kwargs)


def available_backends() -> Dict[str, bool]:
    """Map of registered backend name -> usable right now (the class
    resolves *and* its dependencies import)."""
    _ensure_builtins()
    out: Dict[str, bool] = {}
    for name in sorted(_REGISTRY):
        try:
            out[name] = bool(resolve_backend(name).is_available())
        except Exception:
            out[name] = False
    return out


def backend_capabilities(name: str) -> BackendCapabilities:
    return resolve_backend(name).capabilities()


def _ensure_builtins() -> None:
    """Populate the registry with the in-tree backends (idempotent)."""
    if "thread" not in _REGISTRY:

        def _thread() -> type:
            from repro.mpi.runtime import MPIRuntime

            return MPIRuntime

        register_backend("thread", _thread)
    if "multiprocess" not in _REGISTRY:

        def _mp() -> type:
            from repro.mpi.mp_backend import MultiprocessBackend

            return MultiprocessBackend

        register_backend("multiprocess", _mp)


# ---------------------------------------------------------------------------
# the communicator contract: shared collective algorithms
# ---------------------------------------------------------------------------


def _copy(obj: Any) -> Any:
    """``obj`` with every array leaf copied, also inside lists, tuples
    and dicts (the walk of :func:`_array_bytes`): what a receiver reads
    never changes when its sender later writes to its own arrays."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [_copy(item) for item in obj]
    if isinstance(obj, tuple):
        items = [_copy(item) for item in obj]
        return type(obj)(*items) if hasattr(obj, "_fields") else tuple(items)
    if isinstance(obj, dict):
        return {k: _copy(v) for k, v in obj.items()}
    return obj


def payload_bytes(obj: Any) -> int:
    """Approximate wire size of a payload (traffic accounting).

    Arrays count their ``nbytes``, also inside lists, tuples and dicts;
    only the other leaves are pickled, together, to be measured."""
    rest: list = []
    n = _array_bytes(obj, rest)
    if rest:
        try:
            n += len(pickle.dumps(rest, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            n += 64  # unpicklable in-process object; count a token size
    return n


def _array_bytes(obj: Any, rest: list) -> int:
    """``nbytes`` summed over the array leaves of ``obj``; every other
    leaf is appended to ``rest``."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(item, rest) for item in obj)
    if isinstance(obj, dict):
        return sum(
            _array_bytes(k, rest) + _array_bytes(v, rest) for k, v in obj.items()
        )
    rest.append(obj)
    return 0


REDUCE_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: np.maximum(a, b),
    "min": lambda a, b: np.minimum(a, b),
}


#: retries of one reliable receive; the per-rank, per-step total is
#: bounded by the job's retry budget (:class:`StepRecord`)
_RELIABLE_RECV_RETRIES = 2


class StepRecord:
    """One rank's step (the last ``comm.fault_point`` value, carried by
    :class:`repro.mpi.faults.CommTimeout`) and its reliable-path retry
    budget, which refills when the step advances; shared by every
    communicator of the rank (world, split, shrunk)."""

    def __init__(self, budget: int) -> None:
        self.step: Optional[int] = None
        self.budget = int(budget)
        #: (step, retries left in it)
        self._left: Optional[Tuple[Optional[int], int]] = None

    def try_consume_retry(self) -> bool:
        """Take one retry from this step's budget; ``False`` when it is
        exhausted."""
        entry = self._left
        left = self.budget if entry is None or entry[0] != self.step else entry[1]
        if left <= 0:
            return False
        self._left = (self.step, left - 1)
        return True


class Request:
    """Handle on a non-blocking operation (mpi4py-style)."""

    def __init__(
        self,
        comm: "CollectiveComm",
        kind: str,
        done: bool = False,
        source: int = -1,
        tag: int = 0,
    ) -> None:
        self._comm = comm
        self._kind = kind
        self._done = done
        self._source = source
        self._tag = tag
        self._payload: Any = None

    def test(self) -> Tuple[bool, Any]:
        """Non-blocking completion probe: (done, payload-or-None)."""
        if self._done:
            return True, self._payload
        ok, payload = self._comm._try_recv(self._source, self._tag)
        if not ok:
            return False, None
        self._payload = payload
        self._done = True
        return True, payload

    def wait(self) -> Any:
        """Block until completion; returns the received object (None
        for send requests)."""
        if self._done:
            return self._payload
        self._payload = self._comm.recv(self._source, tag=self._tag)
        self._done = True
        return self._payload

    @staticmethod
    def waitall(requests: Sequence["Request"]) -> List[Any]:
        return [r.wait() for r in requests]


class CollectiveComm:
    """Backend-independent collective algorithms over point-to-point
    primitives.

    Subclasses provide: ``rank``/``size``/``world_rank``/``epoch``
    properties, ``_world_ranks`` (world rank of each rank of this
    communicator), ``_record`` (the rank's :class:`StepRecord`),
    ``_ctl`` (a control block holding ``recv_timeout``),
    ``_send(obj, dest, tag, sabotage=False)``, ``recv(source, tag,
    timeout=None)``, ``_try_recv(source, tag) -> (bool, payload)``,
    ``barrier()``, ``_check_abort(fallback)`` and
    ``_make_split_comm(...)``.

    The message patterns — binomial trees for bcast/reduce, a pairwise
    ring exchange for alltoall — are identical on every backend, in the
    same order, so collective results are bit-identical across
    backends (floating-point reduction order included).
    """

    # -- identity (subclass-provided; declared for documentation) ---------------

    rank: int
    size: int
    _world_ranks: Sequence[int]
    _record: StepRecord

    #: label of the collective in progress (watchdog reports, timeouts)
    _current_op: Optional[str] = None
    _wait_seconds = 0.0
    _wait_depth = 0
    _wait_t0 = 0.0

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # -- steps and waits -----------------------------------------------------------

    def fault_point(self, step: int) -> None:
        """Application hook at the top of each step: records ``step``
        as this rank's current step, the value structured
        :class:`repro.mpi.faults.CommTimeout` errors carry and the
        boundary at which the reliable-path retry budget refills.  A
        :class:`repro.mpi.faults.FaultComm` also fires its plan's kill
        and slow rules here."""
        self._record.step = int(step)

    @property
    def recv_timeout(self) -> Optional[float]:
        """The default receive deadline (seconds, or None)."""
        return self._ctl.recv_timeout

    def set_recv_timeout(self, seconds) -> None:
        """Retune the default receive deadline (the health layer's hook
        for deadlines from observed step times); callers set it
        collectively, with one value on every rank."""
        self._ctl.recv_timeout = None if seconds is None else float(seconds)

    @property
    def wait_seconds(self) -> float:
        """Seconds this rank spent blocked in communication on this
        communicator; straggler detection subtracts them from wall time
        to get *work* time (in lock-step collectives every rank's wall
        time equals the straggler's)."""
        return self._wait_seconds

    def _wait_enter(self) -> None:
        self._wait_depth += 1
        if self._wait_depth == 1:
            self._wait_t0 = time.perf_counter()

    def _wait_exit(self) -> None:
        self._wait_depth -= 1
        if self._wait_depth == 0:
            self._wait_seconds += time.perf_counter() - self._wait_t0

    @contextmanager
    def _collective(self, name: str):
        """Label the current collective (for watchdog reports and
        timeouts) and count its time as waiting."""
        prev = self._current_op
        self._current_op = name
        self._wait_enter()
        try:
            yield
        finally:
            self._wait_exit()
            self._current_op = prev

    # -- derived point-to-point ----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0, reliable: bool = False) -> None:
        """Send ``obj`` to ``dest``.  ``reliable=True`` asks for the
        retransmission of a lost message; the transports lose none, so
        only :class:`repro.mpi.faults.FaultComm`, whose drop rules do,
        acts on it."""
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        self._send(obj, dest, tag)

    def _recv_reliable(self, source: int, tag: int = 0) -> Any:
        """Receive whose expired waits are retried, each costing one
        unit of the per-step retry budget: a late message is delivered
        instead of failing the step."""
        # imported here: repro.mpi.faults builds FaultComm on this module
        from repro.mpi.faults import CommTimeout, retry_with_backoff

        record = self._record

        def on_retry(attempt_idx: int, exc: BaseException) -> None:
            if not record.try_consume_retry():
                raise exc

        return retry_with_backoff(
            lambda: self.recv(source, tag=tag),
            retries=_RELIABLE_RECV_RETRIES,
            base_delay=0.0,
            exceptions=(CommTimeout,),
            on_retry=on_retry,
        )

    def sendrecv(
        self, sendobj: Any, dest: int, source: int, sendtag: int = 0, recvtag: int = 0
    ) -> Any:
        self.send(sendobj, dest, tag=sendtag)
        return self.recv(source, tag=recvtag)

    # -- non-blocking point to point --------------------------------------------
    #
    # The paper's footnote 4 weighs exactly this API for the mesh
    # conversion ("One may imagine replacing this communication with
    # MPI_Isend and MPI_Irecv.  However, a FFT process receives meshes
    # from ~4000 processes.  Such a large number of non-blocking
    # communications do not work concurrently.") — provided here so the
    # alternative can be expressed and its traffic analyzed.

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send.  Every backend's transport buffers
        eagerly, so the send completes immediately; the Request exists
        for API parity and deferred error surfacing."""
        self.send(obj, dest, tag=tag)
        return Request(self, kind="send", done=True)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive; complete with ``req.wait()``."""
        return Request(self, kind="recv", source=source, tag=tag)

    # -- collectives ----------------------------------------------------------------

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast."""
        with self._collective("bcast"):
            size, rank = self.size, self.rank
            rel = (rank - root) % size
            mask = 1
            while mask < size:
                if rel < mask:
                    dst = rel + mask
                    if dst < size:
                        self.send(obj, (dst + root) % size, tag=-2)
                elif rel < 2 * mask:
                    obj = self.recv(((rel - mask) + root) % size, tag=-2)
                mask <<= 1
            return obj

    def reduce(self, value: Any, op: str = "sum", root: int = 0) -> Optional[Any]:
        """Binomial-tree reduction; result valid on root only."""
        with self._collective("reduce"):
            fn = REDUCE_OPS[op]
            size, rank = self.size, self.rank
            rel = (rank - root) % size
            acc = _copy(value)
            mask = 1
            while mask < size:
                if rel & mask:
                    self.send(acc, ((rel - mask) + root) % size, tag=-3)
                    return None
                partner = rel | mask
                if partner < size:
                    other = self.recv((partner + root) % size, tag=-3)
                    acc = fn(acc, other)
                mask <<= 1
            return acc if rank == root else None

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        return self.bcast(self.reduce(value, op=op, root=0), root=0)

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        with self._collective("gather"):
            if self.rank != root:
                self.send(obj, root, tag=-4)
                return None
            out = [None] * self.size
            out[root] = _copy(obj)
            for src in range(self.size):
                if src != root:
                    out[src] = self.recv(src, tag=-4)
            return out

    def allgather(self, obj: Any) -> List[Any]:
        return self.bcast(self.gather(obj, root=0), root=0)

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        with self._collective("scatter"):
            if self.rank == root:
                if objs is None or len(objs) != self.size:
                    raise ValueError("root must pass one object per rank")
                for dst in range(self.size):
                    if dst != root:
                        self.send(objs[dst], dst, tag=-5)
                return _copy(objs[root])
            return self.recv(root, tag=-5)

    def alltoall(self, objs: Sequence[Any], reliable: bool = False) -> List[Any]:
        """Pairwise-exchange all-to-all; ``objs[d]`` goes to rank d.

        ``reliable=True`` routes every pairwise transfer through the
        retransmitting send / retrying receive path, so transient
        injected drops and delays are absorbed (within the per-step
        retry budget) instead of failing the collective — the mode the
        particle exchange and the relay-mesh conversions run in.
        """
        with self._collective("alltoall"):
            if len(objs) != self.size:
                raise ValueError("need one object per rank")
            size, rank = self.size, self.rank
            out: List[Any] = [None] * size
            out[rank] = _copy(objs[rank])
            for step in range(1, size):
                dst = (rank + step) % size
                src = (rank - step) % size
                if reliable:
                    self.send(objs[dst], dst, tag=-6, reliable=True)
                    out[src] = self._recv_reliable(src, tag=-6)
                else:
                    out[src] = self.sendrecv(
                        objs[dst], dst, src, sendtag=-6, recvtag=-6
                    )
            return out

    def alltoallv(self, arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
        """All-to-all of numpy arrays (the MPI_Alltoallv workhorse).

        ``arrays[d]`` is sent to rank d; returns a list indexed by
        source rank.  Array shapes may differ per destination.
        """
        if len(arrays) != self.size:
            raise ValueError("need one array per rank")
        return self.alltoall([np.asarray(a) for a in arrays])

    # -- communicator management ---------------------------------------------------

    def split(self, color: Optional[int], key: Optional[int] = None):
        """Create sub-communicators by color (MPI_Comm_split).

        Ranks passing ``color=None`` get ``None`` back (MPI_UNDEFINED).
        Ranks are ordered by ``(key, rank)`` within each color.
        """
        seq = self._next_split_seq()
        me = (color, key if key is not None else self.rank, self.rank)
        all_entries = self.allgather(me)
        if color is None:
            self.barrier()
            return None
        members = sorted((k, r) for c, k, r in all_entries if c == color)
        ranks = [r for _, r in members]
        new_rank = ranks.index(self.rank)
        new_comm = self._make_split_comm(seq, color, ranks, new_rank)
        self.barrier()
        return new_comm

    def _next_split_seq(self) -> int:
        seq = getattr(self, "_split_seq", 0)
        self._split_seq = seq + 1
        return seq

    # -- hooks with a default ------------------------------------------------------

    def _check_abort(self, fallback: str = "peer rank failed") -> None:
        """Raise :class:`repro.mpi.comm.CommAborted` if the job aborted
        (its reason, else ``fallback``)."""

    @contextmanager
    def _watched(self, op: str, detail: str):
        """Show this rank as blocked in ``op`` to the job's watchdog
        while the block runs (inert on backends without one)."""
        yield

    # -- fault hooks: what FaultComm cannot do from outside the transport ------

    def _die(self, real: Optional[bool]) -> None:
        """Kill hook: a backend with real processes dies here unless
        ``real`` is False; else the FaultComm raises InjectedFault."""

    def _shm_frames(self, obj: Any) -> bool:
        """Sabotage hook: whether ``obj`` rides shared-memory frames,
        which ``corrupt_shm`` rules count and ``_send(..., sabotage=True)``
        damages; False on transports without shared memory."""
        return False


class SelfComm(CollectiveComm):
    """The one-rank communicator (``MPI_COMM_SELF``): rank 0 of 1, no
    transport.  At size 1 every collective returns without a ``send``
    or ``recv``, so a serial driver runs the same collective protocols
    (the checkpoint writer and reader) as rank 0 of 1."""

    rank = 0
    size = 1
    world_rank = 0

    def barrier(self) -> None:
        pass
