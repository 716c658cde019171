"""Pluggable communicator backends for the SPMD runtime.

The paper's SPMD code is written against MPI; this reproduction runs the
identical rank code against interchangeable *backends* behind one
interface (chainermn's ``CommunicatorBase``-over-``mpi4py`` shape):

* ``"thread"`` — the original in-process runtime
  (:class:`repro.mpi.runtime.MPIRuntime`): deterministic scheduling,
  full fault injection, traffic logging and the torus network model.
  GIL-bound, so it cannot speed up numpy-heavy rank code.
* ``"multiprocess"`` — one OS process per rank with a supervising
  parent (:class:`repro.mpi.mp_backend.MultiprocessBackend`): true
  parallelism, ``SharedMemory`` transport for large arrays, heartbeat
  liveness monitoring, and fault tolerance against *real* process
  deaths (SIGKILL included).

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
    point-to-point primitives (``send``/``recv``/``barrier``/
    ``_collective``/``_try_recv``), the liveness hooks (``fault_point``,
    ``abort``) and identity properties; the mixin derives the entire
    collective surface (bcast/reduce/allreduce/gather/allgather/
    scatter/alltoall(v)/split/sendrecv/isend/irecv) from them with the
    *same* message patterns on every backend — binomial trees and
    pairwise exchanges in identical order, so results are bit-identical
    across backends.
"""

from __future__ import annotations

import pickle
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
    #: drop/delay/corrupt message faults at the transport layer
    message_faults: bool = False
    #: ``FaultPlan.stall_collective`` hangs a rank inside a collective
    stall_faults: bool = False
    #: per-message traffic log + torus network model
    network_model: bool = False
    #: supervisor-side heartbeat liveness detection of dead/stuck ranks
    heartbeat_liveness: bool = False
    #: elastic shrink-and-continue recovery (survivor consensus)
    elastic: bool = False
    #: gray-failure tolerance: per-rank work/wait attribution
    #: (``Comm.wait_seconds``) plus slow-rank / collective-delay /
    #: disk-full fault injection for the health layer
    gray_failure: bool = False


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
    properties, ``send(obj, dest, tag, reliable=False)``,
    ``recv(source, tag, timeout=None)``, ``_recv_reliable(source,
    tag)``, ``_try_recv(source, tag) -> (bool, payload)``,
    ``barrier()``, the ``_collective(name)`` context manager (watchdog
    labeling + stall injection) and ``_make_split_comm(...)``.

    The message patterns — binomial trees for bcast/reduce, a pairwise
    ring exchange for alltoall — are identical on every backend, in the
    same order, so collective results are bit-identical across
    backends (floating-point reduction order included).
    """

    # -- identity (subclass-provided; declared for documentation) ---------------

    rank: int
    size: int

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # -- derived point-to-point ----------------------------------------------------

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

    # -- hooks subclasses must provide -------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0, reliable: bool = False) -> None:
        raise NotImplementedError

    def recv(self, source: int, tag: int = 0, timeout: Optional[float] = None) -> Any:
        raise NotImplementedError

    def _recv_reliable(self, source: int, tag: int = 0) -> Any:
        raise NotImplementedError

    def _try_recv(self, source: int, tag: int) -> Tuple[bool, Any]:
        raise NotImplementedError

    def barrier(self) -> None:
        raise NotImplementedError

    @contextmanager
    def _collective(self, name: str):
        yield

    def _make_split_comm(
        self, seq: int, color: int, member_ranks: Sequence[int], new_rank: int
    ):
        raise NotImplementedError


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
