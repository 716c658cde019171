"""SPMD thread runtime: launch one thread per rank.

The runtime owns the world communicator state, the shared traffic log,
and (optionally) a torus network model whose shape defaults to a flat
1-D torus.  Failure semantics are deadlock-free: an exception in any
rank aborts the whole job (barriers break, blocked receives raise
:class:`CommAborted`), an optional watchdog converts a hung collective
into a clean abort naming the originating rank and operation, and the
raised :class:`RuntimeError` carries *every* rank's failure (plus which
ranks were aborted as secondary casualties) instead of silently keeping
only one.

Fault injection for tests comes from a
:class:`repro.mpi.faults.FaultPlan`: each rank's world communicator is
wrapped in a :class:`repro.mpi.faults.FaultComm`; see
``docs/fault_tolerance.md``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.mpi.backend import BackendCapabilities, CommBackend, job_results
from repro.mpi.comm import Comm, CommAborted, _CommState, _JobControl
from repro.mpi.faults import FaultComm, FaultPlan, RankDeath
from repro.mpi.network import TorusNetwork, TrafficLog

__all__ = ["MPIRuntime", "run_spmd"]


class MPIRuntime(CommBackend):
    """Executes SPMD functions on ``n_ranks`` in-process ranks — the
    ``"thread"`` communicator backend (deterministic default).

    Parameters
    ----------
    n_ranks:
        Number of ranks (threads).
    torus_shape:
        Shape of the modeled torus; defaults to ``(n_ranks, 1, 1)``.
        Must multiply to ``n_ranks``.
    link_bandwidth, link_latency:
        Parameters of the network performance model.
    fault_plan:
        Optional :class:`repro.mpi.faults.FaultPlan` of injected
        failures (rank kills, message drop/delay/corrupt, stalled
        collectives); every rank gets its world communicator wrapped
        in a :class:`repro.mpi.faults.FaultComm` applying it.
    recv_timeout:
        Job-wide default timeout (seconds) for blocking receives; a
        receive that exceeds it raises
        :class:`repro.mpi.faults.CommTimeout` instead of hanging.
        ``None`` (default) waits until the job aborts.
    watchdog_timeout:
        When set, a watchdog thread monitors blocked operations and
        aborts the job once any rank has been stuck longer than this
        many seconds, naming the rank and operation in the abort
        reason.
    elastic:
        Survivable-death mode: a rank raising
        :class:`repro.mpi.faults.RankDeath` (which
        :class:`InjectedFault` subclasses) is marked dead instead of
        aborting the job.  Survivors observe a
        :class:`repro.mpi.comm.PeerFailure` from their next blocking
        operation and are expected to run the shrink-and-continue
        protocol of :mod:`repro.mpi.recovery`.  Dead ranks contribute
        ``None`` to the result list; the job only fails if a rank
        raises a non-death error, the watchdog fires, or every rank
        dies.
    retry_budget:
        Per-rank, per-step cap on "reliable"-path retransmissions
        (``Comm.send(reliable=True)`` / ``Comm.alltoall(reliable=True)``).
    """

    name = "thread"

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        return BackendCapabilities(
            true_parallelism=False,
            simulated_kill=True,
            real_process_kill=False,
            network_model=True,
            heartbeat_liveness=False,
            elastic=True,
        )

    def __init__(
        self,
        n_ranks: int,
        torus_shape: Optional[Sequence[int]] = None,
        link_bandwidth: float = 5.0e9,
        link_latency: float = 1.0e-6,
        fault_plan: Optional[FaultPlan] = None,
        recv_timeout: Optional[float] = None,
        watchdog_timeout: Optional[float] = None,
        elastic: bool = False,
        retry_budget: int = 16,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        shape = tuple(torus_shape) if torus_shape else (n_ranks, 1, 1)
        if shape[0] * shape[1] * shape[2] != n_ranks:
            raise ValueError("torus_shape must multiply to n_ranks")
        if recv_timeout is not None and recv_timeout <= 0:
            raise ValueError("recv_timeout must be positive")
        if watchdog_timeout is not None and watchdog_timeout <= 0:
            raise ValueError("watchdog_timeout must be positive")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        self.n_ranks = int(n_ranks)
        self.traffic = TrafficLog()
        self.network = TorusNetwork(shape, link_bandwidth, link_latency)
        self.fault_plan = fault_plan
        self.recv_timeout = recv_timeout
        self.watchdog_timeout = watchdog_timeout
        self.elastic = bool(elastic)
        self.retry_budget = int(retry_budget)
        #: world ranks that died in the last elastic run (diagnostics)
        self.dead_ranks: List[int] = []

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank.

        Returns the per-rank return values (index = rank).  If any rank
        raises, the job is aborted and a :class:`RuntimeError` is
        raised that names every failing rank (and its thread); the
        lowest failing rank's exception is the ``__cause__``.  The
        error also records, as attributes, ``rank_errors`` (dict of
        rank -> exception), ``aborted_ranks`` (ranks that died with a
        secondary :class:`CommAborted`) and ``abort_origin`` (the rank
        whose failure aborted the job first).
        """
        control = _JobControl(
            recv_timeout=self.recv_timeout,
            elastic=self.elastic,
            world_size=self.n_ranks,
            retry_budget=self.retry_budget,
        )
        state = _CommState(
            self.n_ranks, list(range(self.n_ranks)), self.traffic, control
        )
        results: List[Any] = [None] * self.n_ranks
        failures: List[Tuple[int, BaseException]] = []
        aborted: List[Tuple[int, CommAborted]] = []
        deaths: List[Tuple[int, BaseException]] = []
        err_lock = threading.Lock()

        def worker(rank: int) -> None:
            comm = Comm(state, rank)
            if self.fault_plan is not None:
                comm = FaultComm(comm, self.fault_plan)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except CommAborted as exc:
                # secondary failure caused by another rank: recorded,
                # not reported as its own error
                with err_lock:
                    aborted.append((rank, exc))
            except RankDeath as exc:
                if control.elastic:
                    # survivable: mark dead (waking blocked survivors)
                    # and let the rest of the job shrink and continue
                    with err_lock:
                        deaths.append((rank, exc))
                    control.mark_dead(rank)
                else:
                    with err_lock:
                        failures.append((rank, exc))
                    control.abort(
                        reason=f"rank {rank} failed: {type(exc).__name__}: {exc}",
                        origin=rank,
                    )
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                with err_lock:
                    failures.append((rank, exc))
                control.abort(
                    reason=f"rank {rank} failed: {type(exc).__name__}: {exc}",
                    origin=rank,
                )

        watchdog_stop = threading.Event()
        watchdog_thread: Optional[threading.Thread] = None
        if self.watchdog_timeout is not None and self.n_ranks > 1:
            control.watching = True
            limit = self.watchdog_timeout

            def watchdog() -> None:
                poll = max(min(0.05, limit / 4.0), 1e-3)
                while not control.abort_event.is_set():
                    entry = control.oldest_blocked()
                    now = time.monotonic()
                    if entry is not None and now - entry[3] > limit:
                        rank_w, op, detail, since = entry
                        where = f"{op} ({detail})" if detail else op
                        control.abort(
                            reason=(
                                f"watchdog: rank {rank_w} stuck in {where} "
                                f"for {now - since:.2f}s"
                            ),
                            origin=rank_w,
                        )
                        return
                    if watchdog_stop.wait(poll):
                        return

            watchdog_thread = threading.Thread(
                target=watchdog, name="mpi-watchdog", daemon=True
            )
            watchdog_thread.start()

        try:
            if self.n_ranks == 1:
                # run inline: keeps tracebacks simple and debugging easy
                worker(0)
            else:
                # daemon threads: a rank hung beyond every timeout can
                # never wedge interpreter shutdown
                threads = [
                    threading.Thread(
                        target=worker, args=(r,), name=f"rank-{r}", daemon=True
                    )
                    for r in range(self.n_ranks)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        finally:
            watchdog_stop.set()
            if watchdog_thread is not None:
                watchdog_thread.join(timeout=1.0)

        self.dead_ranks = sorted(r for r, _ in deaths)
        return job_results(
            results, self.elastic, failures, aborted, dict(deaths),
            control.abort_reason, control.abort_origin, "thread rank-{rank}",
        )


def run_spmd(
    n_ranks: int, fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> List[Any]:
    """One-shot convenience: ``MPIRuntime(n_ranks).run(fn, ...)``."""
    return MPIRuntime(n_ranks).run(fn, *args, **kwargs)
