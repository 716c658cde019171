"""Supervision of multiprocess SPMD jobs: liveness, consensus, cleanup.

The multiprocess backend's parent process runs one :class:`Supervisor`
thread per job.  It is the job's failure detector and control plane:

* **Liveness** — every worker beats a shared heartbeat board
  (``time.time()`` per rank) from a daemon thread; the supervisor
  combines heartbeat age with ``Process.exitcode`` to classify each
  rank as live, *suspect* (silent beyond ``suspect_timeout``) or dead.
  A rank silent beyond ``heartbeat_timeout`` is SIGKILLed and declared
  dead — a wedged process is indistinguishable from a lost node, and
  the paper's operational regime (month-long runs on 24576 nodes)
  demands that both become *detected* failures, not hangs.
* **Death propagation** — a dead rank flips its cell in the shared
  ``dead_flags`` array; every surviving rank's blocking receive polls
  the array and raises :class:`repro.mpi.faults.PeerFailure` (elastic)
  or :class:`repro.mpi.comm.CommAborted` (after the supervisor aborts a
  non-elastic job) — the same exceptions the thread backend produces,
  so the recovery stack consumes real process deaths unchanged.
* **Survivor consensus** — the supervisor doubles as the coordinator of
  the ULFM-``agree``-style round (:meth:`repro.mpi.comm.Comm.shrink`'s
  cross-process analog): workers vote through the control queue; the
  round seals when every rank not known dead has voted, and the
  identical ``(dead, survivors, epoch)`` verdict is posted to every
  voter's reply queue.  The supervisor's authoritative dead set means a
  rank dying *mid-round* shrinks the expected voter set instead of
  hanging the round.
* **Cleanup** — the parent registers an ``atexit`` hook and a SIGTERM
  guard for every live job, and workers watch their parent pid: no
  matter which side dies first (parent SIGKILLed included), worker
  processes exit and leftover ``SharedMemory`` segments are unlinked.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Supervisor", "RankStatus", "sweep_shm_segments"]

#: exit code a worker uses for an announced (simulated) elastic death
DEATH_EXIT_CODE = 21

_POLL = 0.02
#: grace period between a clean (0) exit and its result arriving
_RESULT_GRACE = 10.0

_SHM_DIR = "/dev/shm"


def sweep_shm_segments(prefix: str) -> List[str]:
    """Unlink every POSIX shared-memory segment named ``prefix*``.

    Returns the names removed.  Best-effort: on platforms without a
    visible ``/dev/shm`` the transport's receiver-side unlink plus the
    queue-drain pass is the only cleanup (leaks are then bounded by the
    OS session), and this sweep is a no-op.
    """
    removed: List[str] = []
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return removed
    for name in names:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join(_SHM_DIR, name))
                removed.append(name)
            except OSError:
                pass
    return removed


class RankStatus:
    """Supervisor-side view of one worker (liveness report row)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.alive = True
        self.suspect = False
        self.dead = False
        self.done = False
        self.exitcode: Optional[int] = None
        self.last_beat_age: Optional[float] = None
        self.reason: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "alive": self.alive,
            "suspect": self.suspect,
            "dead": self.dead,
            "done": self.done,
            "exitcode": self.exitcode,
            "last_beat_age": self.last_beat_age,
            "reason": self.reason,
        }


# -- parent-death / interpreter-exit guards -------------------------------------

_ACTIVE_JOBS: "set[Supervisor]" = set()
_GUARD_LOCK = threading.Lock()
_GUARD_INSTALLED = False
_PREV_SIGTERM: Any = None


def _cleanup_all_jobs() -> None:
    for sup in list(_ACTIVE_JOBS):
        try:
            sup.emergency_cleanup()
        except Exception:
            pass


def _sigterm_guard(signum, frame):  # pragma: no cover - signal path
    _cleanup_all_jobs()
    handler = _PREV_SIGTERM
    signal.signal(signal.SIGTERM, handler if callable(handler) else signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _register_job(sup: "Supervisor") -> None:
    """Arm the atexit + SIGTERM guards for ``sup`` (idempotent)."""
    global _GUARD_INSTALLED, _PREV_SIGTERM
    with _GUARD_LOCK:
        _ACTIVE_JOBS.add(sup)
        if not _GUARD_INSTALLED:
            atexit.register(_cleanup_all_jobs)
            try:
                prev = signal.getsignal(signal.SIGTERM)
                # leave custom application handlers alone; only the
                # default disposition (terminate without cleanup) is
                # replaced by the guarded one
                if prev in (signal.SIG_DFL, None):
                    _PREV_SIGTERM = prev
                    signal.signal(signal.SIGTERM, _sigterm_guard)
            except (ValueError, OSError):
                pass  # not the main thread, or an embedded interpreter
            _GUARD_INSTALLED = True


def _unregister_job(sup: "Supervisor") -> None:
    with _GUARD_LOCK:
        _ACTIVE_JOBS.discard(sup)


class Supervisor:
    """Monitors one multiprocess job from the parent process.

    Parameters
    ----------
    job:
        The shared-state bundle (:class:`repro.mpi.mp_backend._MPJob`):
        queues, heartbeat board, dead flags, abort event.
    processes:
        The per-rank ``multiprocessing.Process`` objects (started by
        the backend before the supervisor thread runs).
    elastic:
        Death handling: elastic jobs mark the rank dead and keep the
        job running; non-elastic jobs abort on the first death.
    suspect_timeout / heartbeat_timeout:
        Heartbeat-age thresholds (seconds): past ``suspect_timeout``
        a rank is flagged suspect in the liveness report; past
        ``heartbeat_timeout`` it is SIGKILLed and declared dead.
        ``heartbeat_timeout=None`` disables the kill (exitcode
        detection still runs).
    adaptive_liveness:
        Derive the escalation thresholds from each rank's *observed*
        inter-beat gaps instead of the fixed constants: once enough
        gaps are sampled, the suspect threshold becomes
        ``adaptive_factor`` times the 90th-percentile gap (clamped to
        ``[adaptive_floor, adaptive_ceil]``) and the kill threshold
        keeps the configured suspect/kill ratio.  Slow fleets (a
        loaded machine stretching every gap) are then not mass-killed
        by a constant tuned for a fast one, and fast fleets detect a
        genuine wedge sooner.  The configured constants remain the
        prior until the sample window fills.

    Heartbeat ages are measured on the *supervisor's* clock: a beat
    counts from the moment the supervisor observes the board value
    change, not from the timestamp the worker wrote.  A worker whose
    clock is skewed (board values in the past or future) is therefore
    judged only by whether it keeps beating — clock skew can neither
    hide a wedge nor get a healthy rank killed.
    """

    #: inter-beat gap samples retained per rank (adaptive thresholds)
    GAP_WINDOW = 64
    #: gap samples required before adaptive thresholds replace the
    #: configured constants
    GAP_MIN_SAMPLES = 8

    def __init__(
        self,
        job,
        processes,
        elastic: bool,
        suspect_timeout: float = 5.0,
        heartbeat_timeout: Optional[float] = 60.0,
        adaptive_liveness: bool = False,
        adaptive_factor: float = 8.0,
        adaptive_floor: float = 0.5,
        adaptive_ceil: float = 300.0,
    ) -> None:
        self.job = job
        self.processes = processes
        self.elastic = bool(elastic)
        self.suspect_timeout = float(suspect_timeout)
        self.heartbeat_timeout = (
            None if heartbeat_timeout is None else float(heartbeat_timeout)
        )
        self.adaptive_liveness = bool(adaptive_liveness)
        self.adaptive_factor = float(adaptive_factor)
        self.adaptive_floor = float(adaptive_floor)
        self.adaptive_ceil = float(adaptive_ceil)
        if self.adaptive_ceil < self.adaptive_floor:
            raise ValueError("adaptive_ceil must be >= adaptive_floor")
        #: per rank: (last board value seen, supervisor time it changed)
        self._beat_seen: Dict[int, Tuple[float, float]] = {}
        #: per rank: observed inter-beat gaps, oldest first (bounded)
        self._beat_gaps: Dict[int, List[float]] = {}
        n = job.n_ranks
        self.status = [RankStatus(r) for r in range(n)]
        self.results: Dict[int, Tuple[str, Any]] = {}
        self.dead: Dict[int, str] = {}
        self.abort_origin: Optional[int] = None
        self.abort_reason: Optional[str] = None
        self.epoch = 0
        self._votes: Dict[int, set] = {}
        self._sealed: Dict[int, Tuple[List[int], List[int]]] = {}
        self._zero_exit_since: Dict[int, float] = {}
        self.finished = threading.Event()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._cleaned = False

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        _register_job(self)
        self._thread = threading.Thread(
            target=self._loop, name="mp-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # -- the monitoring loop ----------------------------------------------------

    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                self._drain_control()
                self._drain_results()
                self._check_processes()
                self._check_heartbeats()
                self._try_seal_consensus()
                if self._all_accounted():
                    self.finished.set()
                    return
                time.sleep(_POLL)
        except Exception as exc:  # pragma: no cover - supervisor bug guard
            self._abort(f"supervisor failed: {type(exc).__name__}: {exc}", None)
            self.finished.set()

    def _all_accounted(self) -> bool:
        for st in self.status:
            if not (st.done or st.dead):
                return False
        return True

    # -- control / result queues -------------------------------------------------

    def _drain_control(self) -> None:
        import queue as _q

        while True:
            try:
                msg = self.job.ctrl_queue.get_nowait()
            except (_q.Empty, OSError, EOFError):
                return
            kind = msg[0]
            if kind == "abort":
                _, rank, reason = msg
                self._abort(reason, rank)
            elif kind == "death":
                _, rank, reason = msg
                self._mark_dead(rank, reason)
            elif kind == "vote":
                _, rank, rnd = msg
                rank, rnd = int(rank), int(rnd)
                sealed = self._sealed.get(rnd)
                if sealed is not None:
                    # round already sealed (this voter was marked dead
                    # and resurrected its vote late): resend the verdict
                    dead, survivors = sealed
                    try:
                        self.job.reply_queues[rank].put((rnd, dead, survivors))
                    except Exception:
                        pass
                else:
                    self._votes.setdefault(rnd, set()).add(rank)

    def _drain_results(self) -> None:
        import queue as _q

        while True:
            try:
                msg = self.job.result_queue.get_nowait()
            except (_q.Empty, OSError, EOFError):
                return
            kind, rank = msg[0], int(msg[1])
            with self._lock:
                self.results[rank] = (kind, msg[2])
                self.status[rank].done = True

    # -- process & heartbeat liveness ---------------------------------------------

    def _check_processes(self) -> None:
        now = time.time()
        for rank, proc in enumerate(self.processes):
            st = self.status[rank]
            if proc.exitcode is not None and st.exitcode is None:
                # first sight of the reaped process, however it went: a
                # queue write lock it died holding would cut its peers off
                self.job.release_write_locks(proc.pid)
            if st.done or st.dead:
                # already classified; still record the exit code once
                # the process is reaped (liveness-report completeness)
                if st.exitcode is None and proc.exitcode is not None:
                    st.exitcode = proc.exitcode
                    st.alive = False
                continue
            ec = proc.exitcode
            if ec is None:
                continue
            st.alive = False
            st.exitcode = ec
            if ec == 0:
                # clean exit: the result is in flight through the queue
                # feeder; give it a grace period before calling it a death
                since = self._zero_exit_since.setdefault(rank, now)
                self._drain_results()
                if st.done:
                    self._zero_exit_since.pop(rank, None)
                elif now - since > _RESULT_GRACE:
                    self._rank_died(
                        rank, "exited cleanly without delivering a result"
                    )
                continue
            if ec == DEATH_EXIT_CODE:
                # announced simulated death; the ctrl message normally
                # arrives first, but the exitcode alone is sufficient
                self._mark_dead(rank, "announced rank death")
            elif ec < 0:
                sig = -ec
                signame = signal.Signals(sig).name if sig < 65 else str(sig)
                self._rank_died(rank, f"killed by signal {signame}")
            else:
                self._rank_died(rank, f"process exited with code {ec}")

    def _beat_age(self, rank: int, now: float) -> Optional[float]:
        """Seconds since the supervisor last *observed* rank's board
        value change, or ``None`` if the rank has not started beating.

        The board value itself is worker-written ``time.time()`` and is
        treated as opaque: only a *change* proves liveness, and the age
        runs on the supervisor's clock, so worker clock skew (past or
        future timestamps) cannot hide a wedge or kill a healthy rank.
        """
        beat = float(self.job.hb_board[rank])
        if beat <= 0.0:
            return None
        prev = self._beat_seen.get(rank)
        if prev is None or beat != prev[0]:
            if prev is not None:
                gaps = self._beat_gaps.setdefault(rank, [])
                gaps.append(now - prev[1])
                if len(gaps) > self.GAP_WINDOW:
                    del gaps[0]
            self._beat_seen[rank] = (beat, now)
            return 0.0
        return now - prev[1]

    def effective_timeouts(self, rank: int) -> Tuple[float, Optional[float]]:
        """(suspect, kill) thresholds in effect for ``rank``.

        Fixed constants unless ``adaptive_liveness`` is on and the gap
        window has filled; then the suspect threshold tracks the
        observed 90th-percentile inter-beat gap scaled by
        ``adaptive_factor`` (clamped to the declared floor/ceil bounds)
        and the kill threshold keeps the configured suspect:kill ratio.
        """
        suspect = self.suspect_timeout
        kill = self.heartbeat_timeout
        if not self.adaptive_liveness:
            return suspect, kill
        gaps = self._beat_gaps.get(rank)
        if not gaps or len(gaps) < self.GAP_MIN_SAMPLES:
            return suspect, kill
        q90 = sorted(gaps)[int(0.9 * (len(gaps) - 1))]
        ratio = None if kill is None else kill / suspect
        suspect = min(
            self.adaptive_ceil, max(self.adaptive_floor, self.adaptive_factor * q90)
        )
        kill = None if ratio is None else suspect * ratio
        return suspect, kill

    def _check_heartbeats(self) -> None:
        now = time.time()
        for rank, proc in enumerate(self.processes):
            st = self.status[rank]
            if st.done or st.dead or not st.alive:
                continue
            age = self._beat_age(rank, now)
            if age is None:
                continue  # not started beating yet
            suspect_limit, kill_limit = self.effective_timeouts(rank)
            st.last_beat_age = age
            st.suspect = age > suspect_limit
            if kill_limit is not None and age > kill_limit:
                try:
                    proc.kill()
                except Exception:
                    pass
                self._rank_died(
                    rank,
                    f"no heartbeat for {age:.1f}s "
                    f"(limit {kill_limit:.1f}s); killed",
                )

    def _rank_died(self, rank: int, reason: str) -> None:
        """A rank is gone without announcing: elastic jobs absorb it,
        non-elastic jobs abort (mirroring the thread runtime)."""
        if self.elastic:
            self._mark_dead(rank, reason)
        else:
            self._abort(f"rank {rank} died: {reason}", rank)
            self._mark_dead(rank, reason)

    def _mark_dead(self, rank: int, reason: str) -> None:
        rank = int(rank)
        with self._lock:
            if rank in self.dead:
                return
            self.dead[rank] = reason
            st = self.status[rank]
            st.dead = True
            st.alive = False
            st.reason = reason
        # the flag wakes every peer's blocking receive (PeerFailure)
        self.job.dead_flags[rank] = 1

    def _abort(self, reason: str, origin: Optional[int]) -> None:
        with self._lock:
            if self.abort_reason is None:
                self.abort_reason = reason
                self.abort_origin = origin
                buf = reason.encode("utf-8", "replace")[
                    : len(self.job.reason_buf) - 1
                ]
                self.job.reason_buf[: len(buf)] = buf
        self.job.abort_event.set()

    # -- survivor consensus -------------------------------------------------------

    def _try_seal_consensus(self) -> None:
        rnd = self.epoch + 1
        votes = self._votes.get(rnd)
        if not votes or rnd in self._sealed:
            return
        dead = set(self.dead)
        expected = set(range(self.job.n_ranks)) - dead
        if not expected or not expected <= votes:
            return
        survivors = sorted(expected)
        self._sealed[rnd] = (sorted(dead), survivors)
        self.epoch = rnd
        verdict = (rnd, sorted(dead), survivors)
        for r in survivors:
            try:
                self.job.reply_queues[r].put(verdict)
            except Exception:  # a survivor dying right now; next round
                pass

    # -- reporting ---------------------------------------------------------------

    def liveness_report(self) -> List[Dict[str, Any]]:
        """Per-rank liveness snapshot (rank, alive/suspect/dead/done,
        exitcode, heartbeat age, death reason)."""
        now = time.time()
        with self._lock:
            rows = []
            for rank, st in enumerate(self.status):
                if st.alive:
                    age = self._beat_age(rank, now)
                    if age is not None:
                        st.last_beat_age = age
                        st.suspect = age > self.effective_timeouts(rank)[0]
                rows.append(st.as_dict())
            return rows

    # -- cleanup ------------------------------------------------------------------

    def shutdown(self, drain_blobs=None) -> None:
        """Orderly end-of-job cleanup: stop the loop, reap workers,
        drain queues (freeing in-flight shared-memory segments via
        ``drain_blobs``), sweep leftover segments."""
        if self._cleaned:
            return
        self._cleaned = True
        self.stop()
        for proc in self.processes:
            if proc.is_alive():
                proc.terminate()
        deadline = time.time() + 2.0
        for proc in self.processes:
            proc.join(timeout=max(0.0, deadline - time.time()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        if drain_blobs is not None:
            try:
                drain_blobs()
            except Exception:
                pass
        for q in [
            *self.job.data_queues,
            self.job.ctrl_queue,
            self.job.result_queue,
            *self.job.reply_queues,
        ]:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass
        sweep_shm_segments(self.job.shm_prefix)
        _unregister_job(self)

    def emergency_cleanup(self) -> None:
        """Interpreter-exit / SIGTERM path: kill every worker now and
        unlink every segment; never blocks for long."""
        for proc in self.processes:
            try:
                if proc.is_alive():
                    proc.kill()
            except Exception:
                pass
        for proc in self.processes:
            try:
                proc.join(timeout=1.0)
            except Exception:
                pass
        sweep_shm_segments(self.job.shm_prefix)
        _unregister_job(self)
