"""Elastic shrink-and-continue simulation loop.

:class:`ElasticRunner` wraps a :class:`repro.sim.parallel.ParallelSimulation`
in the recovery state machine of :mod:`repro.mpi.recovery`:

.. code-block:: text

   detect ──> consensus ──> restore ──> re-decompose ──> validate ──> continue
   (PeerFailure/     (survivor vote:   (one reader:      (multisection   (count/mass/
    CommTimeout       dead set + new    each rank file    over the        momentum vs
    from any           epoch)           from memory,      survivor set)   the manifest)
    collective)                         else disk)

Detection costs nothing extra: the existing timeout/watchdog machinery
already converts a dead or wedged peer into an exception on every
survivor.  The runner catches it, joins the consensus round and
restores the newest epoch whose every rank file resolves — from its
owner's in-memory copy, its ring buddy's, or the disk checkpoint —
through the same reader a disk resume uses.  With no deaths every rank
reloads its own payload and the replay is bit for bit; after a shrink
rank 0 merges the files and re-scatters them, and the sampling
multisection decomposition re-bootstraps at the new rank count.

Elastic jobs should run with a finite ``recv_timeout``: a survivor
blocked on a rank that already entered the consensus round escapes its
dead receive through the timeout and joins the round too.
"""

from __future__ import annotations

import time
from dataclasses import replace as _dc_replace
from functools import partial
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.config import SimulationConfig
from repro.decomp.multisection import divisions_for_ranks
from repro.mpi.faults import (
    CommTimeout,
    PeerFailure,
    apply_scheduled_flips,
    flip_file_bits,
)
from repro.mpi.health import (
    DegradationPolicy,
    HealthMonitor,
    StragglerEvicted,
    straggler_event,
)
from repro.mpi.recovery import BuddyStore, RecoveryError, RecoveryEvent, shrink_after_failure
from repro.sim import checkpoint as _ckpt
from repro.sim.checkpoint import CheckpointSpaceError
from repro.sim.parallel import ParallelSimulation, _launch_spmd
from repro.validate import (
    InvariantViolation,
    SdcAuditor,
    Validator,
    check_recovery_totals,
    refuse_unrun_checks,
)

__all__ = [
    "ElasticRunner",
    "ElasticRankReport",
    "run_elastic_simulation",
    "config_for_ranks",
]


def config_for_ranks(config: SimulationConfig, n_ranks: int) -> SimulationConfig:
    """Re-target ``config`` at ``n_ranks`` ranks.

    The domain divisions become the most compact factorization of the
    new rank count (boundaries re-bootstrap from the sampling method on
    the next step) and the relay group count is clamped so the root
    group keeps at least one FFT process.  Everything the physics
    depends on is untouched — ``config_hash()`` is invariant, so disk
    checkpoints stay loadable across the change.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    kwargs = {
        "domain": _dc_replace(
            config.domain, divisions=divisions_for_ranks(n_ranks)
        )
    }
    if config.relay.n_groups > n_ranks:
        kwargs["relay"] = _dc_replace(config.relay, n_groups=n_ranks)
    return config.with_(**kwargs)


class ElasticRunner:
    """Drives one rank of an elastic (fault-surviving) simulation.

    Parameters
    ----------
    comm:
        World communicator of an ``MPIRuntime(elastic=True)`` job.
    config, pos, mom, mass, stepper, ids:
        As for :class:`ParallelSimulation` (this rank's slice).
    buddy_every:
        Buddy-replication cadence K: the in-memory rollback boundary is
        refreshed every K completed steps.  A failure replays at most K
        steps; each refresh ships this rank's checkpoint payload to the
        ring buddy.
    checkpoint_dir, checkpoint_every, keep_last:
        Disk checkpointing and retention, as for
        :meth:`ParallelSimulation.run`.  When a directory is given, an
        initial checkpoint is written at the starting boundary so disk
        can lend a rank file lost from memory even for failures before
        the first cadence point.
    consensus_timeout:
        Seconds a survivor waits for the consensus round to seal before
        declaring the job lost.
    max_recoveries:
        Total recoveries (of any mode) after which the runner gives up
        with :class:`RecoveryError` instead of thrashing.
    """

    def __init__(
        self,
        comm,
        config: SimulationConfig,
        pos: np.ndarray,
        mom: np.ndarray,
        mass: np.ndarray,
        stepper=None,
        ids: Optional[np.ndarray] = None,
        buddy_every: int = 1,
        checkpoint_dir=None,
        checkpoint_every: Optional[int] = None,
        consensus_timeout: float = 30.0,
        max_recoveries: int = 8,
        keep_last: int = 0,
    ) -> None:
        refuse_unrun_checks(config.validation, "ElasticRunner")
        if buddy_every < 1:
            raise ValueError("buddy_every must be >= 1")
        if max_recoveries < 1:
            raise ValueError("max_recoveries must be >= 1")
        if checkpoint_every is not None and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        self.comm = comm
        self.stepper = stepper
        self.buddy_every = int(buddy_every)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.keep_last = int(keep_last)
        self.consensus_timeout = float(consensus_timeout)
        self.max_recoveries = int(max_recoveries)
        self.sim = ParallelSimulation(
            comm, config, pos, mom, mass, stepper=stepper, ids=ids
        )
        self.buddy = BuddyStore()
        #: completed recoveries, in order (identical shape on every
        #: survivor; per-rank latencies differ)
        self.events: List[RecoveryEvent] = []
        self._recover_attempts = 0
        #: ranks sealed dead by a recovery attempt that itself failed
        #: before the state was rebuilt: a consensus round reports only
        #: the deaths since the previous epoch, so the next attempt must
        #: still restore these
        self._unrestored: List[int] = []
        #: router of the SDC and straggler guards and this rank's one
        #: guard log (the simulation's own validator routes the
        #: invariants and is rebuilt with it on every recovery)
        self.guard = Validator(
            config.validation,
            rank=comm.world_rank,
            dump_fn=lambda violation: self.sim._diagnostic_dump(violation),
        )
        #: the SDC audit engine (detect -> attribute -> heal)
        self.sdc = SdcAuditor(self.guard)
        self._crc_seen = 0
        self._arm_sdc()
        #: gray-failure layer: straggler verdicts + adaptive deadlines;
        #: verdicts are collective by construction
        self.monitor = HealthMonitor(self.guard)
        #: degraded-mode engine (how the fleet keeps running with a
        #: straggler it does not evict, or under disk pressure)
        self.degrade = DegradationPolicy(self.guard)
        #: (world_rank, boundary) of a straggler this rank expects to
        #: vanish after a cooperative drain; labels the next recovery
        #: as an eviction rather than a crash
        self._pending_eviction: Optional[tuple] = None
        self._applied_deadline: Optional[float] = None

    # -- pieces ------------------------------------------------------------------

    def _refresh_buddy(self, boundary: int) -> None:
        self.buddy.refresh(self.comm, self.sim.checkpoint_payload(), boundary)

    def _health_tick(
        self, step: int, work_seconds: float, wall_seconds: float, n_steps: int
    ) -> None:
        """Collective health round after each completed step: allgather
        this step's *work* time (wall minus time blocked in
        communication), run the (deterministic, identical on every
        rank) straggler verdict, apply adaptive deadlines, and route a
        confirmed straggler through the guard.

        The ``recover`` remedy is cooperative eviction: the confirmed
        straggler takes part in one last drain — a buddy refresh at the
        just-completed boundary — then raises :class:`StragglerEvicted`;
        survivors label the resulting shrink an eviction, and the drain
        means it replays zero steps.  A straggler that stays (``warn``,
        or nobody left to shrink to) is tolerated: the degradation
        engine stretches the cadence.
        """
        rows = self.comm.allgather(
            (self.comm.world_rank, float(work_seconds), float(wall_seconds))
        )
        verdict = self.monitor.observe(
            step,
            [(r, work) for r, work, _ in rows],
            deadline_seconds=max(wall for _, _, wall in rows),
        )
        self._apply_deadline(step)
        if verdict is None:
            return
        finding = InvariantViolation(
            f"rank {verdict} is a confirmed straggler",
            check="straggler", stage="mpi/health", step=step, rank=verdict,
        )
        if self.guard.handle(finding) and self.comm.size > 1 and step < n_steps:
            self.monitor.events.append(straggler_event(
                step, verdict, "drain",
                "flushing buddy replica before cooperative eviction",
            ))
            self._refresh_buddy(step)
            if self.comm.world_rank == verdict:
                self.monitor.events.append(straggler_event(
                    step, verdict, "evict",
                    "voluntary exit after cooperative drain",
                ))
                raise StragglerEvicted(
                    f"rank {verdict} evicted as a confirmed straggler "
                    f"at step {step} (cooperative drain complete)"
                )
            self._pending_eviction = (verdict, step)
        else:
            self.degrade.escalate(
                step, verdict, f"tolerating confirmed straggler rank {verdict}"
            )

    def _apply_deadline(self, step: int) -> None:
        """Adopt the adaptive collective deadline once it departs
        materially (>25%) from the one in effect — observed step-time
        distribution instead of the fixed ``recv_timeout`` constant."""
        deadline = self.monitor.deadline.deadline()
        if deadline is None or not hasattr(self.comm, "set_recv_timeout"):
            return
        current = self._applied_deadline
        if current is not None and abs(deadline - current) <= 0.25 * current:
            return
        self.comm.set_recv_timeout(deadline)
        self._applied_deadline = deadline
        self.monitor.events.append(straggler_event(
            step, self.comm.world_rank, "deadline_widen",
            f"collective deadline {deadline:.2f}s from observed step-time "
            f"distribution",
            deadline=deadline,
        ))

    def _checkpoint_step(
        self, step: int, schedule: dict, inject_rot: bool = True
    ) -> None:
        """Durable checkpoint at ``step``, tolerant of a full disk: on
        a collective :class:`CheckpointSpaceError` the epoch is skipped
        (the ``LATEST`` pointer stays on the last complete set), a
        ``checkpoint_skipped`` event is logged, and the run continues
        (degraded, when the straggler guard is on) instead of
        crashing."""
        try:
            self.sim.checkpoint(
                self.checkpoint_dir,
                schedule={**schedule, "next_step": step},
                keep_last=self.keep_last,
            )
        except CheckpointSpaceError as exc:
            self.monitor.events.append(straggler_event(
                step, self.comm.world_rank, "checkpoint_skipped", str(exc)
            ))
            if self.guard.runs("straggler"):
                self.degrade.escalate(
                    step, self.comm.world_rank, f"disk pressure: {exc}"
                )
            return
        # retention is applied inside sim.checkpoint, before the rot
        # injection here
        if inject_rot:
            self._inject_rot(step)

    def _arm_sdc(self) -> None:
        """(Re-)enable sweep retention on the current solver when ABFT
        spot-checks are on (a recovery rebuilds the simulation, and
        with it the tree solver)."""
        if self.sdc.enabled and self.guard.config.spot_check_groups > 0:
            self.sim.tree.retain_last_sweep = True

    def _route_sdc(self, found) -> None:
        """Route one audit round's findings through the guard
        (collective).  Under ``recover`` the remedy runs: blocks with a
        clean copy heal in place, and whatever stays damaged on any rank
        raises on every rank, so the run loop rolls back."""
        if not self.guard.handle_collective(
            self.comm, self.sdc.violation(found)
        ):
            return
        left = self.sdc.heal(self.comm, self.buddy, self.sim.tree, found)
        total = self.comm.allreduce(np.array([float(len(left))]), op="sum")[0]
        if total:
            raise self.sdc.violation(left) or InvariantViolation(
                f"{int(total)} unhealed corruption finding(s) on other ranks",
                check="sdc", stage="sdc/rollback",
                step=self.sim.steps_taken, rank=self.comm.world_rank,
            )

    def _inject_state_faults(self, step: int, targets) -> None:
        """Apply the fault plan's SDC events keyed on the just-completed
        ``step`` to ``targets``: ``"live"`` (the particle arrays, hit
        before the boundary is audited and frozen) or a buddy-store
        role (its newest held file, hit once the boundary is frozen).
        Test machinery — a no-op without a plan."""
        plan = getattr(self.comm, "fault_plan", None)
        if plan is None or plan.empty:
            return
        s = self.sim
        for target in targets:
            if target == "live":
                arrays = {"pos": s.pos, "mom": s.mom, "mass": s.mass, "ids": s.ids}
            else:
                held = self.buddy.newest(target)
                if held is None:
                    continue
                arrays = held["arrays"]
            apply_scheduled_flips(
                plan, self.comm.world_rank, step, arrays, target=target
            )

    def _inject_rot(self, step: int) -> None:
        """Apply scheduled on-disk bit-rot to the checkpoint epoch this
        rank just wrote at ``step`` (after the manifest recorded the
        clean digests, so validation catches the damage)."""
        plan = getattr(self.comm, "fault_plan", None)
        if plan is None or self.checkpoint_dir is None:
            return
        for ev in plan.rot_events(self.comm.world_rank, step):
            if not plan.fire_once(("rot", ev.rank, ev.step)):
                continue
            path = (
                Path(self.checkpoint_dir)
                / _ckpt.step_dirname(step)
                / _ckpt.rank_filename(self.comm.rank, self.comm.size)
            )
            if path.exists():
                flip_file_bits(
                    path, nbits=ev.nbits, seed=(plan.seed, ev.rank, ev.step)
                )

    def _sweep(self, source) -> None:
        """Post-recovery validation sweep (collective): the restored
        global totals must match the totals the restored epoch's
        manifest recorded when it was frozen.  A violation is raised on
        every rank — recovery does not count as successful until the
        restored state proves consistent."""
        s = self.sim
        mp = s.mass[:, None] * s.mom if len(s.mass) else np.zeros((0, 3))
        totals = self.comm.allreduce(
            np.array([float(len(s.mass)), float(s.mass.sum()), *mp.sum(axis=0)]),
            op="sum",
        )
        violation = check_recovery_totals(
            int(round(totals[0])),
            float(totals[1]),
            totals[2:5],
            _ckpt.manifest_totals(source.manifest),
            step=source.step,
            rank=self.comm.rank,
        )
        if violation is not None:
            raise violation

    def _recover(self, exc: BaseException, failed_step: int) -> int:
        """The shrink-and-continue state machine; returns the step to
        resume from."""
        t0 = time.perf_counter()
        crc = getattr(self.comm, "shm_crc_failures", 0)
        if crc > self._crc_seen:
            # checksum-failed SHM frames were discarded as undelivered;
            # the timeout that brought us here is their symptom
            self.sdc.record(
                "transport", failed_step, self.comm.world_rank,
                f"{crc - self._crc_seen} SharedMemory frame(s) failed CRC32 "
                f"and were dropped",
                {"array": "shm_frame", "attribution": "transport"},
                healed=True,
            )
        self._recover_attempts += 1
        if self._recover_attempts > self.max_recoveries:
            raise RecoveryError(
                f"giving up after {self._recover_attempts - 1} recovery "
                f"attempt(s) ({len(self.events)} completed; last failure: "
                f"{type(exc).__name__}: {exc})"
            )
        new_comm, newly_dead, epoch = shrink_after_failure(
            self.comm, timeout=self.consensus_timeout
        )
        dead = self._unrestored = sorted({*self._unrestored, *newly_dead})
        # a cooperative drain preceded this shrink: the straggler's exit
        # was planned, its block is current in the buddy store, and the
        # recovery is an eviction rather than a crash response
        trigger = "failure"
        pending = self._pending_eviction
        if pending is not None and pending[0] in dead:
            trigger = "eviction"
            self._pending_eviction = None
        self.comm = new_comm
        self._crc_seen = getattr(self.comm, "shm_crc_failures", 0)
        config = (
            config_for_ranks(self.sim.config, new_comm.size)
            if dead
            else self.sim.config
        )

        # one reader: the newest epoch whose every rank file resolves
        # from memory (owner, then buddy) or disk
        source, rejected = self.buddy.restore_source(
            new_comm, config, self.checkpoint_dir
        )
        if rejected:
            # a newer disk file failed digest validation: on-disk
            # bit-rot, healed by restoring an epoch that verifies
            self.sdc.record(
                "checkpoint", failed_step, self.comm.world_rank,
                f"{', '.join(rejected)} failed digest validation; "
                f"restored step {source.step}",
                {"array": rejected[0], "attribution": "disk"},
                healed=True,
            )
        self.sim = ParallelSimulation.restore(
            new_comm, config, source, stepper=self.stepper
        )
        boundary = source.step
        self._arm_sdc()
        self._sweep(source)
        self._unrestored = []
        # re-arm replication on the new communicator at the restored
        # boundary, so a follow-up failure rolls back here, not further
        self.buddy = BuddyStore()
        self._refresh_buddy(boundary)
        self.events.append(
            RecoveryEvent(
                epoch=epoch,
                dead_ranks=tuple(dead),
                n_survivors=new_comm.size,
                mode="disk" if source.from_disk else (
                    "buddy" if dead else "rollback"
                ),
                resumed_step=boundary,
                failed_step=failed_step,
                duration=time.perf_counter() - t0,
                detail=f"restored {source.where}",
                trigger=trigger,
            )
        )
        if trigger == "eviction":
            replayed = "; zero steps replayed" if boundary == failed_step else ""
            self.monitor.events.append(straggler_event(
                boundary, pending[0], "evict_shrink",
                f"cooperative shrink to {new_comm.size} rank(s) at epoch "
                f"{epoch}{replayed}",
                epoch=float(epoch),
            ))
        return boundary

    # -- the loop ----------------------------------------------------------------

    def run(
        self, t_start: float, t_end: float, n_steps: int, first_step: int = 0
    ) -> None:
        """Integrate ``n_steps`` equal steps, surviving rank deaths.

        Failures observed as :class:`PeerFailure` or
        :class:`CommTimeout` trigger the recovery state machine; the
        loop then resumes from the restored boundary.  On a rank killed
        by the fault plan the injected :class:`RankDeath` propagates to
        the elastic runtime, which marks the rank dead.
        """
        edges = np.linspace(t_start, t_end, n_steps + 1)
        schedule = {
            "t_start": float(t_start),
            "t_end": float(t_end),
            "n_steps": int(n_steps),
        }
        i = int(first_step)
        # On backends with real processes ranks are not in lockstep: a
        # peer's death can surface while this rank is still inside the
        # initial checkpoint / replication exchanges, so initialization
        # runs under the same recovery handler as the step loop (a
        # recovery re-arms replication itself).
        initialized = False
        while True:
            try:
                if not initialized:
                    if self.checkpoint_dir is not None:
                        self._checkpoint_step(i, schedule, inject_rot=False)
                    self._refresh_buddy(i)
                    if self.sdc.enabled and self.sdc._reference_fp is None:
                        self.sdc.set_reference(
                            self.comm, self.sim.ids, self.sim.mass
                        )
                    initialized = True
                if i >= n_steps:
                    return
                t_step = time.perf_counter()
                wait0 = self.sim.wait_seconds()
                self.comm.fault_point(i)
                self.sim.step(float(edges[i]), float(edges[i + 1]))
                wall_seconds = time.perf_counter() - t_step
                # in lock-step collectives every rank's wall time equals
                # the straggler's; only work = wall - blocked-in-comm
                # identifies *which* rank is slow
                wait_seconds = self.sim.wait_seconds() - wait0
                work_seconds = max(wall_seconds - wait_seconds, 1e-9)
                i += 1
                self._inject_state_faults(i, ("live",))
                if self.guard.runs("straggler"):
                    self._health_tick(i, work_seconds, wall_seconds, n_steps)
                # degraded mode stretches the audit/checkpoint cadence
                # within the declared audit_stretch_max bound
                stretch = self.degrade.audit_stretch
                audit_due = self.sdc.due(i - first_step) and (
                    (i - first_step) % stretch == 0
                )
                refresh_due = (
                    (i - first_step) % self.buddy_every == 0 and i < n_steps
                )
                checkpoint_due = bool(self.checkpoint_every) and (
                    (i - first_step) % (self.checkpoint_every * stretch) == 0
                    or i == n_steps
                )
                # the fingerprint guards every boundary an epoch freezes,
                # in memory or on disk (not just audit steps): one whose
                # conserved arrays don't fingerprint-clean must never be
                # frozen, or a later restore would "recover" corrupted
                # state
                if audit_due or (
                    (refresh_due or checkpoint_due) and self.sdc.enabled
                ):
                    found = [
                        self.sdc.fingerprint_audit(
                            self.comm, self.sim.ids, self.sim.mass, step=i
                        )
                    ]
                    if audit_due:
                        found.append(self.sdc.spot_check(self.sim.tree, step=i))
                    self._route_sdc([ev for ev in found if ev is not None])
                if checkpoint_due:
                    self._checkpoint_step(i, schedule)
                if refresh_due:
                    self._refresh_buddy(i)
                self._inject_state_faults(i, self.buddy.copies)
                if audit_due and i < n_steps and not self.degrade.skip_derived:
                    # the snapshot audit is the non-essential derived
                    # output the degraded mode sheds; the fingerprint
                    # audit above stays on
                    self._route_sdc(
                        self.sdc.snapshot_audit(self.comm, self.buddy, step=i)
                    )
            except (PeerFailure, CommTimeout, InvariantViolation) as exc:
                # the one violation rolled back: the sdc remedy's raise
                if isinstance(exc, InvariantViolation) and not (
                    exc.check == "sdc"
                    and self.guard.policy_for("sdc") == "recover"
                ):
                    raise
                # a further failure *during* recovery (another rank died
                # mid-consensus or mid-restore) starts another round;
                # max_recoveries bounds the cascade
                first = exc
                while True:
                    try:
                        i = self._recover(exc, failed_step=i)
                        initialized = True
                        if isinstance(first, InvariantViolation):
                            # the rollback restored (and re-verified)
                            # state from before the corruption
                            self.sdc.mark_rolled_back(i)
                        break
                    except (PeerFailure, CommTimeout) as again:
                        exc = again

    def gather_state(self):
        return self.sim.gather_state()

    def report(self) -> "ElasticRankReport":
        """Picklable per-rank summary (what a multiprocess rank returns
        instead of the live — unpicklable — runner object)."""
        return ElasticRankReport(
            world_rank=self.comm.world_rank,
            final_rank=self.comm.rank,
            final_size=self.comm.size,
            epoch=self.comm.epoch,
            events=list(self.events),
            steps_taken=int(self.sim.steps_taken),
            timing=self.sim.timing.as_dict(),
            guard_events=self.guard_events,
            degraded_level=self.degrade.level,
        )

    @property
    def guard_events(self) -> List[dict]:
        """This rank's guard log in step order (SDC findings and
        straggler transitions alike), as
        :meth:`repro.validate.GuardEvent.as_dict` rows."""
        log = sorted(self.guard.events, key=lambda e: e.step)
        return [ev.as_dict() for ev in log]


class ElasticRankReport:
    """Per-rank elastic-run summary that crosses process boundaries.

    Carries what callers consume from a surviving
    :class:`ElasticRunner`: the recovery ``events``
    (:class:`repro.mpi.recovery.RecoveryEvent` instances), the final
    shrunk-communicator identity, and the per-phase timings.
    """

    def __init__(
        self,
        world_rank: int,
        final_rank: int,
        final_size: int,
        epoch: int,
        events: List[RecoveryEvent],
        steps_taken: int,
        timing,
        guard_events: Optional[List[dict]] = None,
        degraded_level: int = 0,
    ) -> None:
        self.world_rank = world_rank
        self.final_rank = final_rank
        self.final_size = final_size
        self.epoch = epoch
        self.events = events
        self.steps_taken = steps_taken
        self.timing = timing
        #: the rank's guard log, as :attr:`ElasticRunner.guard_events`
        self.guard_events = list(guard_events or [])
        #: final degradation level (0 = never degraded)
        self.degraded_level = int(degraded_level)

    def table1_rows(self):
        return dict(self.timing)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ElasticRankReport(world={self.world_rank}, "
            f"final={self.final_rank}/{self.final_size}, "
            f"epoch={self.epoch}, recoveries={len(self.events)})"
        )


def _run_elastic(comm, pos, mom, mass, config, schedule, **runner_options):
    """One rank of :func:`run_elastic_simulation`."""
    runner = ElasticRunner(comm, config, pos, mom, mass, **runner_options)
    runner.run(*schedule)
    return runner


def run_elastic_simulation(
    config: SimulationConfig,
    pos: np.ndarray,
    mom: np.ndarray,
    mass: np.ndarray,
    t_start: float,
    t_end: float,
    n_steps: int,
    stepper=None,
    torus_shape=None,
    fault_plan=None,
    buddy_every: int = 1,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    recv_timeout: float = 5.0,
    consensus_timeout: float = 30.0,
    watchdog_timeout: Optional[float] = None,
    retry_budget: int = 16,
    max_recoveries: int = 8,
    backend="thread",
    keep_last: int = 0,
):
    """Driver: like :func:`repro.sim.parallel.run_parallel_simulation`
    but on an elastic runtime that survives rank deaths.

    Returns ``(pos, mom, mass, runners, runtime)``.  ``runners`` holds
    the surviving ranks' :class:`ElasticRunner` objects (recovery
    events, timings); dead ranks contribute ``None``.  The gathered
    state comes from the shrunk communicator's root — the lowest
    surviving world rank.  ``recv_timeout`` must be finite: it is the
    detector that frees survivors blocked on a failed peer.

    ``backend`` selects the communicator backend (``"thread"`` or
    ``"multiprocess"``; both are elastic-capable — on the multiprocess
    backend the same fault plan kills *real* OS processes and this
    recovery path restores the survivors).  Out-of-process ranks
    return a picklable :class:`ElasticRankReport` in ``runners``
    instead of the live runner object.
    """
    if recv_timeout is None or recv_timeout <= 0:
        raise ValueError("elastic runs need a finite recv_timeout")

    run_rank = partial(
        _run_elastic, config=config, schedule=(t_start, t_end, n_steps),
        stepper=stepper,
        buddy_every=buddy_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        consensus_timeout=consensus_timeout,
        max_recoveries=max_recoveries,
        keep_last=keep_last,
    )
    return _launch_spmd(
        config, backend, run_rank, arrays=(pos, mom, mass),
        torus_shape=torus_shape,
        fault_plan=fault_plan,
        recv_timeout=recv_timeout,
        watchdog_timeout=watchdog_timeout,
        elastic=True,
        retry_budget=retry_budget,
    )
