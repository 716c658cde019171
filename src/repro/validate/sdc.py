"""Silent-data-corruption (SDC) audits: detect, attribute, heal.

A crashed rank announces itself; a flipped DRAM bit does not.  At the
paper's scale — 24576 nodes for a month — the expected number of
*silent* upsets is not zero, and a single mantissa bit in a mass array
quietly poisons every force that touches it.  This module is the
counterpart of the crash-recovery machinery in
:mod:`repro.mpi.recovery`: it assumes the job keeps running and asks
whether the *data* is still right.

Three audits run every ``interval`` steps of the guard configuration
(:class:`repro.config.ValidationConfig`, check name ``"sdc"``):

* **Snapshot audit** — every rank re-digests its frozen rollback
  snapshot and its buddy replica and cross-checks them against the
  ring partner's digests (:meth:`repro.mpi.recovery.BuddyStore.snapshot_audit`).
  Two copies plus the frozen checksums recorded at replication time
  give a two-out-of-three vote that *attributes* a mismatch to the
  owner copy, the buddy copy, the transport, or the checksum record
  itself — and every attribution except the last names a surviving
  clean copy to heal from, in place, with no communicator shrink
  (:meth:`~repro.mpi.recovery.BuddyStore.heal_in_place`).

* **Fingerprint audit** — a partition-independent 64-bit fingerprint
  of the conserved particle identity (``ids``, ``mass``) is frozen at
  run start; per-rank fingerprints sum (mod 2^64) to the global value,
  so one allgather per audit detects a corrupted *live* array no
  matter how many times the particles migrated between ranks.  Healing
  live state in place is impossible (there is no clean copy of "now"),
  so the ``recover`` remedy rolls the job back to the last verified
  boundary through the elastic recovery path.

* **ABFT force spot-check** — the tree solver retains its last
  interaction-plan sweep; each audit re-executes a deterministic
  pseudo-random sample of plan groups through the pure-python
  reference pipeline (:class:`repro.pp.plan.PlanExecutor` with
  ``use_native=False``) and compares the sampled target rows bitwise
  against the accelerations the production sweep actually produced.
  In float64 the native kernel is bitwise-identical to the reference,
  so *any* difference is a miscomputation; the remedy stops trusting
  the native path and recomputes.

Findings become :class:`repro.validate.errors.GuardEvent` rows
(``check="sdc"``) in the guard log; the router
(:class:`repro.validate.runtime.Validator`) decides whether a round's
findings warn, abort, or — under ``recover`` — get the remedy of
:meth:`SdcAuditor.heal`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.integrity import fingerprint_particles
from repro.validate.errors import GuardEvent, InvariantViolation

__all__ = ["SdcAuditor"]

_U64 = 1 << 64

#: seed of the deterministic spot-check sampler (mixed with the step
#: index and rank so every audit draws fresh groups)
SPOT_CHECK_SEED = 2012


class SdcAuditor:
    """Per-rank audit engine; the collective audits must be entered by
    all ranks of ``comm`` in lockstep — their verdicts come from
    allgathers and ring exchanges, so every rank reaches the same one.

    ``guard`` is the driver's :class:`repro.validate.Validator`: its
    configuration sets the cadence and the spot-check size, and every
    finding is logged in its :attr:`~repro.validate.Validator.events`.
    """

    def __init__(self, guard) -> None:
        self.guard = guard
        #: the guard log this auditor writes to
        self.events: List[GuardEvent] = guard.events
        #: audits executed (all kinds; diagnostic)
        self.audits_run = 0
        self._reference_fp: Optional[int] = None
        self._reference_count: Optional[int] = None

    # -- cadence -----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.guard.runs("sdc")

    def due(self, steps_since_start: int) -> bool:
        """Is the audit battery due after this many completed steps?"""
        return (
            self.enabled
            and steps_since_start > 0
            and steps_since_start % self.guard.config.interval == 0
        )

    def record(
        self, kind: str, step: int, rank: int, detail: str, data: dict,
        healed: bool = False,
    ) -> GuardEvent:
        """Log one finding (``data`` is its evidence; ``healed`` marks
        one already repaired, e.g. a CRC-dropped frame)."""
        ev = GuardEvent(
            step=step, rank=rank, check="sdc", kind=kind, detail=detail,
            healed=healed, data=data,
        )
        self.events.append(ev)
        return ev

    # -- fingerprint audit -------------------------------------------------------

    @staticmethod
    def _global_fingerprint(comm, ids, mass):
        local = fingerprint_particles(ids, mass)
        parts = comm.allgather((int(local), int(len(ids))))
        total = 0
        count = 0
        for fp, n in parts:
            total = (total + fp) % _U64
            count += n
        return total, count

    def set_reference(self, comm, ids, mass) -> None:
        """Freeze the run-start fingerprint (collective).

        ``ids`` and ``mass`` are conserved quantities: the global
        fingerprint is invariant under migration, repartitioning and
        communicator shrinks, so one reference covers the whole run.
        """
        fp, count = self._global_fingerprint(comm, ids, mass)
        self._reference_fp = fp
        self._reference_count = count

    def fingerprint_audit(self, comm, ids, mass, step: int) -> Optional[GuardEvent]:
        """Compare the live global fingerprint against the reference
        (collective; every rank returns the same verdict).  The first
        call with no reference freezes one instead of judging."""
        if not self.enabled:
            return None
        fp, count = self._global_fingerprint(comm, ids, mass)
        if self._reference_fp is None:
            self._reference_fp = fp
            self._reference_count = count
            return None
        self.audits_run += 1
        if fp == self._reference_fp and count == self._reference_count:
            return None
        return self.record(
            "fingerprint", step, -1,
            f"global fingerprint {fp:#018x} (count {count}) != reference "
            f"{self._reference_fp:#018x} (count {self._reference_count})",
            {"array": "ids/mass", "attribution": "live"},
        )

    # -- ABFT force spot-check ---------------------------------------------------

    def spot_check(self, solver, step: int) -> Optional[GuardEvent]:
        """Re-sweep a sampled subset of the last interaction plan
        through the reference pipeline and compare rows bitwise.

        Local (no communication): each rank checks its own sweep.
        Needs ``solver.retain_last_sweep`` to have been on during the
        sweep.
        """
        groups_per_audit = self.guard.config.spot_check_groups
        if not self.enabled or groups_per_audit < 1:
            return None
        sweep = getattr(solver, "last_sweep", None)
        if not sweep:
            return None
        plan = sweep["plan"]
        if plan is None or plan.n_groups == 0:
            return None
        from repro.pp.kernel import PPKernel
        from repro.pp.plan import PlanExecutor, multi_arange, slice_plan

        self.audits_run += 1
        rank = self.guard.rank or 0
        rng = np.random.default_rng((SPOT_CHECK_SEED, step, rank))
        k = min(groups_per_audit, plan.n_groups)
        groups = np.sort(rng.choice(plan.n_groups, size=k, replace=False))
        sub = slice_plan(plan, groups)
        kc = sweep["kernel_config"]
        kernel = PPKernel(
            split=kc["split"],
            eps=kc["eps"],
            G=kc["G"],
            use_fast_rsqrt=kc["use_fast_rsqrt"],
            box=kc["box"],
            ewald_table=kc["ewald_table"],
        )
        main = solver._executor
        ref = PlanExecutor(
            dtype=main.dtype,
            pair_budget=main.pair_budget,
            use_native=False,
        )
        out = np.zeros_like(sweep["acc_sorted"])
        ref.execute(
            sub,
            kernel,
            sweep["pos_sorted"],
            sweep["mass_sorted"],
            sweep["node_com"],
            sweep["node_mass"],
            out=out,
        )
        rows = multi_arange(plan.group_lo[groups], plan.group_hi[groups])
        got = sweep["acc_sorted"][rows]
        want = out[rows]
        if np.array_equal(got, want):
            return None
        bad = int(np.count_nonzero(np.any(got != want, axis=-1)))
        return self.record(
            "spot_check", step, rank,
            f"{bad} of {rows.size} sampled target rows differ from the "
            f"reference sweep ({k} of {plan.n_groups} groups sampled, "
            f"native_used={bool(sweep['native_used'])})",
            {"array": "acc", "attribution": "compute"},
        )

    # -- snapshot audit ----------------------------------------------------------

    def snapshot_audit(self, comm, buddy, step: int) -> List[GuardEvent]:
        """Cross-check the frozen rollback copies against the ring
        partner's digests (collective); one event per damaged block,
        carrying the vote's finding (snapshot step, owner, array, role,
        attribution, healable) as its data."""
        if not self.enabled:
            return []
        self.audits_run += 1
        return [
            self.record(
                "snapshot", step, f["owner"],
                f"role={f['role']} snapshot_step={f['step']}", f,
            )
            for f in buddy.snapshot_audit(comm)
        ]

    # -- routing and remedy ------------------------------------------------------

    def violation(
        self, events: Sequence[Optional[GuardEvent]]
    ) -> Optional[InvariantViolation]:
        """An audit round's first unhealed finding as the violation the
        router takes (``None`` when the round found nothing)."""
        ev = next((e for e in events if e is not None and not e.healed), None)
        if ev is None:
            return None
        return InvariantViolation(
            ev.detail, check="sdc", stage=f"sdc/{ev.kind}", step=ev.step,
            rank=self.guard.rank, stats=dict(ev.data),
        )

    def heal(
        self, comm, buddy, solver, events: List[GuardEvent]
    ) -> List[GuardEvent]:
        """The ``recover`` remedy for one audit round (collective with
        the round): a spot-check miss stops trusting the native sweep;
        every snapshot block with a surviving clean copy is restored in
        place from it (:meth:`repro.mpi.recovery.BuddyStore.heal_in_place`).
        Returns the findings still unhealed: the caller rolls them back.
        """
        if any(ev.kind == "spot_check" for ev in events):
            solver._executor.use_native = False
        snaps = [ev for ev in events if ev.kind == "snapshot"]
        findings = (
            buddy.heal_in_place(comm, [ev.data for ev in snaps]) if snaps else []
        )
        left = [ev for ev in events if ev.kind != "snapshot"]
        for ev, f in zip(snaps, findings):
            if f["healed"]:
                self.mark_healed(ev)
            else:
                left.append(ev)
        return left

    def mark_healed(self, event: GuardEvent, note: str = "") -> None:
        """Replace ``event`` in the log by its healed copy."""
        log = self.events
        i = next(i for i, ev in enumerate(log) if ev is event)
        detail = f"{event.detail}; {note}" if note else event.detail
        log[i] = replace(event, healed=True, detail=detail)

    def mark_rolled_back(self, boundary: int) -> None:
        """A rollback re-verified the state every unhealed finding
        damaged."""
        for ev in [e for e in self.events if e.check == "sdc" and not e.healed]:
            self.mark_healed(ev, f"healed by rollback to step {boundary}")
