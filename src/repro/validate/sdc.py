"""Silent-data-corruption (SDC) audits: detect, attribute, heal.

A crashed rank announces itself; a flipped DRAM bit does not.  At the
paper's scale — 24576 nodes for a month — the expected number of
*silent* upsets is not zero, and a single mantissa bit in a mass array
quietly poisons every force that touches it.  This module is the
counterpart of the crash-recovery machinery in
:mod:`repro.mpi.recovery`: it assumes the job keeps running and asks
whether the *data* is still right.

Three audits run at a configurable cadence (:class:`repro.config.SdcConfig`):

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
  so the ``heal`` policy rolls the job back to the last verified
  boundary through the elastic recovery path.

* **ABFT force spot-check** — the tree solver retains its last
  interaction-plan sweep; each audit re-executes a deterministic
  pseudo-random sample of plan groups through the pure-python
  reference pipeline (:class:`repro.pp.plan.PlanExecutor` with
  ``use_native=False``) and compares the sampled target rows bitwise
  against the accelerations the production sweep actually produced.
  In float64 the native kernel is bitwise-identical to the reference,
  so *any* difference is a miscomputation; healing disables the native
  path and rolls back.

Findings become structured :class:`SdcEvent` records (detected →
attributed → healed); the :class:`SdcConfig` policy decides whether a
detection warns, heals, or aborts via :class:`SdcViolation`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import SdcConfig
from repro.utils.integrity import fingerprint_particles

__all__ = [
    "SdcEvent",
    "SdcViolation",
    "SdcWarning",
    "SdcAuditor",
]

_U64 = 1 << 64


class SdcWarning(UserWarning):
    """Emitted under the ``warn`` policy for every detection."""


class SdcViolation(RuntimeError):
    """Corruption the configured policy does not allow to pass.

    Raised collectively (every rank of the audit raises together, from
    the same allreduced verdict) so the elastic runner can route it
    into the recovery state machine like a rank failure.  ``events``
    carries this rank's contributing :class:`SdcEvent` records — it may
    be empty on ranks that only learned of the corruption through the
    collective verdict.
    """

    def __init__(self, message: str, events: Optional[List["SdcEvent"]] = None):
        super().__init__(message)
        self.events: List[SdcEvent] = list(events or [])


@dataclass
class SdcEvent:
    """One detected corruption, as seen from one rank.

    Attributes
    ----------
    step:
        Application step of the audit that caught it.
    kind:
        ``"snapshot"`` (frozen rollback copies), ``"fingerprint"``
        (live conserved arrays), ``"spot_check"`` (force sweep),
        ``"transport"`` (a checksum-failed SHM frame) or
        ``"checkpoint"`` (on-disk bit-rot).
    array:
        The damaged array (or file) name.
    owner_world_rank:
        World rank owning the damaged data; ``-1`` when the audit only
        establishes a global property (fingerprint mismatch).
    attribution:
        Verdict of the evidence vote: ``"owner"``, ``"buddy"``,
        ``"transport"``, ``"checksum"``, ``"live"``, ``"compute"`` or
        ``"unrecoverable"``.
    detected / healed:
        Lifecycle flags; ``healed`` flips when a clean copy was
        restored in place or a rollback re-verified the state.
    detail:
        Free-form evidence summary.
    """

    step: int
    kind: str
    array: str
    owner_world_rank: int = -1
    attribution: str = "unknown"
    detected: bool = True
    healed: bool = False
    detail: str = ""

    def summary(self) -> dict:
        """JSON-ready form (manifests, reports)."""
        return {
            "step": self.step,
            "kind": self.kind,
            "array": self.array,
            "owner_world_rank": self.owner_world_rank,
            "attribution": self.attribution,
            "detected": self.detected,
            "healed": self.healed,
            "detail": self.detail,
        }


@dataclass
class SdcAuditor:
    """Per-rank audit engine; all audits are collective calls.

    One auditor lives on each rank (the elastic runner owns it) and
    accumulates the rank-local :class:`SdcEvent` stream.  Every audit
    method must be entered by all ranks of ``comm`` in lockstep — the
    verdicts come from allgathers/ring exchanges, so every rank reaches
    the same decision and the policy raise is collective.
    """

    config: SdcConfig = field(default_factory=SdcConfig)
    world_rank: int = 0
    events: List[SdcEvent] = field(default_factory=list)
    #: audits executed (all kinds; diagnostic)
    audits_run: int = 0
    _reference_fp: Optional[int] = None
    _reference_count: Optional[int] = None

    # -- cadence -----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def due(self, steps_since_start: int) -> bool:
        """Is the audit battery due after this many completed steps?"""
        return (
            self.enabled
            and steps_since_start > 0
            and steps_since_start % self.config.audit_every == 0
        )

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

    def fingerprint_audit(self, comm, ids, mass, step: int) -> Optional[SdcEvent]:
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
        ev = SdcEvent(
            step=step,
            kind="fingerprint",
            array="ids/mass",
            owner_world_rank=-1,
            attribution="live",
            detail=(
                f"global fingerprint {fp:#018x} (count {count}) != reference "
                f"{self._reference_fp:#018x} (count {self._reference_count})"
            ),
        )
        self.events.append(ev)
        return ev

    # -- ABFT force spot-check ---------------------------------------------------

    def spot_check(self, solver, step: int) -> Optional[SdcEvent]:
        """Re-sweep a sampled subset of the last interaction plan
        through the reference pipeline and compare rows bitwise.

        Local (no communication): each rank checks its own sweep; the
        collective verdict happens in :meth:`apply_policy`.  Needs
        ``solver.retain_last_sweep`` to have been on during the sweep.
        """
        cfg = self.config
        if not self.enabled or cfg.spot_check_groups < 1:
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
        rng = np.random.default_rng((cfg.seed, step, self.world_rank))
        k = min(cfg.spot_check_groups, plan.n_groups)
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
        if self.config.policy == "heal":
            # stop trusting the production path before the rollback
            # recomputes these forces
            main.use_native = False
        ev = SdcEvent(
            step=step,
            kind="spot_check",
            array="acc",
            owner_world_rank=self.world_rank,
            attribution="compute",
            detail=(
                f"{bad} of {rows.size} sampled target rows differ from the "
                f"reference sweep ({k} of {plan.n_groups} groups sampled, "
                f"native_used={bool(sweep['native_used'])})"
            ),
        )
        self.events.append(ev)
        return ev

    # -- snapshot audit ----------------------------------------------------------

    def snapshot_audit(self, comm, buddy, step: int) -> List[SdcEvent]:
        """Cross-check the frozen rollback copies against the ring
        partner's digests; under the ``heal`` policy, restore every
        healable block in place from its surviving clean copy
        (collective)."""
        if not self.enabled:
            return []
        self.audits_run += 1
        findings = buddy.snapshot_audit(comm)
        if self.config.policy == "heal":
            findings = buddy.heal_in_place(comm, findings)
        new = [
            SdcEvent(
                step=step,
                kind="snapshot",
                array=f["array"],
                owner_world_rank=f["owner"],
                attribution=f["attribution"],
                healed=bool(f.get("healed", False)),
                detail=f"role={f['role']} snapshot_step={f['step']}",
            )
            for f in findings
        ]
        self.events.extend(new)
        return new

    # -- external detections -----------------------------------------------------

    def record(self, event: SdcEvent) -> SdcEvent:
        """Append an event produced outside the audit battery (transport
        CRC failures, checkpoint bit-rot found during recovery)."""
        self.events.append(event)
        return event

    def mark_rolled_back(self, events: List[SdcEvent], boundary: int) -> None:
        """A rollback re-verified the state these events damaged."""
        for ev in events:
            if not ev.healed:
                ev.healed = True
                ev.detail = (
                    f"{ev.detail}; healed by rollback to step {boundary}"
                ).lstrip("; ")

    # -- policy ------------------------------------------------------------------

    def apply_policy(self, comm, new_events: List[SdcEvent]) -> None:
        """Collective verdict on this audit round's detections.

        ``warn`` logs and continues; ``heal`` raises
        :class:`SdcViolation` only for events nothing healed in place
        (the caller's recovery path is the heal of last resort);
        ``abort`` raises on any detection.  The raise happens on every
        rank of ``comm`` together: the fatal count is allreduced, so a
        rank with no local events still joins the recovery round its
        peers are about to enter.
        """
        policy = self.config.policy
        if policy in ("off",) or not self.enabled:
            return
        if policy == "warn":
            for ev in new_events:
                warnings.warn(
                    f"SDC detected (policy=warn): {ev.summary()}", SdcWarning
                )
            return
        if policy == "abort":
            fatal = [ev for ev in new_events if ev.detected]
        else:  # heal
            fatal = [ev for ev in new_events if ev.detected and not ev.healed]
        n_local = len(fatal)
        if comm is not None and comm.size > 1:
            total = int(
                comm.allreduce(np.array([float(n_local)]), op="sum")[0]
            )
        else:
            total = n_local
        if total:
            raise SdcViolation(
                f"{total} unhealed corruption event(s) under policy "
                f"{policy!r} (this rank: {n_local})",
                events=fatal,
            )
