"""Elastic shrink-and-continue recovery: consensus, buddies, shrunk comms.

The paper's headline runs occupy up to 82944 nodes for many hours — a
regime where losing a rank is an expected event, not an anomaly.  GreeM's
sampling-based multisection decomposition recomputes domains every step
anyway, which is exactly what makes *continuing on fewer ranks* cheap:
nothing about the decomposition is tied to the original rank count.
This module provides the runtime half of that ULFM-style protocol for
``MPIRuntime(elastic=True)`` jobs:

* **Survivor consensus** — after a death surfaces (as
  :class:`~repro.mpi.faults.PeerFailure` from a blocking operation, or
  :class:`~repro.mpi.faults.CommTimeout` when a message silently never
  arrived), every live rank calls :func:`shrink_after_failure`.  The
  shared consensus board (the in-process analog of ``MPIX_Comm_agree``)
  blocks until all live ranks voted, then returns the identical
  ``(dead set, survivors, epoch)`` everywhere.
* **Shrunk communicator** — the survivors get a fresh communicator
  state for the new epoch: new queues, a new barrier, ranks renumbered
  ``0..len(survivors)-1`` in world-rank order.  Every message carries
  its epoch, so a straggler sent before the failure can never be
  delivered into post-recovery traffic (it is counted in
  ``comm.stale_rejected`` instead).
* **Buddy replication** — :class:`BuddyStore` is the in-memory tier
  of the checkpoint format: each rank keeps its own checkpoint rank
  file of the last boundaries, with the same per-array checksums and
  manifest entry a disk epoch records, and a copy of its ring
  predecessor's (refreshed every K steps).  Every recovery is one
  :func:`repro.sim.checkpoint.read_checkpoint` over the newest epoch
  whose rank files resolve — each from its owner's copy, else its
  buddy's, else disk (multi-level checkpointing, as in SCR).

The simulation-level wiring (re-decomposition over the survivor set,
step re-execution, the post-recovery validation sweep) lives in
:mod:`repro.sim.elastic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.comm import Comm
from repro.sim import checkpoint as _ckpt
from repro.utils.integrity import array_digest as _digest

__all__ = [
    "RecoveryError",
    "RecoveryEvent",
    "BuddyStore",
    "shrink_after_failure",
    "BUDDY_TAG",
    "AUDIT_OWN_TAG",
    "AUDIT_PEER_TAG",
    "HEAL_TAG",
]

#: message tag of the buddy-replication ring exchange
BUDDY_TAG = -17

#: SDC audit: owner -> buddy digest report about the owner's own block
AUDIT_OWN_TAG = -19
#: SDC audit: buddy -> owner digest report about the replica it holds
AUDIT_PEER_TAG = -21
#: SDC healing: clean-copy block transfer between owner and buddy
HEAL_TAG = -23


class RecoveryError(RuntimeError):
    """In-run recovery is impossible (or produced an invalid state).

    Raised when no epoch resolves — a rank file lost with its owner
    and buddy and absent (or rotted) on disk — or the runner ran out
    of attempts: the job gives up loudly."""


@dataclass
class RecoveryEvent:
    """One completed recovery, as reported by the elastic run loop."""

    epoch: int
    dead_ranks: Tuple[int, ...]
    n_survivors: int
    #: ``"disk"`` (some rank file came from disk), else ``"buddy"``
    #: (ranks died; every file came from memory) or ``"rollback"`` (no
    #: deaths — a transient failure or a corruption rolled back; same
    #: rank count, so the replay is bit for bit)
    mode: str
    #: step the survivors resumed from (the rolled-back boundary)
    resumed_step: int
    #: step at which the failure surfaced on this rank
    failed_step: int
    #: wall-clock seconds from failure detection to a validated state
    duration: float
    detail: str = ""
    #: what initiated the shrink: ``"failure"`` (crash / timeout /
    #: corruption — the classic path) or ``"eviction"`` (a planned,
    #: cooperative drain of a confirmed straggler by the health layer)
    trigger: str = "failure"


class BuddyStore:
    """The in-memory tier of the checkpoint format, replicated over a ring.

    Every ``refresh`` (collective) freezes this rank's checkpoint
    payload — its *self copy*, the rollback boundary — with the
    per-array :func:`~repro.utils.integrity.array_digest` checksums and
    the manifest entry :func:`~repro.sim.checkpoint.write_checkpoint`
    would record, and ships the same rank file to the ring successor
    ``(rank + 1) % size`` while receiving the predecessor's.  Recovery
    reads these files through the one checkpoint reader:
    :meth:`restore_source` resolves each rank file of the newest
    complete epoch from the owner's copy, else the buddy's, else disk.

    The refresh cadence K trades overhead for staleness: each refresh
    costs one ring message of the full payload, and a failure loses at
    most K steps of progress — a checkpoint-interval trade-off at
    memory speed, without touching the filesystem.

    The store keeps the last :data:`HISTORY_DEPTH` boundaries, not just
    the newest.  On backends with real processes a rank can be killed
    *mid-refresh*: its own send may never leave the dying process, so
    its file at the new boundary exists nowhere, while the boundary
    before — whose copies are provably delivered, FIFO-ordered behind a
    full step of traffic — is complete; the newest-complete-epoch rule
    then picks the older one.
    """

    #: boundaries retained; 2 covers a single mid-refresh crash per
    #: round (the store is rebuilt fresh after every recovery)
    HISTORY_DEPTH = 2

    def __init__(self) -> None:
        #: held rank files by role (the fault plan's flip targets), each
        #: ``boundary step -> file``, oldest first.  A file is a dict:
        #: ``arrays``/``meta`` (the payload), ``checksums``, ``entry``
        #: (its manifest entry), ``owner`` (world rank) and ``size``
        #: (the writer's rank count); a buddy copy adds ``received``,
        #: the digests recomputed the moment it arrived.
        self.copies: Dict[str, Dict[int, Dict[str, Any]]] = {
            "self_copy": {},
            "peer_copy": {},
        }

    def newest(self, role: str) -> Optional[Dict[str, Any]]:
        """The newest held file of ``role`` (None before the first)."""
        held = self.copies[role]
        return held[max(held)] if held else None

    def _keep(self, role: str, step: int, held: Dict[str, Any]) -> None:
        copies = self.copies[role]
        copies[int(step)] = held
        while len(copies) > self.HISTORY_DEPTH:
            copies.pop(min(copies))

    def refresh(self, comm: Comm, payload, step: int) -> None:
        """Collective: freeze the rank-file ``payload`` ``(arrays, meta)``
        at boundary ``step`` and exchange buddy copies around the ring."""
        arrays, meta = payload
        entry = {"rank": comm.rank, **_ckpt.rank_totals(arrays)}
        arrays = {k: np.array(a, copy=True) for k, a in arrays.items()}
        own = {
            "owner": comm.world_rank,
            "size": comm.size,
            "arrays": arrays,
            "meta": dict(meta),
            "checksums": {k: _digest(a) for k, a in arrays.items()},
            "entry": entry,
        }
        self._keep("self_copy", step, own)
        if comm.size == 1:
            self.copies["peer_copy"].clear()
            return
        succ = (comm.rank + 1) % comm.size
        pred = (comm.rank - 1) % comm.size
        comm.send(own, succ, tag=BUDDY_TAG, reliable=True)
        got = comm.recv(pred, tag=BUDDY_TAG)
        got["received"] = {k: _digest(a) for k, a in got["arrays"].items()}
        self._keep("peer_copy", step, got)

    # -- recovery ---------------------------------------------------------------

    def restore_source(
        self, comm: Comm, config, checkpoint_dir=None
    ) -> Tuple[_ckpt.Epoch, List[str]]:
        """Collective (on the shrunk comm): the newest epoch whose every
        rank file resolves, as a :func:`repro.sim.checkpoint.read_checkpoint`
        source, and the newer disk files passed over because they
        failed their digests.

        Each survivor reports the files it holds and whether they pass
        their checksums; rank 0 walks the in-memory and on-disk epochs
        newest first and resolves each rank file from its owner's copy,
        else its buddy's, else the disk epoch of the same step and rank
        count, and broadcasts the verdict.  Raises
        :class:`RecoveryError` when no epoch resolves.
        """
        report = [
            {
                "role": role,
                "step": step,
                "size": held["size"],
                "entry": held["entry"],
                "valid": held["checksums"]
                == {k: _digest(a) for k, a in held["arrays"].items()},
            }
            for role, copies in self.copies.items()
            for step, held in copies.items()
        ]
        reports = comm.gather(report, root=0)
        plan = None
        if comm.rank == 0:
            plan = _resolve(reports, config.config_hash(), checkpoint_dir)
        plan = comm.bcast(plan, root=0)
        if "error" in plan:
            raise RecoveryError(plan["error"])
        step = plan["step"]
        local = {role: held[step] for role, held in self.copies.items() if step in held}
        epoch = _ckpt.Epoch(plan["step_dir"], plan["manifest"], plan["holders"], local)
        return epoch, plan["rejected"]

    # -- silent-data-corruption audit & in-place healing -------------------------

    @staticmethod
    def _attribute(a, b, c, r, shipped) -> str:
        """Two-out-of-three vote over one array's digests.

        ``a`` — owner's recompute over its stored self copy, now;
        ``b`` — the checksum frozen on the owner at refresh time (the
        reference record); ``c`` — the buddy's recompute over the
        replica, now; ``r`` — the buddy's recompute at receipt time;
        ``shipped`` — the checksum record as it arrived at the buddy.
        Whoever disagrees with the two-vote majority is the culprit;
        receipt-time evidence splits in-flight corruption (transport)
        from replica rot in the buddy's memory (buddy).
        """
        own_ok = a == b
        bud_ok = c == b
        if own_ok and bud_ok and shipped == b:
            return "clean"
        if not own_ok and bud_ok:
            return "owner"
        if own_ok and not bud_ok:
            if shipped != b or (r is not None and r != b):
                return "transport"
            return "buddy"
        if not own_ok and a == c:
            # both stored copies agree with each other but not with the
            # record: the checksum itself is the odd one out
            return "checksum"
        return "unrecoverable"

    def snapshot_audit(self, comm: Comm) -> List[Dict[str, Any]]:
        """Collective: cross-check every retained boundary's array
        digests around the ring and *attribute* each mismatch.

        Each rank recomputes digests over the copies it physically
        holds, exchanges the evidence with its ring neighbours, and runs
        the same :meth:`_attribute` vote on both ends of every
        owner/buddy pair — so the two holders of a block always agree on
        the verdict without any extra round.  Returns this rank's
        findings: one dict per corrupted ``(boundary step, array)`` with
        ``role`` (``"owner"`` — my block is involved; ``"buddy"`` — a
        replica I hold is involved), the vote's ``attribution``
        (owner / buddy / transport / checksum / unrecoverable) and
        whether :meth:`heal_in_place` can repair it from the surviving
        clean copy.
        """
        def live(held):
            return {k: _digest(a) for k, a in held["arrays"].items()}

        own_report = {
            step: {"live": live(held), "frozen": dict(held["checksums"])}
            for step, held in self.copies["self_copy"].items()
        }
        peer_report = {
            step: {
                "live": live(held),
                "recv": dict(held["received"]),
                "shipped": dict(held["checksums"]),
            }
            for step, held in self.copies["peer_copy"].items()
        }
        pred_own: Dict[int, Any] = {}
        succ_peer: Dict[int, Any] = {}
        if comm.size > 1:
            succ = (comm.rank + 1) % comm.size
            pred = (comm.rank - 1) % comm.size
            comm.send(own_report, succ, tag=AUDIT_OWN_TAG, reliable=True)
            comm.send(peer_report, pred, tag=AUDIT_PEER_TAG, reliable=True)
            pred_own = comm.recv(pred, tag=AUDIT_OWN_TAG)
            succ_peer = comm.recv(succ, tag=AUDIT_PEER_TAG)
        # my blocks, judged with the replica evidence from my successor
        # (none on one rank: no replica exists), then the replicas I
        # hold, judged with my predecessor's (skipped once the owner no
        # longer retains the boundary)
        pairs = [
            (step, comm.world_rank, "owner", mine, succ_peer.get(step))
            for step, mine in sorted(own_report.items())
        ] + [
            (step, self.copies["peer_copy"][step]["owner"], "buddy",
             pred_own[step], held)
            for step, held in sorted(peer_report.items())
            if step in pred_own
        ]
        findings: List[Dict[str, Any]] = []
        for step, owner, role, owner_side, replica in pairs:
            for k in sorted((owner_side if role == "owner" else replica)["live"]):
                a = owner_side["live"].get(k)
                b = owner_side["frozen"].get(k)
                verdict = ("owner" if a != b else "clean") if replica is None else (
                    self._attribute(
                        a, b, replica["live"].get(k), replica["recv"].get(k),
                        replica["shipped"].get(k),
                    )
                )
                if verdict != "clean":
                    findings.append({
                        "step": int(step),
                        "owner": owner,
                        "array": k,
                        "role": role,
                        "attribution": verdict,
                        "healable": replica is not None
                        and verdict in ("owner", "buddy", "transport"),
                    })
        return findings

    def heal_in_place(
        self, comm: Comm, findings: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Collective (with :meth:`snapshot_audit`'s findings): restore
        every healable corrupted block from its surviving clean copy —
        **without shrinking the communicator**.

        Owner-side corruption pulls the clean replica back from the
        buddy; buddy-side or transport corruption re-replicates the
        owner's clean copy forward.  Both ends of each pair derived
        identical verdicts from the audit exchange, so the transfers
        pair up deterministically (sends first, receives second — the
        transports are non-blocking on the send side).  Each finding
        gains ``healed``; a repaired block is re-verified against the
        frozen checksum before being declared healed.
        """
        findings = [dict(f) for f in findings]
        if comm.size > 1:
            # my copy of a finding's block, and the partner holding the other
            copy_of = {
                "owner": ("self_copy", (comm.rank + 1) % comm.size),
                "buddy": ("peer_copy", (comm.rank - 1) % comm.size),
            }
            order = sorted(
                (f for f in findings if f["healable"]),
                key=lambda f: (f["step"], f["array"], f["role"]),
            )
            for phase in ("give", "take"):
                # give: every clean copy leaves its holder (whose own
                # finding merely *reports* the partner's damage —
                # shipping the clean block is the heal it asked for);
                # take: every damaged copy is replaced and re-verified
                for f in order:
                    damaged = (f["attribution"] == "owner") == (f["role"] == "owner")
                    if damaged != (phase == "take"):
                        continue
                    role, partner = copy_of[f["role"]]
                    held, k = self.copies[role][f["step"]], f["array"]
                    if phase == "give":
                        comm.send(held["arrays"][k], partner, tag=HEAL_TAG, reliable=True)
                        f["healed"] = True
                        continue
                    clean = np.array(comm.recv(partner, tag=HEAL_TAG), copy=True)
                    held["arrays"][k] = clean
                    if role == "peer_copy":
                        # a re-replicated block is recorded afresh
                        held["checksums"][k] = held["received"][k] = _digest(clean)
                    f["healed"] = _digest(clean) == held["checksums"].get(k)
        for f in findings:
            f.setdefault("healed", False)
        return findings


def _resolve(reports, config_hash: str, checkpoint_dir) -> Dict[str, Any]:
    """The restore plan (rank 0 of :meth:`BuddyStore.restore_source`).

    ``reports[h]`` lists the files survivor ``h`` holds.  Epochs are
    tried newest first; an epoch is one boundary step at one writer
    rank count, so a disk epoch lends files to the in-memory epoch of
    its step only when both were written by the same ranks holding the
    same totals.  Returns ``{"step", "manifest", "holders",
    "step_dir", "rejected"}`` — ``holders[r]`` is ``(role, survivor)``
    or None for disk — or ``{"error": reason}``.
    """
    memory: Dict[int, Dict[str, Any]] = {}
    for holder, rows in enumerate(reports):
        for row in rows:
            if not row["valid"]:
                continue
            epoch = memory.setdefault(row["step"], {"size": row["size"], "files": {}})
            # self copies sort before buddy copies of the same file
            epoch["files"].setdefault(row["entry"]["rank"], []).append(
                (row["role"] != "self_copy", holder, row["role"], row["entry"])
            )
    disk: Dict[int, Tuple[Path, Dict[str, Any]]] = {}
    for step_dir in _ckpt.list_checkpoints(checkpoint_dir) if checkpoint_dir else []:
        try:
            manifest = _ckpt.read_manifest(step_dir)
        except _ckpt.CheckpointError:
            continue  # torn: a death cut the write short
        disk[int(manifest["schedule"]["next_step"])] = (step_dir, manifest)
    rejected: List[str] = []
    reason = ""
    for step in sorted({*memory, *disk}, reverse=True):
        mem = memory.get(step, {"size": None, "files": {}})
        step_dir, manifest = disk.get(step, (None, None))
        sizes = [n for n in (mem["size"], manifest and manifest["n_ranks"]) if n]
        for n in dict.fromkeys(sizes):
            held = {r: min(c) for r, c in mem["files"].items()} if mem["size"] == n else {}
            lend = manifest is not None and manifest["n_ranks"] == n and all(
                _same_totals(entry, manifest["files"][r])
                for r, (_, _, _, entry) in held.items()
            )
            holders: List[Any] = []
            for r in range(n):
                if r in held:
                    holders.append((held[r][2], held[r][1]))
                    continue
                if not lend:
                    reason = reason or (
                        f"no live copy of rank {r}'s file at step {step} (owner "
                        f"and buddy both lost) and no disk epoch to lend it"
                    )
                    break
                try:
                    _ckpt.read_epoch_file(step_dir, manifest["files"][r])
                except _ckpt.CheckpointError as exc:
                    rejected.append(f"{step_dir.name}/{manifest['files'][r]['name']}")
                    reason = reason or str(exc)
                    break
                holders.append(None)
            else:
                if None not in holders:
                    entries = [held[r][3] for r in range(n)]
                    manifest = {
                        "version": _ckpt.CHECKPOINT_VERSION,
                        "n_ranks": n,
                        "steps_taken": step,
                        "schedule": {"next_step": step},
                        "config_hash": config_hash,
                        "total_particles": sum(e["n_particles"] for e in entries),
                        "files": entries,
                    }
                return {
                    "step": step,
                    "manifest": manifest,
                    "holders": holders,
                    "step_dir": step_dir,
                    "rejected": rejected,
                }
    if not memory and not disk:
        reason = "no epoch held in memory or on disk"
    return {"error": f"no epoch resolves every rank file: {reason}"}


def _same_totals(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return all(a.get(k) == b.get(k) for k in ("n_particles", "mass", "momentum"))


def shrink_after_failure(
    comm: Comm, timeout: float = 30.0
) -> Tuple[Comm, List[int], int]:
    """Run one survivor-consensus round and return the shrunk world.

    Every live rank of an elastic job calls this after observing a
    failure (:class:`PeerFailure` or :class:`CommTimeout`); the call
    blocks until all live ranks joined, then returns
    ``(new_comm, dead_world_ranks, epoch)`` — identical everywhere, the
    communicator renumbered over the survivors in world-rank order.
    ``dead_world_ranks`` holds only the ranks that died *since the
    previous epoch* (the ones this recovery must restore); earlier
    casualties were already handled.  An empty dead set means the failure
    was transient (e.g. a dropped message whose retries ran out): the
    fresh epoch still quarantines every in-flight straggler of the
    broken step, and the caller re-executes from its last boundary on
    the same rank count.

    Backend-generic: the round is coordinated by the in-process
    consensus board on the thread backend and by the supervisor process
    on the multiprocess backend — both through ``comm.shrink``.
    """
    return comm.shrink(timeout=timeout)
