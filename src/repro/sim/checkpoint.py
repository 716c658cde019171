"""Checkpoint/restart: the one on-disk format for simulation state.

The paper's month-long 24576-node campaign survived machine time limits
and node failures because GreeM could dump its distributed particle
state and resume.  Every driver writes and reads the same format
through :func:`write_checkpoint` and :func:`read_checkpoint`, both
collective over a communicator; the serial driver is rank 0 of a
one-rank :class:`repro.mpi.backend.SelfComm`:

* every rank writes an **atomic, checksummed** per-rank file
  (``rank_00003_of_00008.npz``: particle arrays, the driver's own
  state such as force accumulators and decomposition history, per-array
  sha256 digests);
* rank 0 then writes a **manifest** (``manifest.json``) recording the
  format version, step, time, schedule, a config hash and the sha256
  digest of every rank file — written last, so an interrupted
  checkpoint is detected as *torn* (missing manifest / missing files /
  digest mismatch) instead of loading silently;
* finally rank 0 atomically updates a ``LATEST`` pointer in the parent
  checkpoint directory, so resume always finds the newest *complete*
  set even if a later checkpoint attempt was cut down mid-write.

Restore validates before touching simulation state.  With the writer's
rank count every rank reloads its own file, so a driver that saved its
force accumulators resumes bit for bit; with a different rank count
(a serial checkpoint on p ranks, or the reverse) the per-rank states
are merged in global particle-id order and re-scattered.  The elastic
runner's in-memory buddy copies hold the same rank files; an
:class:`Epoch` resolves each file from memory or disk, so recovery
reads through the same function.

Layout::

    ckpt_dir/
      LATEST                 <- name of the newest complete step dir
      step_00002/
        manifest.json
        rank_00000_of_00002.npz
        rank_00001_of_00002.npz
"""

from __future__ import annotations

import errno
import hashlib
import io as _io
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.integrity import array_digest

__all__ = [
    "atomic_write",
    "fsync_directory",
    "write_checkpoint",
    "read_checkpoint",
    "CheckpointError",
    "CheckpointSpaceError",
    "checkpoint_size",
    "check_free_space",
    "MANIFEST_NAME",
    "LATEST_NAME",
    "CHECKPOINT_VERSION",
    "rank_filename",
    "step_dirname",
    "write_rank_file",
    "read_rank_file",
    "write_manifest",
    "read_manifest",
    "validate_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
    "prune_checkpoints",
    "scrub_checkpoints",
    "load_distributed_checkpoint",
    "manifest_totals",
    "rank_totals",
    "read_epoch_file",
    "verify_rank_arrays",
    "Epoch",
    "PARTICLE_KEYS",
    "STRICT_FINITE_KEYS",
]

CHECKPOINT_VERSION = 1
MANIFEST_NAME = "manifest.json"
LATEST_NAME = "LATEST"

#: arrays every rank file carries, whichever driver wrote it
PARTICLE_KEYS = ("pos", "mom", "mass", "ids")


class CheckpointError(RuntimeError):
    """A checkpoint set is missing, torn, corrupt, or incompatible."""


class CheckpointSpaceError(CheckpointError):
    """The disk cannot hold a checkpoint (preflight shortfall or an
    ``ENOSPC`` during the write).  The write path guarantees the
    partial temp file is removed and the ``LATEST`` pointer still names
    the last *complete* set, so callers may skip the epoch and keep
    running."""


def checkpoint_size(step_dir) -> int:
    """Total on-disk bytes of one checkpoint epoch (best effort)."""
    total = 0
    try:
        for p in Path(step_dir).iterdir():
            if p.is_file():
                total += p.stat().st_size
    except OSError:
        pass
    return total


def check_free_space(ckpt_dir, required_bytes: int, margin: float = 1.25) -> None:
    """Preflight: raise :class:`CheckpointSpaceError` when the
    filesystem holding ``ckpt_dir`` has less than
    ``required_bytes * margin`` free.

    ``required_bytes`` is normally the measured size of the *previous*
    checkpoint epoch — the best predictor of the next one.  Best
    effort: platforms without ``statvfs`` (or a not-yet-created
    directory) skip the check and let the write path handle ``ENOSPC``.
    """
    if required_bytes <= 0:
        return
    try:
        st = os.statvfs(str(ckpt_dir))
    except (AttributeError, OSError):
        return
    free = st.f_bavail * st.f_frsize
    need = int(required_bytes * margin)
    if free < need:
        raise CheckpointSpaceError(
            f"insufficient disk space under '{ckpt_dir}': {free} bytes free, "
            f"next checkpoint needs ~{need} (last epoch was "
            f"{required_bytes} bytes)"
        )


def rank_filename(rank: int, size: int) -> str:
    return f"rank_{rank:05d}_of_{size:05d}.npz"


def step_dirname(next_step: int) -> str:
    """Directory name for the checkpoint taken *before* ``next_step``."""
    return f"step_{next_step:05d}"


def fsync_directory(path) -> None:
    """fsync a directory, making a just-renamed entry durable.

    ``os.replace`` makes a rename *atomic*, not *durable*: after a
    power loss the directory may still replay to its pre-rename state
    unless the directory inode itself was synced.  Best-effort on
    platforms whose directories cannot be opened/fsynced.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path, writer, fsync_parent: bool = False) -> Path:
    """Call ``writer(file_object)`` on a temp file in ``path``'s
    directory, fsync it, then atomically move it to ``path``.

    A crash at any point leaves either the previous file or no file —
    never a torn one.  With ``fsync_parent`` the parent directory is
    fsynced after the rename, so the rename is also *durable* — a
    crash cannot roll the directory entry back to the previous file.
    Returns ``path``.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync_parent:
        fsync_directory(path.parent or Path("."))
    return path


# -- per-rank files ------------------------------------------------------------


def write_rank_file(
    path,
    arrays: Dict[str, np.ndarray],
    meta: Dict[str, Any],
    disk_guard: Optional[Callable[[Any, int], None]] = None,
) -> str:
    """Atomically write one rank's state; returns the file's sha256.

    The digest is computed over the complete serialized file, so the
    manifest entry detects any later corruption of any byte.

    ``disk_guard(path, nbytes)`` is called with the serialized size
    just before the bytes touch disk — the injection point for
    ``FaultPlan.disk_full`` schedules.  A guard-raised or real
    ``ENOSPC`` surfaces as :class:`CheckpointSpaceError`; either way
    :func:`atomic_write` has already removed the partial
    temp file, so the directory never holds a torn rank file.
    """
    checksums = {name: array_digest(a) for name, a in arrays.items()}
    buf = _io.BytesIO()
    np.savez_compressed(
        buf,
        checkpoint_version=np.int64(CHECKPOINT_VERSION),
        meta_json=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        checksums_json=np.frombuffer(json.dumps(checksums).encode(), dtype=np.uint8),
        **arrays,
    )
    raw = buf.getvalue()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        if disk_guard is not None:
            disk_guard(path, len(raw))
        atomic_write(path, lambda fh: fh.write(raw))
    except OSError as exc:
        if exc.errno == errno.ENOSPC:
            raise CheckpointSpaceError(
                f"disk full writing '{path}': {exc}"
            ) from exc
        raise
    return digest


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


#: arrays strict mode sweeps for finite values (every restore through
#: :func:`read_checkpoint` is strict).  Force accumulators are
#: deliberately excluded: a diagnostic checkpoint dumped by an abort may
#: legitimately hold the garbage that triggered the dump in ``pp_acc``
#: / ``pm_acc``, and must still load for offline analysis.
STRICT_FINITE_KEYS = ("pos", "mom", "mass")


def _strict_finite_sweep(arrays: Dict[str, np.ndarray], path) -> None:
    from repro.validate.checks import check_finite

    for name in STRICT_FINITE_KEYS:
        if name not in arrays:
            continue
        violation = check_finite(name, arrays[name], stage="checkpoint/load")
        if violation is not None:
            raise CheckpointError(
                f"corrupt checkpoint '{path}': {violation}"
            ) from violation


def verify_rank_arrays(
    arrays: Dict[str, np.ndarray],
    checksums: Dict[str, str],
    where,
    strict: bool = False,
) -> None:
    """Raise :class:`CheckpointError` unless ``arrays`` holds exactly
    the recorded arrays, each matching its :func:`array_digest`; with
    ``strict``, also finite-sweep the particle state.  The one check
    every rank file passes on its way back in, from disk or memory."""
    bad = sorted(set(arrays) ^ set(checksums)) or [
        k for k, want in checksums.items() if array_digest(arrays[k]) != want
    ]
    if bad:
        raise CheckpointError(
            f"corrupt checkpoint '{where}': checksum mismatch for array '{bad[0]}'"
        )
    if strict:
        _strict_finite_sweep(arrays, where)


def read_rank_file(
    path, strict: bool = False
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Read one rank's state, verifying per-array checksums.

    ``strict`` additionally sweeps the particle state arrays
    (:data:`STRICT_FINITE_KEYS`) for non-finite values — checksums catch
    on-disk corruption, the sweep catches states that were *written*
    corrupted.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"missing checkpoint rank file '{path}'")
    try:
        with np.load(path) as data:
            version = int(data["checkpoint_version"])
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {version} in '{path}'"
                )
            meta = json.loads(bytes(data["meta_json"]).decode())
            checksums = json.loads(bytes(data["checksums_json"]).decode())
            arrays = {name: data[name] for name in checksums}
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint rank file '{path}': {exc}") from exc
    verify_rank_arrays(arrays, checksums, path, strict=strict)
    return arrays, meta


def rank_totals(arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """A rank file's conservation totals, as its manifest entry records
    them: particle count, Σm, Σm·p and the scale Σ|m·p|.  Raises
    :class:`ValueError` naming the first missing :data:`PARTICLE_KEYS`
    array."""
    for key in PARTICLE_KEYS:
        if key not in arrays:
            raise ValueError(f"a rank file needs array {key!r}")
    mass = np.asarray(arrays["mass"], dtype=np.float64)
    mp = mass[:, None] * np.asarray(arrays["mom"], dtype=np.float64)
    return {
        "n_particles": len(mass),
        "mass": float(mass.sum()),
        "momentum": [float(x) for x in mp.sum(axis=0)],
        "mom_scale": float(np.abs(mp).sum()),
    }


def manifest_totals(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """An epoch's conservation reference: its entries' totals, summed."""
    files = manifest["files"]
    return {
        "count": int(manifest["total_particles"]),
        "mass": sum(float(e["mass"]) for e in files),
        "momentum": np.sum([e["momentum"] for e in files], axis=0),
        "mom_scale": sum(float(e["mom_scale"]) for e in files),
    }


# -- manifest ------------------------------------------------------------------


def write_manifest(step_dir, manifest: Dict[str, Any]) -> None:
    step_dir = Path(step_dir)
    payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    atomic_write(step_dir / MANIFEST_NAME, lambda fh: fh.write(payload.encode()))


def read_manifest(step_dir) -> Dict[str, Any]:
    step_dir = Path(step_dir)
    path = step_dir / MANIFEST_NAME
    if not path.exists():
        raise CheckpointError(
            f"no checkpoint manifest at '{path}' (torn or missing checkpoint)"
        )
    try:
        manifest = json.loads(path.read_text())
    except Exception as exc:
        raise CheckpointError(f"unreadable manifest '{path}': {exc}") from exc
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint manifest version {version!r} in '{path}'"
        )
    for key in ("n_ranks", "files", "config_hash", "steps_taken", "schedule"):
        if key not in manifest:
            raise CheckpointError(f"manifest '{path}' is missing key '{key}'")
    return manifest


def validate_checkpoint(step_dir) -> Dict[str, Any]:
    """Validate a complete checkpoint set; returns its manifest.

    Detects torn sets (missing rank files), corruption (whole-file
    digest mismatch vs the manifest) and unreadable manifests, raising
    :class:`CheckpointError` naming the offending file.
    """
    step_dir = Path(step_dir)
    manifest = read_manifest(step_dir)
    for entry in manifest["files"]:
        _verified_path(step_dir, entry)
    return manifest


def _verified_path(step_dir: Path, entry: Dict[str, Any]) -> Path:
    """The rank file a manifest ``entry`` names, after checking that it
    exists and matches its recorded whole-file digest."""
    path = step_dir / entry["name"]
    if not path.exists():
        raise CheckpointError(
            f"torn checkpoint '{step_dir}': missing rank file '{entry['name']}'"
        )
    if file_digest(path) != entry["sha256"]:
        raise CheckpointError(
            f"corrupt checkpoint '{step_dir}': digest mismatch for "
            f"'{entry['name']}'"
        )
    return path


def read_epoch_file(step_dir, entry: Dict[str, Any]):
    """The rank file a manifest ``entry`` of ``step_dir`` names: its
    whole-file digest, per-array checksums and finite sweep checked;
    returns ``(arrays, meta)``."""
    return read_rank_file(_verified_path(Path(step_dir), entry), strict=True)


def latest_checkpoint(ckpt_dir) -> Path:
    """Resolve the newest complete checkpoint step directory."""
    ckpt_dir = Path(ckpt_dir)
    pointer = ckpt_dir / LATEST_NAME
    if pointer.exists():
        name = pointer.read_text().strip()
        step_dir = ckpt_dir / name
        if not step_dir.is_dir():
            raise CheckpointError(
                f"'{pointer}' points to missing checkpoint '{step_dir}'"
            )
        return step_dir
    # no pointer (e.g. hand-assembled directory): newest step_* dir
    candidates = list_checkpoints(ckpt_dir)
    if candidates:
        return candidates[-1]
    raise CheckpointError(f"no checkpoints found under '{ckpt_dir}'")


def list_checkpoints(ckpt_dir) -> List[Path]:
    """Every ``step_*`` checkpoint directory under ``ckpt_dir``, oldest
    first (the zero-padded names sort chronologically); a bare step
    directory passed directly lists as itself."""
    ckpt_dir = Path(ckpt_dir)
    epochs = sorted(p for p in ckpt_dir.glob("step_*") if p.is_dir())
    if not epochs and (ckpt_dir / MANIFEST_NAME).exists():
        epochs = [ckpt_dir]
    return epochs


def prune_checkpoints(ckpt_dir, keep_last: int) -> List[Path]:
    """Delete all but the newest ``keep_last`` checkpoint epochs.

    Deletion ordering is crash-safe: the epoch the durable ``LATEST``
    pointer names is never deleted (even if ``keep_last`` newer-named
    directories exist — a newer epoch whose pointer flip has not
    committed yet is not yet the restart point), and within an epoch the
    manifest is removed *first*, so a crash mid-delete leaves a set that
    is recognizably torn rather than one that validates against missing
    files.  Call only after the newest manifest (and pointer) are
    durable — the checkpoint writer does.  Returns the deleted paths.
    """
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    ckpt_dir = Path(ckpt_dir)
    epochs = list_checkpoints(ckpt_dir)
    if len(epochs) <= keep_last:
        return []
    pointer = ckpt_dir / LATEST_NAME
    protected = None
    if pointer.exists():
        protected = pointer.read_text().strip()
    doomed = [
        p for p in epochs[:-keep_last] if p.name != protected
    ]
    for step_dir in doomed:
        manifest = step_dir / MANIFEST_NAME
        try:
            manifest.unlink()
        except FileNotFoundError:
            pass
        fsync_directory(step_dir)
        shutil.rmtree(step_dir, ignore_errors=True)
    if doomed:
        fsync_directory(ckpt_dir)
    return doomed


def scrub_checkpoints(ckpt_dir) -> List[Dict[str, Any]]:
    """Re-verify every stored checkpoint epoch's digests on disk.

    For each epoch: the manifest's whole-file sha256 of every rank file
    (:func:`validate_checkpoint`) and every per-array checksum inside
    every rank file (:func:`read_rank_file`) — the full at-rest
    integrity surface.  Returns one report dict per epoch
    (``{"step_dir", "ok", "error"}``), oldest first; bit-rot shows up as
    ``ok=False`` with the offending file named in ``error``.
    """
    ckpt_dir = Path(ckpt_dir)
    epochs = list_checkpoints(ckpt_dir)
    reports: List[Dict[str, Any]] = []
    for step_dir in epochs:
        try:
            manifest = validate_checkpoint(step_dir)
            for entry in manifest["files"]:
                read_rank_file(step_dir / entry["name"])
            reports.append(
                {"step_dir": step_dir, "ok": True, "error": ""}
            )
        except CheckpointError as exc:
            reports.append(
                {"step_dir": step_dir, "ok": False, "error": str(exc)}
            )
    return reports


def update_latest(ckpt_dir, step_dir_name: str) -> None:
    """Flip the ``LATEST`` pointer to ``step_dir_name``, durably.

    The pointer flip is the commit point of a checkpoint: everything it
    references must survive a crash that happens the instant after.  So
    the step directory is fsynced first (making its rank files' renames
    durable), the pointer itself is written via fsynced temp file +
    atomic rename, and finally the checkpoint directory is fsynced so
    the rename cannot roll back to the previous pointer on power loss.
    """
    ckpt_dir = Path(ckpt_dir)
    fsync_directory(ckpt_dir / step_dir_name)
    atomic_write(
        ckpt_dir / LATEST_NAME,
        lambda fh: fh.write((step_dir_name + "\n").encode()),
        fsync_parent=True,
    )


# -- merged (rank-count independent) load --------------------------------------


def load_distributed_checkpoint(
    step_dir, verify: bool = True, strict: bool = False
) -> Dict[str, Any]:
    """Merge a checkpoint set into global id-ordered particle arrays.

    Returns ``{"pos", "mom", "mass", "ids", "manifest"}`` with arrays
    sorted by global particle id — the rank-count-independent form used
    to resume on a different decomposition (and by analysis tools).
    ``strict`` sweeps the particle state of every rank file for
    non-finite values (see :func:`read_rank_file`).
    """
    step_dir = Path(step_dir)
    manifest = validate_checkpoint(step_dir) if verify else read_manifest(step_dir)
    files = [
        read_rank_file(step_dir / entry["name"], strict=strict)[0]
        for entry in manifest["files"]
    ]
    return {**_merge(files, manifest, step_dir), "manifest": manifest}


def _merge(files: List[Dict[str, np.ndarray]], manifest, where) -> Dict[str, np.ndarray]:
    """One epoch's rank files as global particle-id-ordered
    :data:`PARTICLE_KEYS` arrays, checked against the manifest count."""
    ids = np.concatenate([f["ids"] for f in files])
    if len(ids) != manifest["total_particles"]:
        raise CheckpointError(
            f"checkpoint '{where}' holds {len(ids)} particles, "
            f"manifest says {manifest['total_particles']}"
        )
    order = np.argsort(ids, kind="stable")
    return {k: np.concatenate([f[k] for f in files])[order] for k in PARTICLE_KEYS}


# -- the collective writer and reader ------------------------------------------


def write_checkpoint(
    comm,
    ckpt_dir,
    config,
    arrays: Dict[str, np.ndarray],
    meta: Dict[str, Any],
    steps_taken: int,
    schedule: Optional[Dict[str, Any]] = None,
    time: Optional[float] = None,
    extra: Optional[Dict[str, Any]] = None,
    keep_last: int = 0,
) -> Path:
    """Write one checkpoint epoch under ``ckpt_dir`` (collective over
    ``comm``); returns its step directory.

    Every rank writes its ``arrays``/``meta`` as an atomic, checksummed
    rank file; rank 0 then writes the manifest (with every file's
    digest and :func:`rank_totals`, ``time``, ``schedule`` and the
    ``extra`` entries — a
    diagnostic dump records its violation there) and flips the
    ``LATEST`` pointer — in that order, so an interrupted checkpoint
    can never be mistaken for a complete one.  The step directory is
    named after ``schedule["next_step"]`` (default ``steps_taken``).
    ``keep_last`` > 0 then prunes all but the newest that many epochs.

    Disk exhaustion is handled collectively: rank 0 preflights the free
    space against the previous epoch's measured size *before* creating
    the step directory, each rank's ``ENOSPC`` (real or injected via
    ``FaultPlan.disk_full``) is caught locally, and the gathered
    verdict is broadcast — on any shortfall every rank raises
    :class:`CheckpointSpaceError` together, no partial step directory
    is left behind, and the ``LATEST`` pointer still names the last
    complete set.
    """
    totals = rank_totals(arrays)
    ckpt_dir = Path(ckpt_dir)
    schedule = {"next_step": int(steps_taken), **(schedule or {})}
    step_name = step_dirname(int(schedule["next_step"]))
    step_dir = ckpt_dir / step_name
    preflight = None
    if comm.rank == 0:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        try:
            check_free_space(ckpt_dir, checkpoint_size(latest_checkpoint(ckpt_dir)))
        except CheckpointSpaceError as exc:
            preflight = str(exc)
        except CheckpointError:
            pass  # first epoch: no size estimate, write and see
        if preflight is None:
            step_dir.mkdir(exist_ok=True)
    preflight = comm.bcast(preflight, root=0)
    if preflight is not None:
        comm.barrier()
        raise CheckpointSpaceError(preflight)
    comm.barrier()

    name = rank_filename(comm.rank, comm.size)
    plan = getattr(comm, "fault_plan", None)
    disk_guard = None
    if plan is not None and not plan.empty:
        wr = getattr(comm, "world_rank", comm.rank)
        disk_guard = lambda p, n: plan.check_disk(wr, p, n)
    write_error = None
    digest = ""
    try:
        digest = write_rank_file(step_dir / name, arrays, meta, disk_guard=disk_guard)
    except CheckpointSpaceError as exc:
        # stay in the collective: the verdict is agreed below
        write_error = str(exc)
    entries = comm.gather(
        {"rank": comm.rank, "name": name, "sha256": digest,
         "error": write_error, **totals},
        root=0,
    )
    verdict = None
    if comm.rank == 0:
        failed = [e for e in entries if e.get("error")]
        if failed:
            verdict = f"checkpoint {step_name} abandoned: " + "; ".join(
                f"rank {e['rank']}: {e['error']}" for e in failed
            )
    verdict = comm.bcast(verdict, root=0)
    if verdict is not None:
        if comm.rank == 0:
            # remove the partial epoch; LATEST was never flipped,
            # so restore still finds the last complete set
            shutil.rmtree(step_dir, ignore_errors=True)
        comm.barrier()
        raise CheckpointSpaceError(verdict)
    if comm.rank == 0:
        manifest = {
            "version": CHECKPOINT_VERSION,
            "n_ranks": comm.size,
            "steps_taken": int(steps_taken),
            "time": None if time is None else float(time),
            "schedule": schedule,
            "config_hash": config.config_hash(),
            "config": config.to_dict(),
            "total_particles": int(sum(e["n_particles"] for e in entries)),
            "files": entries,
            **(extra or {}),
        }
        write_manifest(step_dir, manifest)
        update_latest(ckpt_dir, step_name)
        if keep_last:
            # retention: the pointer is durable, so older epochs
            # beyond the window can go
            prune_checkpoints(ckpt_dir, keep_last)
    # no rank may leave before the manifest exists: a kill after this
    # barrier always finds a complete set on disk
    comm.barrier()
    return step_dir


#: message tag of a held rank file on its way to the rank reloading it
RESTORE_TAG = -25


class Epoch:
    """One checkpoint epoch as :func:`read_checkpoint` reads it.

    Rank file ``r`` comes from disk when ``holders[r]`` is None, else
    from the memory of rank ``holders[r][1]`` of the reading
    communicator — the in-memory tier
    (:class:`repro.mpi.recovery.BuddyStore`), where ``local`` maps a
    role ``holders[r][0]`` to the file this rank holds: the payload
    ``arrays``/``meta`` with its ``checksums``.  A bare step directory
    is the epoch with every file on disk.
    """

    def __init__(self, step_dir=None, manifest=None, holders=None, local=None):
        self.step_dir = None if step_dir is None else Path(step_dir)
        self.manifest = manifest or read_manifest(self.step_dir)
        self.holders = holders or [None] * int(self.manifest["n_ranks"])
        self.local = local or {}
        schedule = self.manifest["schedule"]
        self.step = int(schedule.get("next_step", self.manifest["steps_taken"]))
        self.from_disk = None in self.holders
        self.where = self.step_dir if self.from_disk else f"in-memory epoch {self.step}"

    def deliver(self, comm, dest) -> List[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        """Collective: the verified ``(arrays, meta)`` of every rank file
        ``r`` with ``dest[r] == comm.rank``, in file order.  Held files
        are shipped first (the transports do not block on send), and
        each arrives checked as a disk read is."""
        dest = list(dest)
        for r, holder in enumerate(self.holders):
            if holder and holder[1] == comm.rank and dest[r] != comm.rank:
                comm.send(self.local[holder[0]], dest[r], tag=RESTORE_TAG, reliable=True)
        out = []
        for r, holder in enumerate(self.holders):
            if dest[r] != comm.rank:
                continue
            if holder is None:
                out.append(read_epoch_file(self.step_dir, self.manifest["files"][r]))
                continue
            role, h = holder
            held = self.local[role] if h == comm.rank else comm.recv(h, tag=RESTORE_TAG)
            arrays = {k: np.array(a, copy=True) for k, a in held["arrays"].items()}
            verify_rank_arrays(arrays, held["checksums"], self.where, strict=True)
            out.append((arrays, dict(held["meta"])))
        return out


def read_checkpoint(
    comm, source, config
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any], Dict[str, Any]]:
    """Load this rank's share of a checkpoint epoch (collective over
    ``comm``); returns ``(arrays, meta, manifest)``.

    ``source`` is a step directory or an :class:`Epoch`.  Refuses an
    epoch written by a different physics configuration.  With the writer's
    rank count each rank reads back its own file, as written.
    Otherwise rank 0 merges the set in global particle-id order and
    scatters contiguous slices of ``pos``/``mom``/``mass``/``ids``;
    ``meta`` is then empty, as no per-rank driver state survives a
    change of rank count.  Either way every file passes its checksums
    and a finite sweep (:data:`STRICT_FINITE_KEYS`): a state written
    corrupted checksums perfectly, and must not resume silently.
    """
    if not isinstance(source, Epoch):
        source = Epoch(source)
    manifest = source.manifest
    want = config.config_hash()
    if manifest["config_hash"] != want:
        raise CheckpointError(
            f"checkpoint '{source.where}' was written by a different "
            f"configuration (hash {manifest['config_hash'][:12]}..., "
            f"ours {want[:12]}...)"
        )
    n = int(manifest["n_ranks"])
    if n == comm.size:
        ((arrays, meta),) = source.deliver(comm, range(n))
        return arrays, meta, manifest
    files = source.deliver(comm, [0] * n)
    chunks = None
    if comm.rank == 0:
        merged = _merge([arrays for arrays, _ in files], manifest, source.where)
        m = len(merged["ids"])
        chunks = [
            {k: a[m * r // comm.size : m * (r + 1) // comm.size] for k, a in merged.items()}
            for r in range(comm.size)
        ]
    return comm.scatter(chunks, root=0), {}, manifest
