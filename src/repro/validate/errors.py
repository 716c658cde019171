"""Structured invariant-violation errors and offending-array statistics.

A guardrail that fires must leave the operator with everything needed to
reproduce the failure offline: *which* invariant broke, at *which*
pipeline stage, on *which* rank and step, and a numeric summary of the
offending array.  :class:`InvariantViolation` carries exactly that, and
:func:`array_stats` computes the summary in one vectorized pass.

This module has no dependencies beyond numpy, so every layer of the
framework (tree, decomp, meshcomm, sim) can raise structured violations
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

__all__ = ["GuardEvent", "InvariantViolation", "InvariantWarning", "array_stats"]


class InvariantWarning(UserWarning):
    """Emitted (instead of raising) under the ``warn`` policy."""


@dataclass(frozen=True)
class GuardEvent:
    """One record of a rank's guard log.

    ``check`` is the catalogue name of the guard that logged it
    (``"sdc"`` or ``"straggler"``); ``kind`` the finding or transition
    (SDC: ``snapshot``, ``fingerprint``, ``spot_check``, ``transport``,
    ``checkpoint``; straggler: ``straggler_suspect``,
    ``straggler_confirmed``, ``drain``, ``evict``, ``evict_shrink``,
    ``degrade_enter``, ``audit_stretch``, ``deadline_widen``,
    ``native_fallback``, ``checkpoint_skipped``, ``recovered``).
    ``rank`` is the *subject* world rank (the owner of damaged data,
    the straggler; ``-1`` for a global finding).  ``healed`` flips when
    a remedy restored what the finding damaged; ``data`` holds the
    evidence (attribution, timings, levels).
    """

    step: int
    rank: int
    check: str
    kind: str
    detail: str = ""
    healed: bool = False
    data: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (reports, manifests)."""
        return {
            "step": self.step,
            "rank": self.rank,
            "check": self.check,
            "kind": self.kind,
            "detail": self.detail,
            "healed": self.healed,
            "data": _jsonable(dict(self.data)),
        }


def array_stats(arr: np.ndarray, name: str = "array") -> Dict[str, Any]:
    """One-pass numeric summary of an array for violation reports.

    Returns shape/dtype, finite min/max/mean, the number of NaN and
    infinite entries, and the flat index of the first non-finite entry
    (``None`` when the array is fully finite).
    """
    arr = np.asarray(arr)
    out: Dict[str, Any] = {
        "name": name,
        "shape": tuple(arr.shape),
        "dtype": str(arr.dtype),
    }
    if arr.size == 0:
        out.update(n_nan=0, n_inf=0, first_bad_index=None)
        return out
    if not np.issubdtype(arr.dtype, np.floating):
        out.update(
            n_nan=0,
            n_inf=0,
            first_bad_index=None,
            min=int(arr.min()) if np.issubdtype(arr.dtype, np.integer) else None,
            max=int(arr.max()) if np.issubdtype(arr.dtype, np.integer) else None,
        )
        return out
    finite = np.isfinite(arr)
    n_nan = int(np.isnan(arr).sum())
    n_inf = int(arr.size - finite.sum() - n_nan)
    out["n_nan"] = n_nan
    out["n_inf"] = n_inf
    bad = ~finite
    out["first_bad_index"] = int(np.flatnonzero(bad.ravel())[0]) if bad.any() else None
    if finite.any():
        vals = arr[finite]
        out["min"] = float(vals.min())
        out["max"] = float(vals.max())
        out["mean"] = float(vals.mean())
    return out


class InvariantViolation(RuntimeError):
    """A runtime invariant of the simulation pipeline does not hold.

    Parameters
    ----------
    message:
        Human-readable description of what broke.
    check:
        Machine name of the checker that fired (``"finite_fields"``,
        ``"particle_count"``, ...) — the key used by per-check policy
        overrides.
    stage:
        Pipeline stage, slash-separated like the Table I rows
        (``"decomp/exchange"``, ``"mesh/assignment"``, ``"pp/ghosts"``).
    step:
        Simulation step index at the time of the check, if known.
    rank:
        World rank that detected the violation (``None`` for serial).
    stats:
        Numeric summary of the offending array(s), usually from
        :func:`array_stats`.
    dump_path:
        Filled in by an ``abort`` with ``dump_dir`` set: the path of the
        diagnostic checkpoint written before raising.
    """

    def __init__(
        self,
        message: str,
        *,
        check: str,
        stage: str,
        step: Optional[int] = None,
        rank: Optional[int] = None,
        stats: Optional[Dict[str, Any]] = None,
        dump_path: Optional[str] = None,
    ) -> None:
        where = stage
        if step is not None:
            where += f", step {step}"
        if rank is not None:
            where += f", rank {rank}"
        super().__init__(f"[{check} @ {where}] {message}")
        self.detail = message
        self.check = check
        self.stage = stage
        self.step = step
        self.rank = rank
        self.stats = stats or {}
        self.dump_path = dump_path

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable record (checkpoint manifests, logs)."""
        return {
            "check": self.check,
            "stage": self.stage,
            "step": self.step,
            "rank": self.rank,
            "message": self.detail,
            "stats": _jsonable(self.stats),
            "dump_path": str(self.dump_path) if self.dump_path else None,
        }

    @staticmethod
    def from_summary(data: Dict[str, Any]) -> "InvariantViolation":
        """Rebuild a violation from :meth:`summary` output (used to
        re-raise a remote rank's violation on every rank)."""
        return InvariantViolation(
            str(data.get("message", "invariant violation")),
            check=str(data.get("check", "unknown")),
            stage=str(data.get("stage", "unknown")),
            step=data.get("step"),
            rank=data.get("rank"),
            stats=data.get("stats"),
            dump_path=data.get("dump_path"),
        )


def _jsonable(obj: Any) -> Any:
    """Best-effort conversion of stats payloads to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
