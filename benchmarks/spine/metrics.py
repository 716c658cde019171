"""From a worker's result to named metrics.

``BENCHMARK.json`` at the repo root declares the metric names, units
and bounds; this module computes one value for each of them and refuses
to report a set that does not match the declaration.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

from repro.constants import FLOPS_PER_INTERACTION

from benchmarks.spine.host import REPO_ROOT

#: per-layer seconds: metric name -> span whose self time it reports
_SELF_SECONDS = {
    "pp.sweep_s": "pp.sweep",
    "tree.build_s": "tree.build",
    "tree.traverse_s": "tree.traverse",
    "tree.glue_s": "tree.forces",
    "mesh.assign_s": "mesh.assign",
    "mesh.fft_s": "mesh.fft",
    "mesh.accel_s": "mesh.accel",
    "mesh.interp_s": "mesh.interp",
    "integrate.update_s": "integrate.step",
    "decomp.sampling_s": "decomp.sampling",
    "decomp.exchange_s": "decomp.exchange",
    "sim.ghost_s": "sim.ghost",
    "sim.glue_s": "sim.step",
    "meshcomm.to_slab_s": "meshcomm.to_slab",
    "meshcomm.fft_s": "meshcomm.fft",
    "meshcomm.from_slab_s": "meshcomm.from_slab",
    "meshcomm.sync_s": "meshcomm.sync",
}


def declaration() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(
    result: dict, ranks: int, setup_samples: List[float], force: Dict[str, float]
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass; ``force`` holds the
    error figures of :func:`accuracy.treepm_errors`."""
    steps = np.asarray(result["steps"])
    if ranks == 1:
        # a serial workload is its own serial twin: T1 / (1 x T1)
        efficiency = 1.0
    else:
        # the serial twin's step over the 2-rank step just before it
        own, twin = np.asarray(result["ref_pairs"]).T
        efficiency = float(np.median(twin / own)) / ranks
    return {
        "setup_s": float(np.median(setup_samples)),
        "step_s_p50": float(np.median(steps)),
        "step_s_p80": float(np.percentile(steps, 80)),
        "particle_steps_per_s": result["n_particles"] * len(steps) / float(steps.sum()),
        "strong_scaling_eff": efficiency,
        "peak_rss_mb": result["peak_rss_mb"],
        # force_relerr_* are for the record, not declared (they vary too
        # much across seeds)
        **force,
    }


def per_layer(result: dict, cores: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.  Seconds, counts and
    bytes are per step (per rank-step on two ranks, averaged over the
    ranks); a layer that does not run on a workload reports 0."""
    layers = result["layers"]
    probes = result["probes"]
    get = lambda span, key: layers.get(span, {}).get(key, 0.0)
    out = {metric: get(span, "self_s") for metric, span in _SELF_SECONDS.items()}

    interactions = get("pp.sweep", "interactions")
    groups = get("tree.traverse", "groups")
    per_s = _ratio(interactions, out["pp.sweep_s"])
    out.update({
        "pp.interactions": interactions,
        "pp.interactions_per_s": per_s,
        "pp.gflops_51": FLOPS_PER_INTERACTION * per_s / 1e9,
        "pp.frac_of_peak": _ratio(
            FLOPS_PER_INTERACTION * per_s / 1e9, probes["host.peak_gflops_1t"]
        ),
        "pp.mean_ni": _ratio(get("pp.sweep", "targets"), groups),
        "pp.mean_nj": _ratio(get("tree.traverse", "list_entries"), groups),
        "tree.groups": groups,
        "tree.list_entries": get("tree.traverse", "list_entries"),
        "mesh.cells": float(result["mesh"] ** 3),
        "decomp.moved_frac": _ratio(
            get("decomp.exchange", "moved"), get("decomp.exchange", "particles")
        ),
        "decomp.imbalance": result.get("imbalance", 0.0),
        "sim.ghost_frac": _ratio(get("sim.ghost", "ghosts"), get("sim.ghost", "locals")),
        # metered counts are inclusive of child spans: the PM cycle's
        # span carries the whole pm:* traffic, the step's span everything
        "meshcomm.bytes": get("meshcomm.sync", "bytes"),
        "meshcomm.msgs": get("meshcomm.sync", "msgs"),
        "mpi.wait_s": get("sim.step", "wait_s"),
        "mpi.bytes": get("sim.step", "bytes"),
        "mpi.msgs": get("sim.step", "msgs"),
        "native.load_s": result["native"]["load_s"],
        "native.stages_active": float(sum(result["native"]["stages"].values())),
        "ledger.residual_frac": result["ledger_residual"],
        "host.cores": float(cores),
    })
    traced_step = float(np.mean(result["traced_steps"]))
    out["mpi.wait_frac"] = _ratio(out["mpi.wait_s"], traced_step)
    out["trace.overhead_frac"] = (
        float(np.median(result["traced_steps"])) / float(np.median(result["steps"])) - 1.0
    )
    # for the record, not declared: the layers' self seconds over the
    # traced step wall (1 up to the barrier and timer calls around a step)
    out["trace.sum_over_wall"] = _ratio(sum(out[m] for m in _SELF_SECONDS), traced_step)
    # the probes name their metrics themselves; their other keys are sizes
    out.update({k: v for k, v in probes.items() if "." in k})
    return out


def layer_shares(values: Dict[str, float]) -> Dict[str, float]:
    """Share of the traced step each ``src/repro/<layer>`` takes (self
    seconds of its spans over the sum of all spans' self seconds, which
    is the traced step wall)."""
    total = sum(values[m] for m in _SELF_SECONDS)
    shares: Dict[str, float] = {}
    for metric in _SELF_SECONDS:
        layer = metric.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + _ratio(values[metric], total)
    return shares


def declared(values: Dict[str, float], section: str) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every metric ``BENCHMARK.json``
    declares in ``section``, in its order."""
    rows = declaration()[section]
    missing = [r["name"] for r in rows if r["name"] not in values]
    if missing:
        raise KeyError(f"no value for declared {section} metric(s): {missing}")
    return {r["name"]: {"value": float(values[r["name"]]), "unit": r["unit"]} for r in rows}
