"""Outside-in span tracer for the traced benchmark pass.

The benchmark replaces public callables of ``repro`` with timing
wrappers from its own process (and, on the multiprocess backend, inside
its own SPMD function on every rank) and puts them back afterwards; no
file under ``src/`` knows it is being traced.  A span records name,
start, end, parent span, step id and rank, plus the counts taken at the
same boundary.  Spans stay in memory until the pass ends.

A layer's *self time* is its span's duration minus the duration of its
direct children, so the self times of all spans under one step add up
to that step's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np


class Tracer:
    def __init__(self, rank: int = 0) -> None:
        self.rank = rank
        #: step id stamped on new spans; the benchmark loop sets it
        self.step = -1
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        counts: Optional[Callable] = None,
        meter: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or a module attribute) with a
        wrapper recording one span per call.

        ``counts(args, result)`` returns extra fields for the span;
        ``meter()`` returns a dict of cumulative counters whose change
        across the call is stored in the span.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": tracer._stack[-1] if tracer._stack else -1,
                "step": tracer.step,
                "rank": tracer.rank,
            }
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            before = meter() if meter is not None else None
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if before is not None:
                after = meter()
                span.update({k: after[k] - before[k] for k in before})
            if counts is not None:
                span.update(counts(args, result))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every replaced attribute back (last patched first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- counts taken at the layer boundaries ------------------------------------


def _plan_counts(args, plan) -> dict:
    return {
        "groups": int(plan.n_groups),
        "list_entries": int(len(plan.part_idx) + len(plan.node_idx)),
    }


def _sweep_counts(args, result) -> dict:
    plan = args[1]
    return {
        "interactions": int(plan.n_pairs),
        "targets": int(plan.target_counts.sum()),
    }


def _exchange_counts(args, out) -> dict:
    comm, decomp, arrays = args[0], args[1], args[2]
    pos = arrays["pos"]
    sent = int((decomp.owner_of(pos) != comm.rank).sum()) if len(pos) else 0
    return {"particles": int(len(pos)), "moved": sent}


def _ghost_counts(args, result) -> dict:
    return {"locals": int(len(args[2])), "ghosts": int(len(result[0]))}


#: (module, class or None, attribute, span name, counts, metered) for the
#: serial driver; module-level functions are replaced in the namespace of
#: the module that *calls* them (they were imported there by name)
SERIAL_SPANS = [
    ("repro.sim.serial", "SerialSimulation", "step", "sim.step", None, False),
    ("repro.integrate.leapfrog", "TwoLevelKDK", "step", "integrate.step", None, False),
    ("repro.mesh.poisson", "PMSolver", "density_mesh", "mesh.assign", None, False),
    ("repro.mesh.poisson", "PMSolver", "potential_mesh", "mesh.fft", None, False),
    ("repro.mesh.poisson", "PMSolver", "acceleration_mesh", "mesh.accel", None, False),
    ("repro.mesh.poisson", "PMSolver", "interpolate", "mesh.interp", None, False),
]
TREE_SPANS = [
    ("repro.tree.traversal", "TreeSolver", "build", "tree.build", None, False),
    ("repro.tree.traversal", "TreeSolver", "forces", "tree.forces", None, False),
    ("repro.tree.traversal", "TreeSolver", "build_plan", "tree.traverse", _plan_counts, False),
    ("repro.pp.plan", "PlanExecutor", "execute", "pp.sweep", _sweep_counts, False),
]
PARALLEL_SPANS = [
    ("repro.sim.parallel", "ParallelSimulation", "step", "sim.step", None, True),
    ("repro.decomp.sampling", "SamplingDecomposer", "update", "decomp.sampling", None, True),
    ("repro.sim.parallel", None, "exchange_particles", "decomp.exchange", _exchange_counts, True),
    ("repro.sim.parallel", None, "exchange_ghosts", "sim.ghost", _ghost_counts, True),
    ("repro.meshcomm.parallel_pm", "ParallelPM", "forces", "meshcomm.sync", None, True),
    ("repro.meshcomm.parallel_pm", None, "assign_mass_local", "mesh.assign", None, False),
    ("repro.meshcomm.parallel_pm", None, "local_to_slab", "meshcomm.to_slab", None, True),
    ("repro.meshcomm.parallel_fft", "SlabFFT", "convolve", "meshcomm.fft", None, True),
    ("repro.meshcomm.parallel_pm", None, "slab_to_local", "meshcomm.from_slab", None, True),
    ("repro.meshcomm.parallel_pm", None, "gradient_block", "mesh.accel", None, False),
    ("repro.meshcomm.parallel_pm", None, "interpolate_local", "mesh.interp", None, False),
]


def install(tracer: Tracer, parallel: bool, meter: Optional[Callable] = None) -> None:
    """Wrap every layer boundary of the serial or the parallel driver."""
    table = (PARALLEL_SPANS if parallel else SERIAL_SPANS) + TREE_SPANS
    for module, cls, attr, name, counts, metered in table:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, counts, meter if metered else None)


# -- reading spans back --------------------------------------------------------


def self_seconds(spans: List[dict]) -> List[float]:
    """Self time of each span: duration minus its direct children's."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def per_step(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per-step means, over the steps the spans cover, of every span
    name's self seconds, call count and recorded counts (one rank's
    spans)."""
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_seconds(spans)):
        row = totals[span["name"]]
        row["self_s"] += own
        row["calls"] += 1
        for key, value in span.items():
            if key not in ("name", "parent", "step", "rank", "start", "end"):
                row[key] += value
    n = max(len({s["step"] for s in spans}), 1)
    return {name: {k: v / n for k, v in row.items()} for name, row in totals.items()}


def merge_ranks(per_rank: List[List[dict]]) -> List[dict]:
    """One span list from one list per rank: ``parent`` indexes a span's
    own rank's list, so it moves by the number of spans put before it."""
    merged: List[dict] = []
    for spans in per_rank:
        offset = len(merged)
        merged.extend(
            {**s, "parent": s["parent"] + offset if s["parent"] >= 0 else -1} for s in spans
        )
    return merged


def write_jsonl(path, spans: List[dict]) -> None:
    """One span per line; ``id`` is the index ``parent`` refers to."""
    with open(path, "w") as fh:
        for i, span in enumerate(spans):
            fh.write(json.dumps({"id": i, **span}) + "\n")


def mean_over_ranks(tables: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Average the :func:`per_step` tables of several ranks."""
    names = sorted({n for t in tables for n in t})
    out: Dict[str, Dict[str, float]] = {}
    for name in names:
        keys = sorted({k for t in tables for k in t.get(name, {})})
        out[name] = {
            k: float(np.mean([t.get(name, {}).get(k, 0.0) for t in tables]))
            for k in keys
        }
    return out
