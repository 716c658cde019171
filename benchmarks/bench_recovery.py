"""Elastic-recovery latency: how fast does shrink-and-continue heal?

At the paper's scale (82944 nodes, multi-day runs) the interesting
fault-tolerance number is not whether the job survives a rank death but
*how much wall-clock a death costs*: detection, the survivor consensus
round, state restoration (buddy copy vs disk checkpoint), the
re-decomposition over the survivor set and the re-executed steps.

This harness runs a small elastic job, kills ranks at chosen steps, and
reports the per-recovery latency split by mode:

* ``buddy``  — every rank file of the restored epoch came from memory
  (its owner's copy or its ring buddy's);
* ``disk``   — owner *and* buddy died: the disk checkpoint lends the
  lost rank file (includes filesystem I/O).

Both then run the same reader: rank 0 merges the files and re-scatters
them over the survivors.

Usage::

    python benchmarks/bench_recovery.py                 # full matrix + report
    python benchmarks/bench_recovery.py --smoke \
        --kill-step 2 [--buddy-dead]                    # one CI scenario

Smoke mode exits 0 only if the run completes all steps on the
survivors, the in-run post-recovery validation sweep passed (the runner
raises otherwise), and the final gathered state conserves particle
count, total mass and momentum against the initial state.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

import numpy as np

from repro.config import DomainConfig, PMConfig, SimulationConfig, TreePMConfig
from repro.mpi.faults import FaultPlan
from repro.sim.elastic import run_elastic_simulation

N = 96
N_RANKS = 4
N_STEPS = 6
T_END = 0.06


def _system(seed: int = 23):
    rng = np.random.default_rng(seed)
    pos = rng.random((N, 3))
    mom = rng.normal(scale=0.01, size=(N, 3))
    mass = np.full(N, 1.0 / N)
    return pos, mom, mass


def _config() -> SimulationConfig:
    return SimulationConfig(
        domain=DomainConfig(
            divisions=(N_RANKS, 1, 1), sample_rate=0.3, cost_balance=False
        ),
        treepm=TreePMConfig(pm=PMConfig(mesh_size=16)),
    )


def run_scenario(kill_step: int, buddy_dead: bool, recv_timeout: float = 3.0):
    """Kill rank 1 (and, for ``buddy_dead``, its ring buddy rank 2) at
    ``kill_step``; return a result dict with the recovery events."""
    pos, mom, mass = _system()
    p0 = (mass[:, None] * mom).sum(axis=0)
    plan = FaultPlan().kill_rank(1, kill_step)
    if buddy_dead:
        plan = plan.kill_rank(2, kill_step)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as ckpt_dir:
        p, m, w, runners, runtime = run_elastic_simulation(
            _config(),
            pos,
            mom,
            mass,
            0.0,
            T_END,
            N_STEPS,
            fault_plan=plan,
            recv_timeout=recv_timeout,
            buddy_every=1,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=2,
        )
    elapsed = time.perf_counter() - t0
    live = [r for r in runners if r is not None]
    if not live:
        raise RuntimeError("no surviving runner")
    events = live[0].events
    if not events:
        raise RuntimeError("no recovery happened — kill step outside the run?")
    steps = sorted({r.sim.steps_taken for r in live})
    if steps != [N_STEPS]:
        raise RuntimeError(f"survivors did not complete the schedule: {steps}")
    # final-state conservation vs the initial state (count and mass are
    # exact; momentum moves only by integration-order noise, the PM+PP
    # forces being antisymmetric pair sums)
    if len(p) != N:
        raise RuntimeError(f"particle count changed: {len(p)} != {N}")
    if abs(w.sum() - mass.sum()) > 1e-12:
        raise RuntimeError(f"total mass changed: {w.sum()} != {mass.sum()}")
    p1 = (w[:, None] * m).sum(axis=0)
    if np.max(np.abs(p1 - p0)) > 1e-6:
        raise RuntimeError(f"momentum drifted: {p0} -> {p1}")
    return {
        "kill_step": kill_step,
        "buddy_dead": buddy_dead,
        "dead_ranks": runtime.dead_ranks,
        "survivors": live[0].comm.size,
        "wall_s": elapsed,
        "events": [
            {
                "mode": e.mode,
                "epoch": e.epoch,
                "dead_ranks": list(e.dead_ranks),
                "failed_step": e.failed_step,
                "resumed_step": e.resumed_step,
                "replayed_steps": e.failed_step - e.resumed_step,
                "latency_s": e.duration,
            }
            for e in events
        ],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--smoke", action="store_true",
        help="run one scenario and exit 0/1 (CI fault-injection matrix)",
    )
    ap.add_argument(
        "--kill-step", type=int, default=2,
        help="step at which the fault plan kills rank 1 (smoke mode)",
    )
    ap.add_argument(
        "--buddy-dead", action="store_true",
        help="also kill the victim's ring buddy -> forces the disk path",
    )
    ap.add_argument("--json", type=argparse.FileType("w"), default=None,
                    help="write results as JSON")
    args = ap.parse_args(argv)

    if args.smoke:
        try:
            res = run_scenario(args.kill_step, args.buddy_dead)
        except Exception as exc:  # noqa: BLE001 - CI wants exit 1 + message
            print(f"FAIL: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        ev = res["events"][0]
        print(
            f"ok: killed rank(s) {res['dead_ranks']} at step "
            f"{res['kill_step']}, recovered via '{ev['mode']}' in "
            f"{ev['latency_s'] * 1e3:.1f} ms, replayed "
            f"{ev['replayed_steps']} step(s), finished on "
            f"{res['survivors']} rank(s)"
        )
        if args.json:
            json.dump(res, args.json, indent=2)
        return 0

    results = []
    print(f"{'scenario':<28} {'mode':<6} {'latency':>10} {'replayed':>9} {'total':>8}")
    for kill_step in (0, N_STEPS // 2, N_STEPS - 1):
        for buddy_dead in (False, True):
            res = run_scenario(kill_step, buddy_dead)
            results.append(res)
            ev = res["events"][0]
            name = f"kill@{kill_step}" + ("+buddy" if buddy_dead else "")
            print(
                f"{name:<28} {ev['mode']:<6} {ev['latency_s'] * 1e3:>8.1f}ms "
                f"{ev['replayed_steps']:>9} {res['wall_s']:>7.2f}s"
            )
    if args.json:
        json.dump(results, args.json, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
