"""The measurement spine's one command.

``python3 benchmarks/spine/run.py --workload W --seed S --seconds T --trace 0|1``
    One pass of one workload (the form ``BENCHMARK.json`` declares).
    The last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``: the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.

``python3 benchmarks/spine/run.py --seed S [--out FILE] [--smoke]``
    Every workload: three untraced passes interleaved across the
    workloads (A B C D, D C B A, ...) and one traced pass each, printed
    as tables and written as one record that ``compare.py`` reads.

Every pass runs in a fresh process pinned to one thread per process.
Nothing is read or written outside the checkout: compiled kernels, the
Ewald table, inputs and traces live under ``.bench_build/spine/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _p in (_ROOT / "src", _ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))
BUILD = _ROOT / ".bench_build" / "spine"
# before anything imports tempfile or compiles a kernel
os.environ["TMPDIR"] = str(BUILD / "tmp")
os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
(BUILD / "tmp").mkdir(parents=True, exist_ok=True)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

from benchmarks.spine import accuracy, host, metrics, probes  # noqa: E402
from benchmarks.spine.workloads import WORKLOADS, make_config, make_inputs  # noqa: E402

#: fresh launches whose set-up times give ``setup_s`` (the pass itself
#: is one of them)
SETUP_LAUNCHES = 3
#: untraced passes per workload in the full run, and the steps each takes
#: at least, so that the pooled step times number 60 or more
PASSES = 3
POOLED_MIN_STEPS = 20
WORKER_TIMEOUT_S = 170


def _log(message: str) -> None:
    print(f"spine: {message}", file=sys.stderr, flush=True)


def warm_caches() -> None:
    """Compile the native kernels and build the Ewald table if this
    checkout has not yet, so that no timed launch pays for it."""
    t0 = time.perf_counter()
    _, stages = probes.native_stages()
    accuracy.correction_table(BUILD / "cache")
    seconds = time.perf_counter() - t0
    if seconds > 2.0:
        _log(f"built native kernels and the Ewald table in {seconds:.1f} s (not gated)")
    if host.compiler() and not all(stages.values()):
        _log(f"native stages not active: {[s for s, on in stages.items() if not on]}")


def _launch(job: dict, workdir: Path) -> dict:
    """Run one worker process on ``job``; returns its result."""
    result_path = workdir / "result.json"
    job = {
        **job,
        "result_out": str(result_path),
        "tmp_dir": str(workdir),
    }
    job_path = workdir / "job.json"
    env = {
        **os.environ,
        **host.PINNED_ENV,
        "PYTHONPATH": os.pathsep.join([str(_ROOT / "src"), str(_ROOT)]),
    }
    job["t_launch"] = time.monotonic()
    job_path.write_text(json.dumps(job))
    try:
        subprocess.run(
            [sys.executable, "-m", "benchmarks.spine.worker", str(job_path)],
            cwd=_ROOT, env=env, timeout=WORKER_TIMEOUT_S, check=True,
        )
        return json.loads(result_path.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return {"error": f"worker did not finish: {exc!r}"}


def _failed_pass(**extra) -> dict:
    """What a pass that produced no metrics reports: one operation, failed."""
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, **extra}


def measure(
    name: str, seed: int, seconds: float, trace: bool, min_steps: int, smoke: bool
) -> dict:
    """One pass of workload ``name``.  Returns ``correct``, ``attempted``,
    ``failed``, ``metrics`` and, for the record, the raw step times."""
    w = WORKLOADS[name]
    refused = host.refusal(w.ranks)
    if refused:
        _log(f"REFUSED {name}: {refused}")
        return _failed_pass(refused=refused)

    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-"))
    try:
        inputs_path = workdir / "inputs.npz"
        inputs = make_inputs(w.kind, seed)
        np.savez(inputs_path, **inputs)
        job = {
            "workload": name,
            "inputs": str(inputs_path),
            "seconds": 0.0 if smoke else float(seconds),
            "min_steps": min_steps,
            "trace": bool(trace),
            "setup_only": False,
            "triad_bytes": (32 << 20) if smoke else 0,
            "spans_out": str(BUILD / f"trace-{name}-seed{seed}.jsonl"),
        }
        result = _launch(job, workdir)
        if "error" in result:
            _log(f"FAILED {name}:\n{result['error']}")
            return _failed_pass()
        setups = [result["setup_s"]]
        if not trace and not smoke:
            for _ in range(SETUP_LAUNCHES - 1):
                extra = _launch({**job, "setup_only": True}, workdir)
                if "error" in extra:
                    _log(f"FAILED {name} (set-up launch):\n{extra['error']}")
                    return _failed_pass()
                setups.append(extra["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = metrics.per_layer(result, host.usable_cores())
        section = "per_layer"
    else:
        force = accuracy.treepm_errors(
            make_config(w).treepm, inputs, seed,
            32 if smoke else accuracy.N_PROBES, BUILD / "cache",
        )
        values = metrics.end_to_end(result, w.ranks, setups, force)
        section = "end_to_end"
    timed = [result["steps"], result.get("ref_pairs", []), result.get("traced_steps", [])]
    failed = [c for c in result["checks"] if not c["ok"]]
    return {
        "correct": not failed,
        "attempted": sum(len(t) for t in timed) + len(result["checks"]),
        "failed": len(failed),
        "metrics": metrics.declared(values, section),
        "steps": result["steps"],
        "values": values,
        "failed_checks": failed,
        "detail": {k: result[k] for k in ("native", "probes", "layers_by_rank") if k in result},
    }


# -- the full run: every workload, interleaved passes, one record -----------------


def _summary(values: List[float]) -> Dict[str, float]:
    """``value`` (what ``compare.py`` judges: the median over passes) and
    the quartiles of the per-pass values."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3}


def full_run(seed: int, seconds: float, smoke: bool) -> dict:
    names = list(WORKLOADS)
    passes = 1 if smoke else PASSES
    untraced: Dict[str, List[dict]] = {n: [] for n in names}
    for p in range(passes):
        for name in names if p % 2 == 0 else reversed(names):
            _log(f"pass {p + 1}/{passes} {name}")
            untraced[name].append(
                measure(name, seed, seconds, False, 2 if smoke else POOLED_MIN_STEPS, smoke)
            )
    record: dict = {
        "seed": seed,
        "passes": passes,
        "run_seconds": seconds,
        "smoke": smoke,
        "host": host.fingerprint(),
        "workloads": {},
    }
    decl = metrics.declaration()
    for name in names:
        _log(f"traced pass {name}")
        traced = measure(name, seed, seconds, True, 2 if smoke else 4, smoke)
        runs = untraced[name] + [traced]
        entry: dict = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failed_checks": [c for r in runs for c in r.get("failed_checks", [])],
            "end_to_end": {},
            "per_layer": {},
        }
        ok = [r for r in untraced[name] if r["metrics"]]
        pooled = [s for r in ok for s in r["steps"]]
        for m in decl["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in ok]
            if not values:
                continue
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "values": values, **_summary(values),
            }
        if pooled:
            entry["pooled_steps"] = len(pooled)
            # the tail percentile is taken over the pooled step times of
            # all passes; its quartiles stay those of the per-pass values
            entry["end_to_end"]["step_s_p80"]["value"] = float(np.percentile(pooled, 80))
            entry["force_relerr"] = {
                k: ok[0]["values"][f"force_relerr_{k}"] for k in ("rms", "p90")
            }
        if traced["metrics"]:
            entry["per_layer"] = traced["metrics"]
            entry["layer_shares"] = metrics.layer_shares(traced["values"])
            entry["layer_seconds_over_traced_wall"] = traced["values"]["trace.sum_over_wall"]
            entry["traced_detail"] = traced["detail"]
        record["workloads"][name] = entry
    return record


def print_record(record: dict) -> None:
    decl = metrics.declaration()
    names = list(record["workloads"])
    print(f"\nend-to-end (median of {record['passes']} passes, step_s_p80 over the pooled steps; "
          f"seed {record['seed']})")
    print(f"{'metric':<24}{'unit':<8}" + "".join(f"{n:>22}" for n in names))
    for m in decl["end_to_end"]:
        cells = []
        for n in names:
            row = record["workloads"][n]["end_to_end"].get(m["name"])
            cells.append(f"{row['value']:>22.6g}" if row else f"{'-':>22}")
        print(f"{m['name']:<24}{m['unit']:<8}" + "".join(cells))
    print(f"{'pooled step samples':<32}" + "".join(
        f"{record['workloads'][n].get('pooled_steps', 0):>22}" for n in names))
    print(f"{'operations failed/attempted':<32}" + "".join(
        f"{record['workloads'][n]['failed']:>15}/{record['workloads'][n]['attempted']:<6}"
        for n in names))
    print("\nper layer (one traced pass; seconds, counts and bytes per step)")
    print(f"{'metric':<24}{'unit':<8}" + "".join(f"{n:>22}" for n in names))
    for m in decl["per_layer"]:
        cells = []
        for n in names:
            row = record["workloads"][n]["per_layer"].get(m["name"])
            cells.append(f"{row['value']:>22.6g}" if row else f"{'-':>22}")
        print(f"{m['name']:<24}{m['unit']:<8}" + "".join(cells))
    print("\nshare of the traced step by layer (self seconds)")
    layers = sorted({k for n in names for k in record["workloads"][n].get("layer_shares", {})})
    print(f"{'layer':<32}" + "".join(f"{n:>22}" for n in names))
    for layer in layers:
        print(f"{layer:<32}" + "".join(
            f"{record['workloads'][n].get('layer_shares', {}).get(layer, 0.0):>22.3f}"
            for n in names))
    print(f"{'sum of self s / traced wall':<32}" + "".join(
        f"{record['workloads'][n].get('layer_seconds_over_traced_wall', 0.0):>22.3f}"
        for n in names))


def main(argv: Optional[List[str]] = None) -> int:
    decl = metrics.declaration()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(decl["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--smoke", action="store_true",
                        help="2 steps, 1 pass, small probes: checks the harness, measures nothing")
    args = parser.parse_args(argv)
    warm_caches()

    if args.workload:
        out = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            2 if args.smoke else 4, args.smoke,
        )
        for check in out.get("failed_checks", []):
            _log(f"check failed: {check['name']}: {check['detail']}")
        line = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
        for name, m in line["metrics"].items():
            _log(f"{name:<28}{m['value']:>16.6g} {m['unit']}")
        print(json.dumps(line), flush=True)
        return 0 if out["metrics"] else 1

    record = full_run(args.seed, args.seconds, args.smoke)
    print_record(record)
    out_path = args.out or BUILD / f"record-seed{args.seed}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=1))
    _log(f"record written to {out_path}")
    failed = sum(w["failed"] for w in record["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
