"""Compare two records written by ``run.py``: parent first, change second.

``python3 benchmarks/spine/compare.py A.json B.json``

One row per workload and end-to-end metric: each side's value (the
median over passes; for ``step_s_p80`` the percentile of the pooled
step times), the quartiles of its passes and their count, the change
in the metric's "better" direction, its bound from ``BENCHMARK.json``,
and a verdict:

``regressed``   B's value is worse than A's by more than the bound;
``unresolved``  the run-to-run spread (the wider interquartile range,
                as a share of A's value) exceeds the bound, so the
                pair can show neither — unless every run of one side
                beats every run of the other;
``unchanged``   otherwise (an improvement is not a claim: see the
                choosing-metrics guide for what a claim needs).

Exits non-zero when a metric regressed or B failed a larger share of
its operations than A.  Comparing two records of the same commit is
the A/A check of the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

DECLARATION = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: dict, b: dict, better: str, bound: float) -> dict:
    """Judge one metric of one workload; ``a`` and ``b`` are the
    record's ``{"values", "value", "q1", "q3"}`` rows."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / abs(a["value"])
    runs_a = [sign * v for v in a["values"]]
    runs_b = [sign * v for v in b["values"]]
    all_worse = min(runs_b) > max(runs_a)
    all_better = max(runs_b) < min(runs_a)
    if spread > bound and not (all_worse or all_better):
        word = "unresolved"
    elif worse_by > bound:
        word = "regressed"
    else:
        word = "unchanged"
    return {"worse_by": worse_by, "spread": spread, "verdict": word}


def compare(rec_a: dict, rec_b: dict, declaration: dict) -> List[dict]:
    rows = []
    for name in rec_a["workloads"]:
        wa, wb = rec_a["workloads"][name], rec_b["workloads"].get(name)
        if wb is None:
            continue
        for m in declaration["end_to_end"]:
            a, b = wa["end_to_end"].get(m["name"]), wb["end_to_end"].get(m["name"])
            if a is None or b is None:
                continue
            rows.append({
                "workload": name, "metric": m["name"], "unit": m["unit"],
                "bound": m["bound"], "a": a, "b": b,
                **verdict(a, b, m["better"], m["bound"]),
            })
    return rows


def failed_share(record: dict) -> float:
    attempted = sum(w["attempted"] for w in record["workloads"].values())
    failed = sum(w["failed"] for w in record["workloads"].values())
    return failed / max(attempted, 1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rec_a = json.loads(args.parent.read_text())
    rec_b = json.loads(args.change.read_text())
    rows = compare(rec_a, rec_b, json.loads(DECLARATION.read_text()))

    def cell(r: dict) -> str:
        return f"{r['value']:.5g} [{r['q1']:.5g}, {r['q3']:.5g}] n={len(r['values'])}"

    print(f"{'workload':<21}{'metric':<22}{'parent':<38}{'change':<38}"
          f"{'worse by':>9}{'spread':>8}{'bound':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<21}{r['metric']:<22}{cell(r['a']):<38}{cell(r['b']):<38}"
              f"{r['worse_by']:>+9.1%}{r['spread']:>8.1%}{r['bound']:>7.0%}  {r['verdict']}")
    share_a, share_b = failed_share(rec_a), failed_share(rec_b)
    print(f"failed share of operations: parent {share_a:.4f}, change {share_b:.4f}")
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(regressed)} regressed, {len(unresolved)} unresolved, "
          f"{len(rows) - len(regressed) - len(unresolved)} unchanged")
    return 1 if regressed or share_b > share_a else 0


if __name__ == "__main__":
    sys.exit(main())
