"""Self-tests of the benchmark harness (not collected by tier-1).

    python -m pytest benchmarks/spine/tests -q

The two tests that launch passes take about a minute together.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[3]
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from benchmarks.spine import compare, trace  # noqa: E402
from benchmarks.spine.workloads import WORKLOADS  # noqa: E402

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "benchmarks" / "spine" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def assert_spans_nest(spans):
    """Every span lies inside its parent, on the same rank and step."""
    for s in spans:
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"], (p, s)
            assert (p["rank"], p["step"]) == (s["rank"], s["step"]), (p, s)


def test_declaration_matches_the_contract_and_the_code():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in DECLARATION["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in DECLARATION["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for m in DECLARATION[section]:
            names.append(m["name"])
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])
    setup = [m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARATION["workloads"])
    assert DECLARATION["paths"] == ["benchmarks/spine"]


def test_tracer_restores_every_attribute_and_spans_nest():
    table = trace.SERIAL_SPANS + trace.PARALLEL_SPANS + trace.TREE_SPANS
    import importlib

    def owner_of(module, cls):
        mod = importlib.import_module(module)
        return getattr(mod, cls) if cls else mod

    before = {(m, c, a): vars(owner_of(m, c))[a] for m, c, a, *_ in table}
    tracer = trace.Tracer()
    trace.install(tracer, parallel=False)
    from repro import SerialSimulation, SimulationConfig

    rng = np.random.default_rng(0)
    pos = rng.random((300, 3))
    sim = SerialSimulation(SimulationConfig(), pos, np.zeros_like(pos), np.full(300, 1 / 300))
    for k in range(2):
        tracer.step = k
        sim.step(0.01 * k, 0.01 * (k + 1))
    patched = [(m, c, a) for m, c, a, *_ in trace.SERIAL_SPANS + trace.TREE_SPANS]
    assert all(vars(owner_of(m, c))[a] is not before[m, c, a] for m, c, a in patched)
    tracer.restore()
    assert all(vars(owner_of(m, c))[a] is before[m, c, a] for m, c, a in before)

    spans = tracer.spans
    roots = [s for s in spans if s["parent"] < 0]
    assert [s["name"] for s in roots] == ["sim.step", "sim.step"]
    assert_spans_nest(spans)
    # self times of everything under a step add up to the step
    own = trace.self_seconds(spans)
    for k, root in enumerate(roots):
        total = sum(o for o, s in zip(own, spans) if s["step"] == k)
        assert total == pytest.approx(root["end"] - root["start"], rel=1e-9)
    assert {"tree.build", "tree.traverse", "pp.sweep", "mesh.fft", "integrate.step"} <= {
        s["name"] for s in spans
    }


def test_merged_rank_spans_keep_their_parents():
    rank0 = [
        {"name": "sim.step", "parent": -1, "rank": 0, "step": 0, "start": 0.0, "end": 4.0},
        {"name": "pp.sweep", "parent": 0, "rank": 0, "step": 0, "start": 1.0, "end": 2.0},
    ]
    rank1 = [{**s, "rank": 1, "start": s["start"] + 0.5, "end": s["end"] + 0.5} for s in rank0]
    merged = trace.merge_ranks([rank0, rank1])
    assert [s["parent"] for s in merged] == [-1, 0, -1, 2]
    assert_spans_nest(merged)
    assert rank1[1]["parent"] == 0  # the ranks' own lists are left alone


def test_compare_verdicts():
    def row(values):
        v = sorted(values)
        return {"values": values, "value": v[len(v) // 2], "q1": v[0], "q3": v[-1]}

    steady = row([1.00, 1.01, 1.02])
    assert compare.verdict(steady, row([1.02, 1.03, 1.04]), "lower", 0.10)["verdict"] == "unchanged"
    assert compare.verdict(steady, row([1.20, 1.21, 1.22]), "lower", 0.10)["verdict"] == "regressed"
    assert compare.verdict(steady, row([0.80, 0.81, 0.82]), "higher", 0.10)["verdict"] == "regressed"
    assert compare.verdict(steady, row([0.80, 0.81, 0.82]), "lower", 0.10)["verdict"] == "unchanged"
    noisy = row([0.80, 1.00, 1.30])
    assert compare.verdict(noisy, row([0.9, 1.2, 1.4]), "lower", 0.10)["verdict"] == "unresolved"


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_record_is_schema_valid(tmp_path):
    out = tmp_path / "record.json"
    subprocess.run(RUN + ["--smoke", "--out", str(out)], check=True, timeout=170, cwd=ROOT)
    record = json.loads(out.read_text())
    assert {"seed", "passes", "host", "workloads"} <= set(record)
    assert {"cores_usable", "cpu_model", "compiler", "numpy", "git_commit", "repro_env"} <= set(
        record["host"]
    )
    assert list(record["workloads"]) == list(WORKLOADS)
    for entry in record["workloads"].values():
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert list(entry["end_to_end"]) == [m["name"] for m in DECLARATION["end_to_end"]]
        assert list(entry["per_layer"]) == [m["name"] for m in DECLARATION["per_layer"]]
        for row in entry["end_to_end"].values():
            assert np.isfinite(row["value"]) and row["value"] != 0
        assert sum(entry["layer_shares"].values()) == pytest.approx(1.0)
    # the span files the traced passes wrote, one per workload
    for name, w in WORKLOADS.items():
        lines = (ROOT / ".bench_build" / "spine" / f"trace-{name}-seed1.jsonl").read_text()
        spans = [json.loads(line) for line in lines.splitlines()]
        assert [s["id"] for s in spans] == list(range(len(spans)))
        assert {s["rank"] for s in spans} == set(range(w.ranks))
        assert_spans_nest(spans)


def test_forced_numpy_fallback_is_reported_as_failed_not_as_slow():
    env = {**os.environ, "REPRO_NO_NATIVE_PP": "1"}
    done = subprocess.run(
        RUN + ["--workload", "uniform_mesh_serial", "--seed", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, env=env,
    )
    line = _last_json_line(done.stdout)
    assert line["correct"] is False and line["failed"] >= 1
    assert "native_stages" in done.stderr
