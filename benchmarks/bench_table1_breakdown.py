"""Table I: per-step cost breakdown and the headline Pflops numbers.

Two reproductions in one harness:

1. the analytic cross-validation — calibrate the per-row scaling model
   on the paper's 24576-node column and predict the 82944-node column;
2. the aggregate metrics (1.53 / 4.45 Pflops, 48.7% / 42.0% efficiency)
   recomputed from the paper's inputs through our machine model.

The measured breakdown of our own step is the traced pass of
``python3 benchmarks/spine/run.py`` (per-layer metrics, every workload).
"""

from __future__ import annotations

import pytest

from repro.perf.flops import efficiency, measured_performance
from repro.perf.kcomputer import K_FULL, K_PARTIAL
from repro.perf.model import PAPER_TABLE1, PAPER_TOTALS, TableOneModel
from repro.perf.report import format_table1


class TestTable1:
    def test_cross_validated_prediction(self, benchmark, save_result):
        """Calibrate at 24576 nodes -> predict 82944; render Table I."""

        def work():
            model = TableOneModel()
            model.calibrate(PAPER_TABLE1[24576], 24576)
            return model.predict(82944)

        pred = benchmark(work)

        footer = {}
        for label, p, machine in (
            ("paper p=24576", 24576, K_PARTIAL.machine),
            ("paper p=82944", 82944, K_FULL.machine),
        ):
            tot = PAPER_TOTALS[p]
            perf = measured_performance(
                tot["interactions_per_step"], tot["total_seconds"]
            )
            footer[label] = {
                "<Ni>": tot["ni"],
                "<Nj>": tot["nj"],
                "interactions/step (P)": tot["interactions_per_step"] / 1e15,
                "measured Pflops": perf / 1e15,
                "efficiency %": 100 * efficiency(perf, machine),
            }
        txt = format_table1(
            {
                "paper p=24576": PAPER_TABLE1[24576],
                "paper p=82944": PAPER_TABLE1[82944],
                "model->82944": pred,
            },
            footer=footer,
            title="TABLE I — paper measurements vs strong-scaling model "
            "(calibrated at p=24576)",
        )
        save_result("table1_breakdown", txt)

        meas = PAPER_TABLE1[82944]
        for row, value in meas.items():
            assert pred[row] == pytest.approx(value, rel=0.4), row

    def test_headline_pflops(self, benchmark, save_result):
        """1.53 and 4.45 Pflops, 48.7% and 42.0% efficiency."""

        def work():
            out = {}
            for p, machine in ((24576, K_PARTIAL.machine), (82944, K_FULL.machine)):
                tot = PAPER_TOTALS[p]
                perf = measured_performance(
                    tot["interactions_per_step"], tot["total_seconds"]
                )
                out[p] = (perf / 1e15, efficiency(perf, machine))
            return out

        out = benchmark(work)
        lines = ["headline reproduction (from interactions x 51 / step time):"]
        for p, (pf, eff) in out.items():
            paper = PAPER_TOTALS[p]
            lines.append(
                f"  p={p}: {pf:.2f} Pflops (paper {paper['pflops']}), "
                f"efficiency {100*eff:.1f}% (paper {100*paper['efficiency']:.1f}%)"
            )
        save_result("table1_headline", "\n".join(lines))
        assert out[24576][0] == pytest.approx(1.53, rel=0.03)
        assert out[82944][0] == pytest.approx(4.45, rel=0.03)
        assert out[24576][1] == pytest.approx(0.487, rel=0.03)
        assert out[82944][1] == pytest.approx(0.420, rel=0.03)
