"""Strong scaling: 1.53 Pflops at 24576 nodes -> 4.45 Pflops at 82944.

**Projected**: our per-interaction work projected through the K
computer model reproduces the paper's Pflops pair, and the total-time
model reproduces the 2.89x speedup at 3.375x nodes.  Measured scaling
of our own step is ``strong_scaling_eff`` of
``python3 benchmarks/spine/run.py`` on the 2-rank workloads.
"""

from __future__ import annotations

import pytest

from repro.perf.flops import efficiency, measured_performance
from repro.perf.kcomputer import K_FULL
from repro.perf.model import PAPER_TOTALS, PAPER_TABLE1, TableOneModel


class TestProjectedScaling:
    def test_paper_pflops_pair(self, benchmark, save_result):
        """Project the paper's interaction counts through the machine
        model and the Table I scaling model."""

        def work():
            model = TableOneModel()
            model.calibrate(PAPER_TABLE1[24576], 24576)
            t82 = model.predict_total(82944)
            # account for the overhead gap between listed rows and the
            # reported totals (constant fraction)
            overhead = PAPER_TOTALS[24576]["total_seconds"] / sum(
                PAPER_TABLE1[24576].values()
            )
            return t82 * overhead

        t82 = benchmark(work)
        perf24 = measured_performance(
            PAPER_TOTALS[24576]["interactions_per_step"],
            PAPER_TOTALS[24576]["total_seconds"],
        )
        perf82_pred = measured_performance(
            PAPER_TOTALS[82944]["interactions_per_step"], t82
        )
        perf82_meas = measured_performance(
            PAPER_TOTALS[82944]["interactions_per_step"],
            PAPER_TOTALS[82944]["total_seconds"],
        )
        lines = [
            "Strong-scaling projection 24576 -> 82944 nodes",
            f"  predicted step time: {t82:.1f} s (paper measured 60.2 s)",
            f"  predicted performance: {perf82_pred/1e15:.2f} Pflops "
            f"(paper 4.45)",
            f"  anchored measurement: {perf24/1e15:.2f} Pflops at 24576 "
            f"(paper 1.53)",
            f"  predicted efficiency: "
            f"{100*efficiency(perf82_pred, K_FULL.machine):.1f}% (paper 42.0%)",
        ]
        save_result("scaling_projected", "\n".join(lines))
        assert perf82_pred / 1e15 == pytest.approx(4.45, rel=0.1)
        assert t82 == pytest.approx(60.2, rel=0.1)
        assert perf82_meas / 1e15 == pytest.approx(4.45, rel=0.03)
