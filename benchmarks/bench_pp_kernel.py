"""Section II-A: the optimized particle-particle force loop.

The paper's kernel reaches 11.65 Gflops/core on a simple O(N^2)
benchmark — 97% of its 12 Gflops theoretical limit (51 flops per
interaction, 17 FMA + 17 non-FMA per SIMD pair).  This harness:

* reproduces the 12 Gflops limit and the 75% ceiling from the machine
  model;
* quantifies the fast-rsqrt path's accuracy (the 24-bit trade-off).

Our own kernel's throughput is ``pp.interactions_per_s`` /
``pp.frac_of_peak`` of ``python3 benchmarks/spine/run.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.kcomputer import KComputerModel
from repro.pp.rsqrt import rsqrt_relative_error

class TestKernelModel:
    def test_limit_derivation(self, benchmark, save_result):
        """12 Gflops = 102 flops / 17 cycles * 2 GHz."""

        def work():
            m = KComputerModel()
            return (
                m.kernel_cycles_per_simd_iteration,
                m.kernel_flops_per_cycle,
                m.kernel_peak_per_core,
            )

        cycles, fpc, peak = benchmark(work)
        save_result(
            "pp_kernel_limit",
            f"SIMD iteration: {cycles} cycles, {fpc:.1f} flops/cycle "
            f"-> {peak/1e9:.1f} Gflops/core (paper: 12)",
        )
        assert cycles == 17
        assert peak == pytest.approx(12e9)

    def test_rsqrt_24bit_accuracy(self, benchmark, save_result):
        """The third-order refinement's accuracy profile."""

        def work():
            x = np.geomspace(1e-12, 1e12, 100000)
            return float(rsqrt_relative_error(x).max())

        err = benchmark(work)
        save_result(
            "pp_kernel_rsqrt",
            f"fast rsqrt max relative error: {err:.3e} "
            f"(~2^{np.log2(err):.1f}; paper targets 24-bit accuracy)",
        )
        assert err < 2.0**-22
