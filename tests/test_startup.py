"""Start-up carries no dead weight: scipy serves the oracles, analysis
and initial conditions, and neither a static run nor a cosmological
step imports it.  Each check runs in a fresh interpreter, since this test
session imported scipy long ago."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_static_runs_never_import_scipy():
    out = _python(
        """
        import sys
        import numpy as np

        def scipy_loaded():
            return sorted(m for m in sys.modules if m.startswith("scipy"))

        import repro
        from repro import (
            DomainConfig, PMConfig, SerialSimulation, SimulationConfig,
            TreePMConfig, run_parallel_simulation,
        )
        assert not scipy_loaded(), ("import repro", scipy_loaded())

        rng = np.random.default_rng(0)
        n = 300
        pos, mass = rng.random((n, 3)), np.full(n, 1.0 / n)
        treepm = TreePMConfig(pm=PMConfig(mesh_size=16))
        sim = SerialSimulation(
            SimulationConfig(treepm=treepm), pos, np.zeros_like(pos), mass
        )
        sim.run(0.0, 0.01, n_steps=3)
        assert not scipy_loaded(), ("serial run", scipy_loaded())

        config = SimulationConfig(
            treepm=treepm, domain=DomainConfig(divisions=(2, 1, 1))
        )
        run_parallel_simulation(
            config, pos, np.zeros_like(pos), mass, 0.0, 0.01, 3,
            backend="thread",
        )
        assert not scipy_loaded(), ("2-rank run", scipy_loaded())
        print("clean")
        """
    )
    assert out.split() == ["clean"]


def test_cosmological_steps_never_import_scipy():
    out = _python(
        """
        import sys
        from repro.cosmology.params import WMAP7
        from repro.integrate.stepper import CosmoStepper

        # the uniform benchmark workloads' schedule: 40 geometric steps
        # in the scale factor from 1/401 to 1/201
        a0, r = 1.0 / 401.0, (401.0 / 201.0) ** (1.0 / 40.0)
        stepper = CosmoStepper(WMAP7)
        for k in range(40):
            a1, a2 = a0 * r**k, a0 * r ** (k + 1)
            stepper.drift_coeff(a1, a2)
            stepper.kick_coeff(a1, a2)
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """
    )
    assert out.split() == ["[]"]
