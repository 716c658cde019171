"""Smoke tests of the public API surface.

Every name a subpackage exports must import and be a real attribute —
the guard against __init__ drift as modules evolve.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.forces",
    "repro.pp",
    "repro.tree",
    "repro.mesh",
    "repro.treepm",
    "repro.mpi",
    "repro.decomp",
    "repro.meshcomm",
    "repro.integrate",
    "repro.sim",
    "repro.cosmology",
    "repro.ic",
    "repro.analysis",
    "repro.perf",
    "repro.utils",
    "repro.validate",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} lacks __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} missing"
        assert getattr(mod, name) is not None


@pytest.mark.parametrize("package", PACKAGES)
def test_package_docstrings(package):
    """Every package documents itself (deliverable e)."""
    mod = importlib.import_module(package)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 40, package


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_readme_quickstart_runs():
    """The README's quickstart snippet must actually work."""
    import numpy as np

    from repro import SimulationConfig
    from repro.sim.serial import SerialSimulation

    rng = np.random.default_rng(0)
    n = 64
    sim = SerialSimulation(
        SimulationConfig(
            treepm=__import__("repro").TreePMConfig(
                pm=__import__("repro").PMConfig(mesh_size=16),
                softening=5e-3,
            )
        ),
        rng.random((n, 3)),
        np.zeros((n, 3)),
        np.full(n, 1.0 / n),
    )
    sim.run(0.0, 0.02, n_steps=1)
    assert sim.steps_taken == 1


def test_traced_names_live_where_the_benchmark_replaces_them():
    """``benchmarks/spine/trace.py`` swaps callables through
    ``vars(owner)[attr]``: a method that moves to a base class, or a
    function no longer imported by name into the calling module, is a
    ``KeyError`` in the traced benchmark pass.  Fail here instead."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spine" / "trace.py"
    spec = importlib.util.spec_from_file_location("_spine_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)

    table = trace.SERIAL_SPANS + trace.TREE_SPANS + trace.PARALLEL_SPANS
    assert table
    for module, cls, attr, *_ in table:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(vars(owner).get(attr)), f"{module}:{cls}.{attr} moved"
