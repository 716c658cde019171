"""Force accuracy against the exact periodic force.

The reference is minimum-image direct summation plus the tabulated
Ewald correction, ``EwaldCorrectionTable(n=32)``: both independent of
the tree, the mesh and the force split.  Building the table costs ~8 s,
so it is pickled into the benchmark's build directory, keyed by the
source of the modules that define it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Dict

import numpy as np

from repro.forces import ewald, ewald_table
from repro.forces.direct import direct_forces_periodic_mi
from repro.treepm.solver import TreePMSolver

TABLE_N = 32
N_PROBES = 512
#: probe targets per block of the correction sum (a (block, N, 3)
#: displacement array that stays in cache)
_BLOCK = 4


def correction_table(cache_dir: Path) -> ewald_table.EwaldCorrectionTable:
    """``EwaldCorrectionTable(TABLE_N)``, from disk when already built."""
    key = hashlib.sha256()
    for module in (ewald, ewald_table):
        key.update(Path(module.__file__).read_bytes())
    path = Path(cache_dir) / f"ewald-table-{TABLE_N}-{key.hexdigest()[:16]}.pkl"
    if path.exists():
        return pickle.loads(path.read_bytes())
    table = ewald_table.EwaldCorrectionTable(n=TABLE_N)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(pickle.dumps(table))
    tmp.replace(path)
    return table


def exact_forces(
    pos: np.ndarray, mass: np.ndarray, eps: float, probes: np.ndarray, table
) -> np.ndarray:
    """Exact periodic accelerations of the particles ``probes``."""
    targets = pos[probes]
    acc = direct_forces_periodic_mi(pos, mass, eps=eps, targets=targets)
    for lo in range(0, len(targets), _BLOCK):
        # the table holds the correction to the acceleration of a particle
        # displaced by dx *from* its source
        dx = targets[lo : lo + _BLOCK, None, :] - pos[None, :, :]
        acc[lo : lo + _BLOCK] += np.einsum("tsk,s->tk", table.correction(dx), mass)
    return acc


def force_errors(approx: np.ndarray, exact: np.ndarray, mass: np.ndarray) -> Dict[str, float]:
    """Force error over the probes, in units of the force between two
    mean-mass particles at the mean interparticle distance,
    ``G m / d^2`` with ``d = N^(-1/3)`` (G = 1, box = 1).

    The unit is fixed by the input's size, not by its realisation: on
    the near-uniform workload the forces themselves are set by the few
    box-scale modes of the random field and vary by 20% from seed to
    seed while the absolute error varies by 5%, so an error relative to
    ``|a_exact|`` could not be held to any bound.  The relative figures
    are returned too, for the record.
    """
    err = np.linalg.norm(approx - exact, axis=1)
    unit = float(np.mean(mass)) * len(mass) ** (2.0 / 3.0)
    rel = err / np.linalg.norm(exact, axis=1)
    return {
        "force_err_rms": float(np.sqrt(np.mean(err**2))) / unit,
        "force_err_p90": float(np.percentile(err, 90)) / unit,
        "force_relerr_rms": float(np.sqrt(np.mean(rel**2))),
        "force_relerr_p90": float(np.percentile(rel, 90)),
    }


def choose_probes(n_particles: int, seed: int, n_probes: int) -> np.ndarray:
    rng = np.random.default_rng([int(seed), 2])
    return np.sort(rng.choice(n_particles, size=min(n_probes, n_particles), replace=False))


def treepm_errors(treepm_config, inputs, seed: int, n_probes: int, cache_dir: Path) -> Dict[str, float]:
    """Error of ``TreePMSolver.forces`` on the input state at seeded
    probe particles.  The decomposed force of the 2-rank driver agrees
    with this one far inside the error itself (the serial-twin check
    holds the two trajectories together), so every workload reports the
    accuracy of the solver on its input."""
    pos, mass = inputs["pos"], inputs["mass"]
    probes = choose_probes(len(pos), seed, n_probes)
    approx = TreePMSolver(treepm_config).forces(pos, mass).total[probes]
    exact = exact_forces(pos, mass, treepm_config.softening, probes, correction_table(cache_dir))
    return force_errors(approx, exact, mass)
