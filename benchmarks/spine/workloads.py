"""The four workloads: seed -> particles, configuration, step schedule.

The program under test receives only positions, momenta and masses; the
seed never reaches it.  Sizes were chosen on a 2-core host so that each
layer has one workload where it dominates the step and one where it
does not (see README.md, "Why each workload exists").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro import (
    DomainConfig,
    PMConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
)
from repro.cosmology.params import WMAP7
from repro.cosmology.power_spectrum import PowerSpectrum
from repro.ic.zeldovich import ZeldovichIC
from repro.integrate.stepper import CosmoStepper, StaticStepper

# clustered input: one off-centre Gaussian halo over a uniform background
HALO_N, BACKGROUND_N = 16000, 8000
HALO_CENTER, HALO_SIGMA = (0.3, 0.4, 0.6), 0.04
CLUSTERED_DT = 5.0e-4

# uniform input: examples/cosmological_box.py at 24^3, the paper's z = 400
UNIFORM_N_PER_DIM = 24
K_FS = 1.0e6
BOX_MPC_H = 40.0 / K_FS
BOOST = 3.0
A_START = 1.0 / 401.0
#: 40 steps take a from 1/401 to 1/201
A_RATIO = (401.0 / 201.0) ** (1.0 / 40.0)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "clustered" | "uniform": which input generator
    ranks: int
    mesh: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("clustered_serial", "clustered", 1, 32),
        Workload("uniform_mesh_serial", "uniform", 1, 128),
        Workload("clustered_2rank", "clustered", 2, 32),
        Workload("uniform_mesh_2rank", "uniform", 2, 128),
    )
}


def make_inputs(kind: str, seed: int) -> Dict[str, np.ndarray]:
    """Positions, momenta and masses for one input kind and seed."""
    if kind == "clustered":
        rng = np.random.default_rng([int(seed), 1])
        n = HALO_N + BACKGROUND_N
        halo = np.asarray(HALO_CENTER) + HALO_SIGMA * rng.standard_normal((HALO_N, 3))
        pos = np.mod(np.vstack([halo, rng.random((BACKGROUND_N, 3))]), 1.0)
        # isotropic velocities at the halo's virial dispersion
        # (sigma_v^2 = G M / (6 sqrt(pi) sigma) for a Gaussian profile)
        # keep the halo from collapsing, so the cost of a step does not
        # drift while the closed loop runs
        sigma_v = np.sqrt((HALO_N / n) / (6.0 * np.sqrt(np.pi) * HALO_SIGMA))
        mom = np.zeros_like(pos)
        mom[:HALO_N] = sigma_v * rng.standard_normal((HALO_N, 3))
        mom -= mom.mean(axis=0)
        return {"pos": pos, "mom": mom, "mass": np.full(n, 1.0 / n)}
    if kind == "uniform":
        base = PowerSpectrum(WMAP7, k_fs=K_FS).in_box_units(BOX_MPC_H)
        ic = ZeldovichIC(
            WMAP7,
            lambda k, z=0.0: BOOST**2 * base(k, z),
            n_per_dim=UNIFORM_N_PER_DIM,
            seed=int(seed),
        )
        pos, mom, mass = ic.generate(a_start=A_START)
        return {"pos": pos, "mom": mom, "mass": mass}
    raise ValueError(f"unknown input kind {kind!r}")


def make_config(w: Workload) -> SimulationConfig:
    clustered = w.kind == "clustered"
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(opening_angle=0.5, group_size=64),
            pm=PMConfig(mesh_size=w.mesh),
            rcut_mesh_units=3.0,
            softening=5.0e-3 if clustered else 0.02 / UNIFORM_N_PER_DIM,
        ),
        domain=DomainConfig(divisions=(w.ranks, 1, 1), sample_rate=0.1),
        pp_subcycles=2,
    )


def make_stepper(w: Workload):
    return StaticStepper() if w.kind == "clustered" else CosmoStepper(WMAP7)


def step_edges(w: Workload, k: int):
    """``(t1, t2)`` of step ``k``: equal steps in time for the static
    workloads, geometric in the scale factor for the cosmological ones."""
    if w.kind == "clustered":
        return k * CLUSTERED_DT, (k + 1) * CLUSTERED_DT
    return A_START * A_RATIO**k, A_START * A_RATIO ** (k + 1)
