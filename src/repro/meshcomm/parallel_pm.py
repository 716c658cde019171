"""The distributed PM cycle: GreeM's five steps, both conversion methods.

A :class:`ParallelPM` instance lives on every rank of an SPMD job and
executes the paper's PM procedure:

1. density assignment onto the rank's local (ghosted) mesh,
2. conversion of the 3-D-decomposed density to 1-D FFT slabs
   (straightforward global all-to-all, or the relay mesh method),
3. parallel FFT + convolution with the long-range Green's function
   (COMM_FFT only; other ranks wait, as in the paper),
4. conversion of the slab potential back to local meshes,
5. four-point finite differences and TSC force interpolation.

With ``n_groups = 1`` the relay structure degenerates exactly to the
straightforward method; with ``n_groups > 1`` the global exchange is
replaced by one all-to-all inside each group (COMM_SMALLA2A), a
reduction of partial slabs onto the root group (COMM_REDUCE), and a
broadcast back (steps and communicator names follow the paper, Fig. 5).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mesh.assignment import (
    assign_mass_local,
    differences_at_gather,
    interpolate_local,
)
from repro.mesh.differentiate import gradient_block
from repro.meshcomm.convert import local_to_slab, slab_to_local
from repro.meshcomm.parallel_fft import SlabFFT
from repro.meshcomm.slab import LocalMeshRegion, SlabDecomposition
from repro.utils.timer import TimingLedger
from repro.validate.checks import check_finite, check_mesh_mass

__all__ = ["ParallelPM", "mesh_accelerations"]

#: ghost width of the density mesh (TSC stencil reach = 1, +1 safety)
DENSITY_GHOST = 2
#: ghost width of the potential mesh (4-point differencing needs 2,
#: plus 1 for the interpolation stencil of the force mesh)
POTENTIAL_GHOST = 3


def mesh_accelerations(
    local_phi: np.ndarray,
    pos: np.ndarray,
    region: LocalMeshRegion,
    box: float,
    assignment: str,
    differencing: str,
    timing: TimingLedger,
) -> np.ndarray:
    """Step 5 of the PM cycle, shared by the slab and the pencil solver:
    finite differences of the ghosted potential, interpolated at the
    particles and negated into accelerations.

    The native gather differences the potential at each particle's
    stencil cells, so the ``(nx, ny, nz, 3)`` force block is stored only
    on the numpy fallback; Table I's two rows are charged what each
    phase actually took either way.

    ``gradient_block`` and ``interpolate_local`` are looked up in this
    module's namespace on purpose: ``benchmarks/spine/trace.py`` times
    them by replacing exactly these two names here (``mesh.accel`` /
    ``mesh.interp``), until the telemetry of ROADMAP item 6 emits the
    spans from inside.
    """
    with timing.phase("PM/acceleration on mesh"):
        fused = differences_at_gather(local_phi, differencing, trim=2)
        field = local_phi
        if not fused:
            field = gradient_block(
                local_phi, box / region.n, scheme=differencing, trim=2
            )
    with timing.phase("PM/force interpolation"):
        return -interpolate_local(
            field, pos, region, box, assignment, trim=2,
            difference=differencing if fused else None,
        )


class ParallelPM:
    """Distributed long-range force solver on an SPMD communicator.

    Parameters
    ----------
    comm:
        World communicator of the SPMD job.
    n:
        Global PM mesh size per dimension.
    split:
        Force split shaping the Green's function (``None`` = pure PM).
    n_fft:
        Number of FFT processes (default ``min(size, n)``; the 1-D
        slab limit caps it at ``n``).
    n_groups:
        Relay mesh groups; 1 = the straightforward method.  Every group
        must contain at least ``n_fft`` ranks.
    """

    #: FFT layout, as it appears in the ``pm:mesh_to_*`` traffic phases
    layout = "slab"

    def __init__(
        self,
        comm,
        n: int,
        box: float = 1.0,
        split=None,
        G: float = 1.0,
        n_fft: Optional[int] = None,
        n_groups: int = 1,
        assignment: str = "tsc",
        deconvolve: Optional[int] = None,
        differencing: str = "four_point",
    ) -> None:
        self._configure(
            comm, n, box, split, G, assignment, deconvolve, differencing
        )
        if n_fft is None:
            n_fft = min(comm.size, self.n)
        if not 1 <= n_fft <= min(comm.size, self.n):
            raise ValueError("n_fft must be in [1, min(size, n)]")
        if n_groups < 1 or n_groups * n_fft > comm.size:
            raise ValueError(
                f"need n_groups * n_fft <= comm size "
                f"({n_groups} * {n_fft} > {comm.size})"
            )
        self.n_fft = int(n_fft)
        self.n_groups = int(n_groups)
        self.slabs = SlabDecomposition(self.n, self.n_fft)

        # contiguous group blocks; group 0 (the root group) holds the
        # FFT processes
        base, extra = divmod(comm.size, self.n_groups)
        sizes = [base + (1 if g < extra else 0) for g in range(self.n_groups)]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        rank = comm.rank
        self.group = int(np.searchsorted(starts, rank, side="right") - 1)
        self.rank_in_group = rank - int(starts[self.group])

        # COMM_SMALLA2A: all ranks of one group
        self.comm_small = comm.split(color=self.group)
        # COMM_REDUCE: same slab-holder position across groups (root =
        # the member from group 0, which has the smallest world rank)
        is_holder = self.rank_in_group < self.n_fft
        self.comm_reduce = comm.split(color=self.rank_in_group if is_holder else None)
        # COMM_FFT: the root group's slab holders
        self.comm_fft = comm.split(
            color=0 if (self.group == 0 and is_holder) else None
        )
        self.is_fft_rank = self.comm_fft is not None
        self.is_holder = is_holder

        if self.is_fft_rank:
            self.fft = SlabFFT(self.comm_fft, self.n)
            self.greens_slab = self._greens_block()
        else:
            self.fft = None
            self.greens_slab = None

    def _configure(
        self, comm, n, box, split, G, assignment, deconvolve, differencing
    ) -> None:
        """The layout-independent half of construction."""
        self.comm = comm
        self.n = int(n)
        self.box = float(box)
        self.split = split
        self.G = float(G)
        self.assignment = assignment
        self.differencing = differencing
        if deconvolve is None:
            deconvolve = 2 if split is not None else 1
        self.deconvolve = deconvolve

    def _greens_block(self) -> np.ndarray:
        """The block of the Green's function this FFT rank holds."""
        return self.fft.greens_slice(
            box=self.box,
            split=self.split,
            G=self.G,
            assignment=self.assignment,
            deconvolve=self.deconvolve,
        )

    @property
    def split_comms(self) -> tuple:
        """The communicators this rank holds besides the world's (each
        ``Comm`` keeps its own traffic and wait counters)."""
        comms = (self.comm_small, self.comm_reduce, self.comm_fft)
        return tuple(c for c in comms if c is not None)

    # -- region helpers -----------------------------------------------------------

    def density_region(self, dom_lo, dom_hi) -> LocalMeshRegion:
        """Local density-mesh region for a spatial domain."""
        return LocalMeshRegion.from_domain(
            self.n, dom_lo, dom_hi, self.box, DENSITY_GHOST
        )

    def potential_region(self, dom_lo, dom_hi) -> LocalMeshRegion:
        """Local potential-mesh region for a spatial domain."""
        return LocalMeshRegion.from_domain(
            self.n, dom_lo, dom_hi, self.box, POTENTIAL_GHOST
        )

    # -- steps 2-4 in this layout (the pencil solver supplies its own) --------------

    def density_to_fft_layout(
        self, local_rho: Optional[np.ndarray], region: Optional[LocalMeshRegion]
    ) -> Optional[np.ndarray]:
        """Step 2: the complete density slab on the FFT ranks (relay:
        all-to-all inside each group, then a reduction onto the root
        group), ``None`` elsewhere."""
        partial = local_to_slab(self.comm_small, local_rho, region, self.slabs)
        if self.is_holder:
            return self.comm_reduce.reduce(partial, op="sum", root=0)
        return None

    def convolve(self, rho_slab: np.ndarray) -> np.ndarray:
        """Step 3, FFT ranks only: the potential slab."""
        return self.fft.convolve(rho_slab, self.greens_slab)

    def potential_to_local(
        self, phi_slab: Optional[np.ndarray], region: LocalMeshRegion
    ) -> np.ndarray:
        """Step 4: this rank's ghosted potential mesh."""
        if self.is_holder:
            phi_slab = self.comm_reduce.bcast(phi_slab, root=0)
        return slab_to_local(self.comm_small, phi_slab, region, self.slabs)

    # -- the PM cycle ---------------------------------------------------------------

    def solve_potential_slabs(
        self, local_rho: Optional[np.ndarray], region: Optional[LocalMeshRegion]
    ) -> Optional[np.ndarray]:
        """Steps 2-3: density conversion + FFT; returns the potential
        slab on FFT ranks, ``None`` elsewhere.  No timing/backwards
        conversion — building block for tests and the relay benchmark."""
        complete = self.density_to_fft_layout(local_rho, region)
        return self.convolve(complete) if self.is_fft_rank else None

    def forces(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        dom_lo,
        dom_hi,
        timing: Optional[TimingLedger] = None,
        validator=None,
    ) -> np.ndarray:
        """The full PM cycle for this rank's particles, in either FFT
        layout: steps 1 and 5 and all bookkeeping live here, steps 2-4
        go through :meth:`density_to_fft_layout`, :meth:`convolve` and
        :meth:`potential_to_local`.

        ``pos``/``mass`` are the particles owned by this rank, all
        inside ``[dom_lo, dom_hi)``.  Returns their long-range
        accelerations.  Phase timings use the paper's Table I row names;
        traffic phases ``pm:*`` are recorded for the network model.

        ``validator`` (a :class:`repro.validate.Validator`) enables mass
        conservation checks through the assignment and the relay/slab
        conversion, plus a finite-field sweep of the returned
        accelerations.  All validator traffic is collective, so every
        rank must pass the same validator (or none).
        """
        timing = timing if timing is not None else TimingLedger()
        rho_region = self.density_region(dom_lo, dom_hi)
        pot_region = self.potential_region(dom_lo, dom_hi)
        cell_vol = (self.box / self.n) ** 3

        # map each particle to its periodic image nearest the domain
        # center: a particle that drifted across the box boundary since
        # the last exchange would otherwise land far outside the local
        # (unwrapped) mesh window
        pos = np.asarray(pos, dtype=np.float64)
        center = 0.5 * (np.asarray(dom_lo) + np.asarray(dom_hi))
        pos = pos - self.box * np.round((pos - center) / self.box)

        with timing.phase("PM/density assignment"):
            local_rho = assign_mass_local(
                pos, mass, rho_region, self.box, self.assignment
            )
            local_rho /= cell_vol

        check_mass = validator is not None and validator.check_enabled(
            "mass_conservation"
        )

        def handle_mass(mesh_sum: float, stage: str) -> None:
            # the allreduce shares the verdict so every rank agrees
            totals = self.comm.allreduce(
                np.array([mesh_sum * cell_vol, mass.sum()]), op="sum"
            )
            validator.handle(
                check_mesh_mass(
                    float(totals[0]),
                    float(totals[1]),
                    stage=stage,
                    step=validator.step,
                    rank=self.comm.rank,
                )
            )

        if check_mass:
            handle_mass(local_rho.sum(), "mesh/assignment")

        self.comm.traffic_phase(f"pm:mesh_to_{self.layout}")
        with timing.phase("PM/communication"):
            fft_rho = self.density_to_fft_layout(local_rho, rho_region)
        if check_mass:
            # the complete density lives on the FFT ranks only
            handle_mass(
                float(fft_rho.sum()) if self.is_fft_rank else 0.0,
                "meshcomm/convert",
            )

        self.comm.traffic_phase("pm:fft")
        with timing.phase("PM/FFT"):
            fft_phi = self.convolve(fft_rho) if self.is_fft_rank else None
            self.comm.barrier()  # non-FFT processes "wait the end of FFT"

        self.comm.traffic_phase(f"pm:{self.layout}_to_mesh")
        with timing.phase("PM/communication"):
            local_phi = self.potential_to_local(fft_phi, pot_region)
        self.comm.traffic_phase("pm:done")

        acc = mesh_accelerations(
            local_phi, pos, pot_region, self.box,
            self.assignment, self.differencing, timing,
        )
        if validator is not None and validator.check_enabled("finite_fields"):
            validator.handle_collective(
                self.comm,
                check_finite(
                    "pm_acc", acc, stage="treepm/pm",
                    step=validator.step, rank=self.comm.rank,
                ),
            )
        return acc
