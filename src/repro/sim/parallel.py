"""The distributed GreeM-style simulation driver (SPMD).

One :class:`ParallelSimulation` instance runs on each rank and executes
the paper's full per-step pipeline:

* **Domain decomposition** — position update bookkeeping, the sampling
  method (cost-proportional rates, boundary smoothing), particle
  exchange;
* **PP** — ghost ("local tree") selection and exchange, local tree
  construction, Barnes-modified traversal, the PP force kernel;
* **PM** — local density assignment, the (relay) mesh conversion,
  slab FFT, back conversion, finite differences, interpolation;

with the step structure "a cycle of the PM and ``pp_subcycles`` cycles
of the PP and the domain decomposition", and a timing ledger whose rows
are exactly Table I's.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional

import numpy as np

from repro.config import SimulationConfig
from repro.decomp.exchange import exchange_particles
from repro.decomp.multisection import MultisectionDecomposition
from repro.decomp.sampling import SamplingDecomposer
from repro.forces.cutoff import get_split
from repro.integrate.stepper import StaticStepper
from repro.meshcomm.parallel_pm import ParallelPM
from repro.mpi.backend import create_backend
from repro.native import update as _native_update
from repro.pp.kernel import InteractionCounter
from repro.sim import checkpoint as _ckpt
from repro.sim.checkpoint import CheckpointError
from repro.sim.ghosts import exchange_ghosts
from repro.tree.traversal import TreeSolver
from repro.utils.periodic import wrap_positions
from repro.utils.timer import TimingLedger
from repro.validate import (
    MomentumDriftMonitor,
    Validator,
    check_domain_containment,
    check_domain_partition,
    check_finite,
    check_momentum,
    check_octree,
    first_violation,
    refuse_unrun_checks,
)

__all__ = [
    "ParallelSimulation",
    "run_parallel_simulation",
    "resume_parallel_simulation",
]


class ParallelSimulation:
    """Per-rank simulation state and step logic.

    Parameters
    ----------
    comm:
        World communicator.
    config:
        Simulation configuration; ``config.domain.divisions`` must
        multiply to ``comm.size``.
    pos, mom, mass:
        This rank's initial particles (any spatial distribution: the
        first decomposition update redistributes them).
    stepper:
        Kick/drift coefficients (static or cosmological).
    """

    def __init__(
        self,
        comm,
        config: SimulationConfig,
        pos: np.ndarray,
        mom: np.ndarray,
        mass: np.ndarray,
        stepper=None,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        if config.domain.n_domains != comm.size:
            raise ValueError(
                f"domain divisions {config.domain.divisions} do not match "
                f"{comm.size} ranks"
            )
        self.comm = comm
        self.config = config
        self.stepper = stepper if stepper is not None else StaticStepper()
        self.pos = np.array(pos, dtype=np.float64)
        self.mom = np.array(mom, dtype=np.float64)
        self.mass = np.array(mass, dtype=np.float64)
        if ids is None:
            # globally unique default ids: offset by a rank-exclusive scan
            starts = np.concatenate([[0], np.cumsum(comm.allgather(len(self.pos)))])
            ids = np.arange(starts[comm.rank], starts[comm.rank] + len(self.pos))
        self.ids = np.array(ids, dtype=np.int64)

        tp = config.treepm
        self.split = get_split(tp.split, tp.rcut)
        self.tree = TreeSolver(
            box=1.0,
            theta=tp.tree.opening_angle,
            leaf_size=tp.tree.leaf_size,
            group_size=tp.tree.group_size,
            split=self.split,
            eps=tp.softening,
            G=1.0,
            periodic=True,
            use_quadrupole=tp.tree.use_quadrupole,
            plan_float32=tp.tree.plan_float32,
        )
        if tp.pm.fft_backend == "pencil":
            from repro.meshcomm.parallel_pencil_pm import ParallelPencilPM

            self.pm = ParallelPencilPM(
                comm,
                tp.pm.mesh_size,
                split=self.split,
                assignment=tp.pm.assignment,
                deconvolve=2 if tp.pm.deconvolve else 0,
                differencing=tp.pm.differencing,
            )
        else:
            self.pm = ParallelPM(
                comm,
                tp.pm.mesh_size,
                split=self.split,
                # the FFT processes must fit inside the relay root group
                n_fft=min(comm.size // config.relay.n_groups, tp.pm.mesh_size),
                n_groups=config.relay.n_groups,
                assignment=tp.pm.assignment,
                deconvolve=2 if tp.pm.deconvolve else 0,
                differencing=tp.pm.differencing,
            )
        self.decomposer = SamplingDecomposer(
            config.domain.divisions,
            sample_rate=config.domain.sample_rate,
            window=config.domain.smoothing_window,
            cost_balance=config.domain.cost_balance,
            seed=config.seed,
        )
        self.decomp: MultisectionDecomposition = MultisectionDecomposition.uniform(
            config.domain.divisions
        )
        self.timing = TimingLedger()
        #: run-long streaming sums of every force evaluation's counter
        #: (``interactions``, per-call ``<Ni>``/``<Nj>``; constant memory)
        self.stats = InteractionCounter()
        self.steps_taken = 0
        self._pp_cost = 1.0e-6  # last measured PP seconds (for sampling)
        self._pm_acc: Optional[np.ndarray] = None
        self._pp_acc: Optional[np.ndarray] = None
        self.validator = Validator(
            config.validation, rank=comm.rank, dump_fn=self._diagnostic_dump
        )
        self._mom_monitor = (
            MomentumDriftMonitor(config.validation.momentum_tol)
            if self.validator.enabled
            else None
        )

    # -- validation hooks --------------------------------------------------------

    def _diagnostic_dump(self, violation) -> str:
        """Dump hook of an ``abort`` with ``dump_dir`` set: write a
        distributed diagnostic checkpoint (collective — the Validator
        invokes it on every rank) recording the violation in the
        manifest, and return its path."""
        step_dir = self.checkpoint(
            self.config.validation.dump_dir,
            extra={"violation": violation.summary()},
        )
        return str(step_dir)

    def _momentum_totals(self) -> np.ndarray:
        """Local ``[sum(m p), sum(m |p|)]`` as one 4-vector (one
        allreduce summand for conservation and drift checks)."""
        mp = self.mass[:, None] * self.mom
        return np.concatenate([mp.sum(axis=0), [np.abs(mp).sum()]])

    # -- pipeline pieces ---------------------------------------------------------

    def _domain_update(self) -> None:
        """Sampling method + particle exchange (carrying the PP force)."""
        v = self.validator
        check_mom = v.check_enabled("momentum_conservation")
        before = self._momentum_totals() if check_mom else None
        with self.timing.phase("Domain Decomposition/sampling method"):
            self.decomp = self.decomposer.update(self.comm, self.pos, self._pp_cost)
        if v.check_enabled("domain_partition"):
            v.handle(
                check_domain_partition(
                    self.decomp, step=v.step, rank=self.comm.rank
                )
            )
        with self.timing.phase("Domain Decomposition/particle exchange"):
            payload = {
                "pos": self.pos,
                "mom": self.mom,
                "mass": self.mass,
                "ids": self.ids,
            }
            if self._pp_acc is not None:
                payload["pp_acc"] = self._pp_acc
            out = exchange_particles(
                self.comm, self.decomp, payload, step=self.steps_taken
            )
        self.pos = out["pos"]
        self.mom = out["mom"]
        self.mass = out["mass"]
        self.ids = out["ids"]
        self._pp_acc = out.get("pp_acc")
        if check_mom:
            # one allreduce carries before+after; the broadcast result is
            # bit-identical everywhere, so every rank reaches the same
            # verdict and the serial handle path is collective-safe
            totals = self.comm.allreduce(
                np.concatenate([before, self._momentum_totals()]), op="sum"
            )
            v.handle(
                check_momentum(
                    totals[0:3],
                    totals[4:7],
                    stage="decomp/exchange",
                    scale=max(float(totals[3]), 1.0e-300),
                    step=v.step,
                    rank=self.comm.rank,
                )
            )
        if v.check_enabled("domain_containment"):
            v.handle_collective(
                self.comm,
                check_domain_containment(
                    self.pos, self.decomp, self.comm.rank, step=v.step
                ),
            )
        if v.check_enabled("finite_fields"):
            v.handle_collective(
                self.comm,
                first_violation(
                    check_finite(
                        "pos", self.pos, stage="decomp/exchange",
                        step=v.step, rank=self.comm.rank,
                    ),
                    check_finite(
                        "mom", self.mom, stage="decomp/exchange",
                        step=v.step, rank=self.comm.rank,
                    ),
                    check_finite(
                        "mass", self.mass, stage="decomp/exchange",
                        step=v.step, rank=self.comm.rank,
                    ),
                ),
            )

    def _pp_force(self) -> np.ndarray:
        """Ghost exchange + local tree + kernel; updates ``_pp_cost``."""
        import time as _time

        t_start = _time.perf_counter()
        self.comm.traffic_phase("pp:ghosts")
        gpos, gmass = exchange_ghosts(
            self.comm,
            self.decomp,
            self.pos,
            self.mass,
            rcut=self.split.cutoff_radius,
            ledger=self.timing,
        )
        all_pos = np.vstack([self.pos, gpos])
        all_mass = np.concatenate([self.mass, gmass])
        mask = np.zeros(len(all_pos), dtype=bool)
        mask[: len(self.pos)] = True
        v = self.validator
        tree = None
        if len(all_pos) == 0:
            self._pp_cost = 1.0e-6
            acc_local = np.zeros((0, 3))
        else:
            with self.timing.phase("PP/tree construction"):
                tree = self.tree.build(all_pos, all_mass)
            acc, stats = self.tree.forces(
                all_pos, all_mass, tree=tree, targets_mask=mask, ledger=self.timing
            )
            self.stats.merge(stats.counter)
            self._pp_cost = max(_time.perf_counter() - t_start, 1.0e-9)
            acc_local = acc[: len(self.pos)]
        # collective verdicts even when this rank is empty — every rank
        # must enter the same allgathers or the job deadlocks
        if v.check_enabled("finite_fields"):
            v.handle_collective(
                self.comm,
                first_violation(
                    check_finite(
                        "ghost_pos", gpos, stage="pp/ghosts",
                        step=v.step, rank=self.comm.rank,
                    ),
                    check_finite(
                        "ghost_mass", gmass, stage="pp/ghosts",
                        step=v.step, rank=self.comm.rank,
                    ),
                    check_finite(
                        "pp_acc", acc_local, stage="treepm/pp",
                        step=v.step, rank=self.comm.rank,
                    ),
                ),
            )
        if v.check_enabled("octree_moments"):
            v.handle_collective(
                self.comm,
                check_octree(tree, step=v.step, rank=self.comm.rank)
                if tree is not None
                else None,
            )
        return acc_local

    def _pm_force(self) -> np.ndarray:
        lo, hi = self.decomp.domain_bounds(self.comm.rank)
        return self.pm.forces(
            self.pos, self.mass, lo, hi, timing=self.timing,
            validator=self.validator if self.validator.enabled else None,
        )

    # -- the step -------------------------------------------------------------------

    def initialize_forces(self) -> None:
        """Bootstrap: first decomposition, PP and PM forces."""
        self._domain_update()
        self._pp_acc = self._pp_force()
        self._pm_acc = self._pm_force()

    def _kick(self, acc: np.ndarray, coeff: float) -> None:
        """``self.mom += acc * coeff`` through the native update kernel
        when available (bitwise-identical numpy arithmetic otherwise)."""
        if not _native_update.kick(self.mom, acc, coeff):
            self.mom += acc * coeff

    def _drift(self, coeff: float) -> None:
        """``self.pos = wrap_positions(self.pos + self.mom * coeff)``."""
        pos = np.array(self.pos, dtype=np.float64)
        if _native_update.drift_wrap(pos, self.mom, coeff, 1.0):
            self.pos = pos
        else:
            self.pos = wrap_positions(self.pos + self.mom * coeff)

    def step(self, t1: float, t2: float) -> None:
        """One full step: 1 PM cycle + ``pp_subcycles`` PP/DD cycles."""
        self.validator.begin_step(self.steps_taken)
        if self._pm_acc is None:
            self.initialize_forces()
        st = self.stepper
        tm = 0.5 * (t1 + t2)
        n_sub = self.config.pp_subcycles

        self._kick(self._pm_acc, st.kick_coeff(t1, tm))

        edges = np.linspace(t1, t2, n_sub + 1)
        for s in range(n_sub):
            s1, s2 = float(edges[s]), float(edges[s + 1])
            sm = 0.5 * (s1 + s2)
            if self.steps_taken > 0 or s > 0:
                # the bootstrap already decomposed and computed PP at
                # the very first substep
                self._domain_update()
                if self._pp_acc is None:
                    self._pp_acc = self._pp_force()
            self._kick(self._pp_acc, st.kick_coeff(s1, sm))
            with self.timing.phase("Domain Decomposition/position update"):
                self._drift(st.drift_coeff(s1, s2))
            self._pp_acc = self._pp_force()
            self._kick(self._pp_acc, st.kick_coeff(sm, s2))

        self._pm_acc = self._pm_force()
        self._kick(self._pm_acc, st.kick_coeff(tm, t2))
        self.steps_taken += 1
        if self._mom_monitor is not None and self.validator.check_enabled(
            "momentum_drift"
        ):
            totals = self.comm.allreduce(self._momentum_totals(), op="sum")
            self.validator.handle(
                self._mom_monitor.update(
                    totals[:3],
                    float(totals[3]),
                    step=self.steps_taken,
                    rank=self.comm.rank,
                )
            )

    def run(
        self,
        t_start: float,
        t_end: float,
        n_steps: int,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
        first_step: int = 0,
        keep_last: int = 0,
    ) -> None:
        """Integrate ``n_steps`` equal steps from ``t_start`` to
        ``t_end``, optionally writing a distributed checkpoint every
        ``checkpoint_every`` completed steps (and after the last one),
        keeping only the newest ``keep_last`` epochs when > 0.

        ``first_step`` resumes a stored schedule: the step edges are
        recomputed from the *full* schedule so a resumed run hits
        bit-identical step boundaries, then steps before ``first_step``
        are skipped.  Each step begins with a ``comm.fault_point``, the
        hook a :class:`repro.mpi.faults.FaultPlan` uses to kill ranks.
        """
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
        edges = np.linspace(t_start, t_end, n_steps + 1)
        schedule = {
            "t_start": float(t_start),
            "t_end": float(t_end),
            "n_steps": int(n_steps),
        }
        for i in range(int(first_step), n_steps):
            self.comm.fault_point(i)
            self.step(float(edges[i]), float(edges[i + 1]))
            if checkpoint_every and (
                (i + 1) % checkpoint_every == 0 or i + 1 == n_steps
            ):
                self.checkpoint(
                    checkpoint_dir,
                    schedule={**schedule, "next_step": i + 1},
                    time=float(edges[i + 1]),
                    keep_last=keep_last,
                )

    # -- checkpoint / restore -----------------------------------------------------

    def checkpoint_payload(self):
        """This rank's rank-file payload ``(arrays, meta)``: besides the
        particles, what its next step depends on — force accumulators,
        the boundary moving-average history, the decomposer's step
        counter — so reloading it on the same rank count replays bit
        for bit.  Disk epochs and the in-memory buddy ring hold the
        same payload (the arrays alias live state; holders copy)."""
        history = self.decomposer._history._history
        decomp_flat = self.decomp.flatten()
        arrays = {
            "pos": self.pos,
            "mom": self.mom,
            "mass": self.mass,
            "ids": self.ids,
            "pp_acc": (
                self._pp_acc if self._pp_acc is not None else np.zeros((0, 3))
            ),
            "pm_acc": (
                self._pm_acc if self._pm_acc is not None else np.zeros((0, 3))
            ),
            "decomp": np.asarray(decomp_flat, dtype=np.float64),
            "history": (
                np.stack(history)
                if history
                else np.zeros((0, len(decomp_flat)))
            ),
        }
        meta = {
            "rank": self.comm.rank,
            "size": self.comm.size,
            "steps_taken": self.steps_taken,
            "pp_cost": self._pp_cost,
            "decomp_step": self.decomposer._step,
            "has_pp_acc": self._pp_acc is not None,
            "has_pm_acc": self._pm_acc is not None,
        }
        return arrays, meta

    def checkpoint(
        self,
        checkpoint_dir,
        schedule: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
        time: Optional[float] = None,
        keep_last: int = 0,
    ):
        """Write :meth:`checkpoint_payload` as a checkpoint epoch
        (collective) through :func:`repro.sim.checkpoint.write_checkpoint`,
        pruning all but the newest ``keep_last`` epochs when > 0;
        returns the step directory.  On a disk shortfall every rank
        raises :class:`repro.sim.checkpoint.CheckpointSpaceError`
        together.
        """
        arrays, meta = self.checkpoint_payload()
        return _ckpt.write_checkpoint(
            self.comm, checkpoint_dir, self.config, arrays, meta,
            self.steps_taken, schedule=schedule, time=time, extra=extra,
            keep_last=int(keep_last),
        )

    @classmethod
    def restore(cls, comm, config: SimulationConfig, source, stepper=None):
        """Rebuild per-rank state from a checkpoint epoch (collective).

        ``source`` is a step directory or an in-memory epoch; every
        driver's checkpoint is accepted
        (:func:`repro.sim.checkpoint.read_checkpoint`).  When the epoch
        was written by this driver on ``comm.size`` ranks, each rank
        reloads its whole payload (:meth:`from_payload`), so the
        resumed trajectory is bit-for-bit identical to an uninterrupted
        run.  Otherwise (another rank count, or a serial checkpoint)
        the id-ordered particle state arrives re-scattered and the
        decomposition and forces bootstrap afresh on the first step.
        """
        arrays, meta, manifest = _ckpt.read_checkpoint(comm, source, config)
        return cls.from_payload(
            comm, config, arrays, meta, int(manifest["steps_taken"]), stepper
        )

    @classmethod
    def from_payload(
        cls, comm, config: SimulationConfig, arrays, meta, steps_taken: int,
        stepper=None,
    ):
        """The simulation a :meth:`checkpoint_payload` describes; a
        payload of particles alone (a merged epoch) leaves the driver
        state to bootstrap."""
        sim = cls(
            comm, config, arrays["pos"], arrays["mom"], arrays["mass"],
            stepper=stepper, ids=arrays["ids"],
        )
        sim.steps_taken = int(steps_taken)
        if "decomp" not in arrays:
            return sim
        sim._pp_cost = float(meta["pp_cost"])
        if meta["has_pp_acc"]:
            sim._pp_acc = arrays["pp_acc"]
        if meta["has_pm_acc"]:
            sim._pm_acc = arrays["pm_acc"]
        sim.decomp = MultisectionDecomposition.unflatten(
            arrays["decomp"], config.domain.divisions, 1.0
        )
        sim.decomposer._step = int(meta["decomp_step"])
        sim.decomposer._history._history = [h.copy() for h in arrays["history"]]
        return sim

    def wait_seconds(self) -> float:
        """Seconds this rank has been blocked in communication so far.

        Each communicator counts only its own waits, so the PM solver's
        split communicators are added to the world's: a rank blocked in
        the mesh conversion or the slab FFT is waiting, not working.
        """
        comms = (self.comm, *self.pm.split_comms)
        return sum(getattr(c, "wait_seconds", 0.0) for c in comms)

    # -- output ------------------------------------------------------------------------

    def gather_state(self):
        """Gather (pos, mom, mass) on rank 0, sorted by particle id
        (i.e. the original global ordering); None elsewhere."""
        parts = self.comm.gather((self.pos, self.mom, self.mass, self.ids), root=0)
        if self.comm.rank != 0:
            return None
        pos = np.vstack([p for p, _, _, _ in parts])
        mom = np.vstack([m for _, m, _, _ in parts])
        mass = np.concatenate([w for _, _, w, _ in parts])
        ids = np.concatenate([i for _, _, _, i in parts])
        order = np.argsort(ids)
        return pos[order], mom[order], mass[order]

    def table1_rows(self) -> Dict[str, float]:
        """This rank's accumulated per-phase seconds, Table I naming."""
        return self.timing.as_dict()

    def report(self) -> "RankReport":
        """Picklable per-rank summary (what a multiprocess rank returns
        instead of the live — unpicklable — simulation object)."""
        return RankReport(
            rank=self.comm.rank,
            size=self.comm.size,
            world_rank=self.comm.world_rank,
            steps_taken=int(self.steps_taken),
            n_local=int(len(self.pos)),
            timing=self.timing.as_dict(),
            interactions=int(self.stats.interactions),
            shm_created=getattr(self.comm, "shm_created", 0),
            shm_reused=getattr(self.comm, "shm_reused", 0),
        )


class RankReport:
    """Per-rank run summary that crosses process boundaries.

    Duck-types the result surface drivers and benchmarks consume from a
    :class:`ParallelSimulation` (``timing`` via :meth:`table1_rows`,
    ``steps_taken``); backends whose ranks live in other processes
    return these instead of simulation objects.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        world_rank: int,
        steps_taken: int,
        n_local: int,
        timing: Dict[str, float],
        interactions: int = 0,
        shm_created: int = 0,
        shm_reused: int = 0,
    ) -> None:
        self.rank = rank
        self.size = size
        self.world_rank = world_rank
        self.steps_taken = steps_taken
        self.n_local = n_local
        self.timing = timing
        self.interactions = interactions
        #: SharedMemory segments the rank's process created / sends that
        #: reused a received one (multiprocess backend; a pool that stays
        #: cold reads created ~ frames sent)
        self.shm_created = shm_created
        self.shm_reused = shm_reused

    def table1_rows(self) -> Dict[str, float]:
        return dict(self.timing)

    @property
    def stats(self) -> "RankReport":
        """Duck-types ``ParallelSimulation.stats.interactions``."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RankReport(rank={self.rank}/{self.size}, "
            f"steps={self.steps_taken}, n_local={self.n_local})"
        )


def _launch_spmd(config, backend, run_rank, arrays=None, **backend_options):
    """The launch every public driver shares: create the backend for
    ``config.domain.n_domains`` ranks, run ``run_rank(comm, *local)`` on
    each (``local`` = this rank's contiguous slice of every array in
    ``arrays``), and unpack.

    ``run_rank`` returns the finished per-rank driver, which must offer
    ``report()`` and ``gather_state()``; it must pickle (a module-level
    function or a ``partial`` of one) for ranks started by ``spawn``.
    Returns ``(pos, mom, mass, drivers, runtime)``: the state gathered
    on the (surviving) root, and per rank the live driver, its picklable
    report when the rank ran in another process, or ``None`` when the
    rank died.
    """
    runtime = create_backend(backend, config.domain.n_domains, **backend_options)
    results = runtime.run(_spmd, run_rank, arrays, runtime.name == "thread")
    drivers = [None if r is None else r[0] for r in results]
    state = next(r[1] for r in results if r is not None and r[1] is not None)
    return state[0], state[1], state[2], drivers, runtime


def _spmd(comm, run_rank, arrays, in_process):
    """The SPMD body of :func:`_launch_spmd`."""
    local = ()
    if arrays is not None:
        n = len(arrays[0])
        lo = n * comm.rank // comm.size
        hi = n * (comm.rank + 1) // comm.size
        local = tuple(a[lo:hi] for a in arrays)
    driver = run_rank(comm, *local)
    return (driver if in_process else driver.report()), driver.gather_state()


def _run_new(comm, pos, mom, mass, config, stepper, schedule, **run_options):
    """One rank of :func:`run_parallel_simulation`."""
    sim = ParallelSimulation(comm, config, pos, mom, mass, stepper=stepper)
    sim.run(*schedule, **run_options)
    return sim


def _run_resumed(comm, config, step_dir, stepper, schedule, **run_options):
    """One rank of :func:`resume_parallel_simulation`."""
    sim = ParallelSimulation.restore(comm, config, step_dir, stepper=stepper)
    sim.run(*schedule, **run_options)
    return sim


def run_parallel_simulation(
    config: SimulationConfig,
    pos: np.ndarray,
    mom: np.ndarray,
    mass: np.ndarray,
    t_start: float,
    t_end: float,
    n_steps: int,
    stepper=None,
    torus_shape=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    fault_plan=None,
    recv_timeout: Optional[float] = None,
    watchdog_timeout: Optional[float] = None,
    backend="thread",
    keep_last: int = 0,
):
    """Convenience driver: scatter global arrays, run, gather results.

    Returns ``(pos, mom, mass, sims, runtime)`` where ``sims`` is the
    list of per-rank :class:`ParallelSimulation` objects (timings,
    statistics) and ``runtime`` exposes the traffic log / network model.
    ``checkpoint_every``/``checkpoint_dir`` enable distributed
    checkpoints, ``keep_last`` > 0 prunes all but that many newest;
    ``fault_plan``/``recv_timeout``/``watchdog_timeout`` are forwarded
    to the backend.  A guard override naming a check this driver does
    not run is refused before any rank starts.

    ``backend`` selects the communicator backend by registry name
    (``"thread"``, ``"multiprocess"``) or accepts a pre-built
    :class:`repro.mpi.backend.CommBackend`.  Ranks that run
    in other processes return a picklable :class:`RankReport` in
    ``sims`` instead of the live simulation object.
    """
    refuse_unrun_checks(config.validation, "ParallelSimulation")

    run_rank = partial(
        _run_new, config=config, stepper=stepper,
        schedule=(t_start, t_end, n_steps),
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
        keep_last=keep_last,
    )
    return _launch_spmd(
        config, backend, run_rank, arrays=(pos, mom, mass),
        torus_shape=torus_shape,
        fault_plan=fault_plan,
        recv_timeout=recv_timeout,
        watchdog_timeout=watchdog_timeout,
    )


def resume_parallel_simulation(
    config: SimulationConfig,
    checkpoint_dir,
    stepper=None,
    torus_shape=None,
    checkpoint_every: Optional[int] = None,
    fault_plan=None,
    recv_timeout: Optional[float] = None,
    watchdog_timeout: Optional[float] = None,
    backend="thread",
    keep_last: int = 0,
):
    """Resume the schedule stored in the newest complete checkpoint.

    The rank count comes from ``config.domain.n_domains`` — it may
    differ from the count the checkpoint was written with, in which
    case the merged particle state is re-decomposed.  ``checkpoint_dir``
    may be a checkpoint root or one of its step directories, written by
    any driver; ``checkpoint_every`` keeps checkpointing into the root
    that holds the resumed epoch.
    Returns the same tuple as :func:`run_parallel_simulation`;
    ``backend`` and ``keep_last`` work the same way.
    """
    refuse_unrun_checks(config.validation, "ParallelSimulation")
    step_dir = _ckpt.latest_checkpoint(checkpoint_dir)
    manifest = _ckpt.read_manifest(step_dir)
    schedule = manifest["schedule"]
    for key in ("t_start", "t_end", "n_steps", "next_step"):
        if key not in schedule:
            raise CheckpointError(
                f"checkpoint '{step_dir}' stores no resumable schedule "
                f"(missing '{key}'); pass the schedule to ParallelSimulation.run"
            )

    run_rank = partial(
        _run_resumed, config=config, step_dir=step_dir, stepper=stepper,
        schedule=(
            float(schedule["t_start"]),
            float(schedule["t_end"]),
            int(schedule["n_steps"]),
        ),
        checkpoint_every=checkpoint_every,
        checkpoint_dir=step_dir.parent if checkpoint_every else None,
        first_step=int(schedule["next_step"]),
        keep_last=keep_last,
    )
    return _launch_spmd(
        config, backend, run_rank,
        torus_shape=torus_shape,
        fault_plan=fault_plan,
        recv_timeout=recv_timeout,
        watchdog_timeout=watchdog_timeout,
    )
