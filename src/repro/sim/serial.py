"""Single-process TreePM simulation (the examples' workhorse).

Runs the paper's step cycle — one PM force per step, ``pp_subcycles``
short-range KDK cycles inside it — against the serial
:class:`repro.treepm.TreePMSolver`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.config import SimulationConfig
from repro.integrate.leapfrog import TwoLevelKDK
from repro.integrate.stepper import StaticStepper
from repro.mpi.backend import SelfComm
from repro.sim import checkpoint as _ckpt
from repro.treepm.solver import TreePMSolver
from repro.utils.timer import TimingLedger
from repro.validate import (
    EnergyDriftMonitor,
    LayzerIrvineMonitor,
    MomentumDriftMonitor,
    Validator,
    refuse_unrun_checks,
)

__all__ = ["SerialSimulation"]


class SerialSimulation:
    """Serial TreePM time integration.

    Parameters
    ----------
    config:
        Simulation configuration (TreePM parameters, subcycles).
    pos, mom, mass:
        Initial particle state.  ``mom`` is the canonical momentum
        (velocity for static runs, ``a^2 dx/dt`` for cosmological).
    stepper:
        Kick/drift coefficient provider; default static Newtonian.
    """

    def __init__(
        self,
        config: SimulationConfig,
        pos: np.ndarray,
        mom: np.ndarray,
        mass: np.ndarray,
        stepper=None,
    ) -> None:
        self.config = config
        self.pos = np.array(pos, dtype=np.float64)
        self.mom = np.array(mom, dtype=np.float64)
        self.mass = np.array(mass, dtype=np.float64)
        if not (len(self.pos) == len(self.mom) == len(self.mass)):
            raise ValueError("pos/mom/mass length mismatch")
        self.stepper = stepper if stepper is not None else StaticStepper()
        self.validator = Validator(
            config.validation, dump_fn=self._diagnostic_dump
        )
        refuse_unrun_checks(config.validation, "SerialSimulation")
        # the solver runs the force-side checks and the ABFT
        # spot-checks of the PP sweeps (findings in validator.events)
        self.solver = TreePMSolver(
            config.treepm,
            validator=self.validator if self.validator.enabled else None,
        )
        self.timing = TimingLedger()
        self._kdk = TwoLevelKDK(
            pm_force=lambda pos: self.solver.long_range(
                pos, self.mass, self.timing
            ),
            pp_force=lambda pos: self.solver.short_range(
                pos, self.mass, self.timing
            ),
            stepper=self.stepper,
            n_sub=config.pp_subcycles,
            ledger=self.timing,
        )
        self.steps_taken = 0
        self._last_time = 0.0
        if self.validator.enabled:
            # comoving energy drifts under a perfect integrator, so
            # cosmological runs are judged by the Layzer-Irvine equation
            self.energy_monitor = (
                LayzerIrvineMonitor(config.validation.energy_tol)
                if self.stepper.cosmological
                else EnergyDriftMonitor(config.validation.energy_tol)
            )
            self._mom_monitor = MomentumDriftMonitor(
                config.validation.momentum_tol
            )
        else:
            self.energy_monitor = None
            self._mom_monitor = None

    def _diagnostic_dump(self, violation) -> str:
        """Dump hook of an ``abort`` with ``dump_dir`` set: checkpoint
        the current state with the violation in the manifest; returns
        the step directory."""
        step_dir = self.save_checkpoint(
            self.config.validation.dump_dir, self._last_time,
            extra={"violation": violation.summary()},
        )
        return str(step_dir)

    @property
    def last_stats(self):
        """Traversal statistics of the latest short-range evaluation."""
        return self.solver.last_stats

    def step(self, t1: float, t2: float) -> None:
        """Advance one full PM step."""
        self.validator.begin_step(self.steps_taken)
        self._last_time = t1
        with self.timing.phase("Domain Decomposition/position update"):
            pass  # serial run: bookkeeping row kept for report parity
        self.pos, self.mom = self._kdk.step(self.pos, self.mom, t1, t2)
        self.steps_taken += 1
        self._last_time = t2
        self._post_step_monitors(t2)

    def _post_step_monitors(self, t: float) -> None:
        """Momentum/energy drift monitors after a completed step.

        The energy monitor costs an O(N^2) potential evaluation, so it
        runs only every ``validation.energy_interval`` steps (0 = off);
        the momentum monitor is O(N) and follows the ordinary sampling
        interval.
        """
        v = self.validator
        if self._mom_monitor is not None and v.check_enabled("momentum_drift"):
            mp = self.mass[:, None] * self.mom
            v.handle(
                self._mom_monitor.update(
                    mp.sum(axis=0),
                    float(np.abs(mp).sum()),
                    step=self.steps_taken,
                )
            )
        every = self.config.validation.energy_interval
        if (
            self.energy_monitor is not None
            and every > 0
            and self.steps_taken % every == 0
            and v.policy_for("energy_drift") != "off"
        ):
            if self.stepper.cosmological:
                v.handle(
                    self.energy_monitor.update(
                        t,
                        self.kinetic_energy(t),
                        self.potential_energy(),
                        step=self.steps_taken,
                    )
                )
            else:
                v.handle(
                    self.energy_monitor.update(
                        self.total_energy(), step=self.steps_taken
                    )
                )

    def run(
        self,
        t_start: float,
        t_end: float,
        n_steps: int,
        on_step: Optional[Callable[["SerialSimulation", float], None]] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path=None,
        first_step: int = 0,
        keep_last: int = 0,
    ) -> None:
        """Integrate from ``t_start`` to ``t_end`` in ``n_steps`` equal
        steps (equal in the stepper's independent variable: time for
        static runs, scale factor for cosmological ones).

        ``checkpoint_every`` writes a checkpoint epoch, schedule
        included, under the root ``checkpoint_path`` every that many
        completed steps (and after the last); ``keep_last`` > 0 keeps
        only that many newest epochs.  ``first_step`` skips
        already-completed steps of the same schedule — the edges are
        recomputed from the full schedule, so a resumed trajectory is
        bit-for-bit the uninterrupted one.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        edges = np.linspace(t_start, t_end, n_steps + 1)
        schedule = {
            "t_start": float(t_start),
            "t_end": float(t_end),
            "n_steps": int(n_steps),
        }
        for i in range(int(first_step), n_steps):
            t1, t2 = float(edges[i]), float(edges[i + 1])
            self.step(t1, t2)
            if on_step is not None:
                on_step(self, t2)
            if checkpoint_every and (
                (i + 1) % checkpoint_every == 0 or i + 1 == n_steps
            ):
                self.save_checkpoint(
                    checkpoint_path, t2,
                    schedule={**schedule, "next_step": i + 1},
                    keep_last=keep_last,
                )

    # -- checkpoint / restore ---------------------------------------------------

    def save_checkpoint(
        self,
        path,
        time: float,
        extra: Optional[dict] = None,
        schedule: Optional[dict] = None,
        keep_last: int = 0,
    ):
        """Write the state as a one-rank checkpoint epoch under the
        root ``path`` (:func:`repro.sim.checkpoint.write_checkpoint`
        as rank 0 of 1); returns the step directory.

        The rank file holds ``pos``/``mom``/``mass`` and ``ids =
        arange(n)``, no force accumulators: they are recomputed on the
        first step after a restore, bit for bit.  ``keep_last`` > 0
        then prunes all but the newest that many epochs (0 keeps every
        epoch).
        """
        return _ckpt.write_checkpoint(
            SelfComm(), path, self.config,
            {
                "pos": self.pos,
                "mom": self.mom,
                "mass": self.mass,
                "ids": np.arange(len(self.pos)),
            },
            {}, self.steps_taken, schedule=schedule, time=time, extra=extra,
            keep_last=int(keep_last),
        )

    @classmethod
    def from_checkpoint(cls, config: SimulationConfig, path, stepper=None):
        """Rebuild a simulation from the newest epoch under the
        checkpoint root ``path`` (or from the step directory ``path``),
        written by any driver: a p-rank epoch arrives merged in
        particle-id order.

        Returns ``(sim, manifest)``; raises
        :class:`repro.sim.checkpoint.CheckpointError` when the epoch is
        torn or corrupt or was written by a different configuration.
        """
        step_dir = _ckpt.latest_checkpoint(path)
        arrays, _, manifest = _ckpt.read_checkpoint(SelfComm(), step_dir, config)
        order = np.argsort(arrays["ids"], kind="stable")
        sim = cls(
            config,
            arrays["pos"][order],
            arrays["mom"][order],
            arrays["mass"][order],
            stepper=stepper,
        )
        sim.steps_taken = int(manifest["steps_taken"])
        return sim, manifest

    def run_adaptive(
        self,
        t_start: float,
        t_end: float,
        controller,
        max_steps: int = 10000,
        on_step: Optional[Callable[["SerialSimulation", float], None]] = None,
    ) -> int:
        """Integrate with adaptive steps from a
        :class:`repro.integrate.timestep.StepController`.

        The controller sizes each step from the current accelerations
        (the multiple-stepsize criterion); returns the number of steps
        taken.
        """
        t = t_start
        steps = 0
        while t < t_end:
            acc = self.solver.forces(self.pos, self.mass).total
            t_next = controller.next_step(t, acc, t_end)
            if not t_next > t:
                raise RuntimeError("step controller failed to advance")
            self.step(t, t_next)
            t = t_next
            steps += 1
            if on_step is not None:
                on_step(self, t)
            if steps >= max_steps:
                raise RuntimeError(f"exceeded max_steps={max_steps}")
        return steps

    def kinetic_energy(self, a: float = 1.0) -> float:
        """Kinetic energy; for cosmological runs pass the current a
        (peculiar velocity is p / a)."""
        # peculiar velocity: v = a dx/dt = p / a for cosmological runs
        v = self.mom / a if self.stepper.cosmological else self.mom
        return float(0.5 * np.sum(self.mass * np.einsum("ij,ij->i", v, v)))

    def potential_energy(self) -> float:
        """Total TreePM potential energy (O(N^2) diagnostic)."""
        phi = self.solver.potential(self.pos, self.mass)
        return float(0.5 * np.sum(self.mass * phi))

    def total_energy(self, a: float = 1.0) -> float:
        return self.kinetic_energy(a) + self.potential_energy()
