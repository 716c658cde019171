"""Command-line runner: simulations from a JSON description.

``python -m repro run config.json`` generates (or loads) initial
conditions, integrates, and writes snapshots — the adoption surface for
users who want the simulator without writing Python.  Snapshots and
checkpoints are one format (:mod:`repro.sim.checkpoint`): each snapshot
epoch is a checkpoint epoch under ``output_dir/snapshots/``, readable by
``repro ckpt`` and resumable with ``--resume``.

Config schema (JSON object; every key optional unless noted):

```json
{
  "kind": "cosmological" | "static",
  "n_per_dim": 12,                    // cosmological: particles^(1/3)
  "n_particles": 1000,                // static: random uniform cold start
  "mesh_size": 24,
  "rcut_mesh_units": 3.0,
  "opening_angle": 0.5,
  "group_size": 64,
  "softening": 0.002,
  "pp_subcycles": 2,
  "seed": 1,
  "start": 0.0025,                    // a (cosmological) or t (static)
  "end": 0.03125,
  "n_steps": 24,
  "log_spaced": true,                 // step spacing in the time variable
  "k_fs": 1e6,                        // neutralino cutoff (h/Mpc) or null
  "box_mpc_h": 4e-5,
  "amplitude_boost": 1.0,
  "lpt_order": 1,                     // 1 = Zel'dovich, 2 = 2LPT
  "snapshots": [0.01, 0.03125],       // epochs to write (serial backend)
  "output_dir": "out",                // required when snapshots given
  "backend": "serial",                // serial | thread | multiprocess
  "ranks": 1,                         // SPMD ranks (backend != serial)
  "validation": {                     // the guards: ValidationConfig fields
    "policy": "off",                  // off | warn | recover | abort
    "overrides": {"sdc": "warn"},     // per-check policies
    "interval": 1,                    // check / audit interval (steps)
    "energy_interval": 0,             // energy monitor interval (0 = off)
    "energy_tol": 0.25,               // relative energy-drift tolerance
    "dump_dir": null                  // an abort dumps a checkpoint here
  }
}
```

``--guard POLICY`` sets ``validation.policy`` and ``--guard
CHECK=POLICY`` (repeatable) one override; ``--guard-every`` and
``--energy-tol`` set ``interval`` and ``energy_tol`` (see
``docs/validation.md``).  A run refuses an override naming a check its
driver does not run: the straggler guard and the parallel SDC audits
belong to the elastic runner (``docs/fault_tolerance.md`` §8–9).
``--backend``/``--ranks`` override the communicator selection (see
``docs/parallelism.md``).  Parallel backends run the same schedule via
:func:`repro.sim.parallel.run_parallel_simulation`; snapshots are
serial-only.  ``--checkpoint-every N`` writes ``step_*`` epochs under
``--checkpoint-dir`` (default ``output_dir``), ``--keep-last K`` keeps
only the newest K of them, and ``--resume DIR`` takes a checkpoint root
or one of its step directories on every backend, whichever driver
wrote it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.config import (
    DomainConfig,
    PMConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
    ValidationConfig,
)

__all__ = ["main", "run_from_config"]

_DEFAULTS: Dict[str, Any] = {
    "kind": "cosmological",
    "n_per_dim": 8,
    "n_particles": 512,
    "mesh_size": 16,
    "rcut_mesh_units": 3.0,
    "opening_angle": 0.5,
    "group_size": 64,
    "softening": None,
    "pp_subcycles": 2,
    "seed": 1,
    "start": None,
    "end": None,
    "n_steps": 8,
    "log_spaced": None,
    "k_fs": 1.0e6,
    "box_mpc_h": 4.0e-5,
    "amplitude_boost": 1.0,
    "lpt_order": 1,
    "snapshots": [],
    "output_dir": None,
    "backend": "serial",
    "ranks": 1,
    "validation": {},
}

_BACKEND_CHOICES = ("serial", "thread", "multiprocess")


def _divisions_for(n_ranks: int):
    """Near-cubic 3-axis domain division with product ``n_ranks``."""
    divs = [1, 1, 1]
    remaining = n_ranks
    factor = 2
    while factor * factor <= remaining:
        while remaining % factor == 0:
            divs[divs.index(min(divs))] *= factor
            remaining //= factor
        factor += 1
    if remaining > 1:
        divs[divs.index(min(divs))] *= remaining
    return tuple(sorted(divs, reverse=True))


def _build_config(cfg: Dict[str, Any]) -> SimulationConfig:
    softening = cfg["softening"]
    if softening is None:
        n_dim = (
            cfg["n_per_dim"]
            if cfg["kind"] == "cosmological"
            else max(2, round(cfg["n_particles"] ** (1 / 3)))
        )
        softening = 0.02 / n_dim
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(
                opening_angle=cfg["opening_angle"], group_size=cfg["group_size"]
            ),
            pm=PMConfig(mesh_size=cfg["mesh_size"]),
            rcut_mesh_units=cfg["rcut_mesh_units"],
            softening=softening,
        ),
        pp_subcycles=cfg["pp_subcycles"],
        seed=cfg["seed"],
        validation=_validation_config(cfg["validation"]),
    )


def _validation_config(keys: Dict[str, Any]) -> ValidationConfig:
    unknown = set(keys) - set(ValidationConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown validation keys: {sorted(unknown)}")
    return ValidationConfig(**keys)


def _initial_state(cfg: Dict[str, Any], start: float, end: float, log=print):
    """Generate the fresh-run particle state for either config kind."""
    if cfg["kind"] == "cosmological":
        from repro.cosmology.params import WMAP7
        from repro.cosmology.power_spectrum import PowerSpectrum
        from repro.ic.lpt2 import Lpt2IC
        from repro.ic.zeldovich import ZeldovichIC

        ps = PowerSpectrum(WMAP7, k_fs=cfg["k_fs"])
        base = ps.in_box_units(cfg["box_mpc_h"])
        boost = float(cfg["amplitude_boost"])
        if cfg["lpt_order"] not in (1, 2):
            raise ValueError("lpt_order must be 1 or 2")
        ic_cls = ZeldovichIC if cfg["lpt_order"] == 1 else Lpt2IC
        ic = ic_cls(
            WMAP7,
            lambda k, z=0.0: boost**2 * base(k, z),
            n_per_dim=cfg["n_per_dim"],
            mesh_n=max(cfg["mesh_size"], cfg["n_per_dim"]),
            seed=cfg["seed"],
        )
        pos, mom, mass = ic.generate(a_start=start)
        log(
            f"cosmological run: {cfg['n_per_dim']}^3 particles, "
            f"a = {start:.5f} -> {end:.5f}"
        )
        return pos, mom, mass
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["n_particles"]
    log(f"static run: {n} particles, t = {start} -> {end}")
    return rng.random((n, 3)), np.zeros((n, 3)), np.full(n, 1.0 / n)


def _run_parallel_from_config(
    cfg: Dict[str, Any],
    sim_config: SimulationConfig,
    stepper,
    start: float,
    end: float,
    log_spaced: bool,
    log,
    checkpoint_every: int,
    ckpt_root,
    resume,
    keep_last: int,
) -> Dict[str, Any]:
    """`repro run` with a parallel communicator backend.

    Runs the same schedule through
    :func:`repro.sim.parallel.run_parallel_simulation` on
    ``cfg["ranks"]`` SPMD ranks, or resumes the schedule stored in the
    checkpoint ``resume`` through
    :func:`repro.sim.parallel.resume_parallel_simulation`.  Snapshots
    are serial-only, and the parallel schedule is linearly spaced.
    """
    if cfg["snapshots"]:
        raise ValueError(
            "snapshots are serial-only; parallel runs persist state "
            "with --checkpoint-every (checkpoint epochs)"
        )
    if log_spaced:
        raise ValueError(
            "parallel backends step the time variable linearly; set "
            '"log_spaced": false or use the serial backend'
        )
    from repro.sim.parallel import (
        resume_parallel_simulation,
        run_parallel_simulation,
    )

    ranks = int(cfg["ranks"])
    par_config = sim_config.with_(
        domain=DomainConfig(divisions=_divisions_for(ranks))
    )
    log(f"backend: {cfg['backend']}, {ranks} rank(s)")
    if resume is not None:
        log(f"resuming from {resume}")
        pos, mom, mass, sims, runtime = resume_parallel_simulation(
            par_config, resume,
            stepper=stepper,
            checkpoint_every=checkpoint_every or None,
            backend=cfg["backend"],
            keep_last=keep_last,
        )
    else:
        pos, mom, mass = _initial_state(cfg, start, end, log)
        pos, mom, mass, sims, runtime = run_parallel_simulation(
            par_config, pos, mom, mass, start, end, cfg["n_steps"],
            stepper=stepper,
            checkpoint_every=checkpoint_every or None,
            checkpoint_dir=ckpt_root,
            backend=cfg["backend"],
            keep_last=keep_last,
        )
    steps = max(int(s.steps_taken) for s in sims)
    summary = {
        "kind": cfg["kind"],
        "backend": cfg["backend"],
        "ranks": ranks,
        "final_time": float(end),
        "steps": steps,
        "snapshots": [],
        "checkpoint": str(ckpt_root) if ckpt_root is not None else None,
        "resumed_from": str(resume) if resume is not None else None,
        "per_rank_particles": [
            int(s.n_local) if hasattr(s, "n_local") else len(s.pos)
            for s in sims
        ],
        "timing_rank0": sims[0].table1_rows(),
        "per_rank_shm_segments": [
            {
                "created": getattr(s, "shm_created", 0),
                "reused": getattr(s, "shm_reused", 0),
            }
            for s in sims
        ],
    }
    log(f"done: {steps} steps on {ranks} {cfg['backend']} rank(s)")
    return summary


def _checkpoint_root(cfg: Dict[str, Any], checkpoint_every, checkpoint_dir, resume):
    """Where this run's checkpoint epochs go: ``--checkpoint-dir``,
    else ``output_dir``; a resumed run keeps writing into the root that
    holds the epoch it resumed from.  Also vets ``resume``."""
    if resume is None:
        if not checkpoint_every:
            return None
        if not (checkpoint_dir or cfg["output_dir"]):
            raise ValueError(
                "--checkpoint-every requires --checkpoint-dir or output_dir"
            )
        return Path(checkpoint_dir or cfg["output_dir"])
    from repro.sim.checkpoint import latest_checkpoint

    if not Path(resume).is_dir():
        raise ValueError(
            f"--resume takes a checkpoint root or one of its step_* "
            f"directories (manifest.json + per-rank files); '{resume}' is "
            f"not one — single-file .npz checkpoints are no longer read"
        )
    root = latest_checkpoint(resume).parent
    if checkpoint_dir is not None and Path(checkpoint_dir).resolve() != root.resolve():
        raise ValueError(
            f"a resumed run keeps checkpointing into '{root}'; "
            f"--checkpoint-dir must name that root or be left out"
        )
    return root


def _print_process_state() -> None:
    """`repro info`: what importing the package did to this process and
    which per-step stages run on their compiled kernel."""
    from repro.native import build
    from repro.utils import heap

    policy = heap.policy()
    settings = ", ".join(f"{k}={v}" for k, v in policy.items() if k != "source")
    print(f"heap policy: {policy['source']}" + (f" ({settings})" if settings else ""))
    libs = {name: build.library(name) for name in build.STAGES}
    active = [name for name, lib in libs.items() if lib is not None]
    fallback = [name for name in libs if name not in active]
    print(
        f"native stages active: {len(active)}/{len(libs)}"
        + (f" ({', '.join(active)})" if active else "")
        + (f"; on numpy: {', '.join(fallback)}" if fallback else "")
    )
    # the laned kernels export their dispatched SIMD width as *_lanes()
    lanes = [
        f"{symbol}()={getattr(libs[name], symbol)()}"
        for name in active
        for symbol in build.STAGES[name].symbols
        if symbol.endswith("_lanes")
    ]
    if lanes:
        print(f"lane widths: {', '.join(lanes)}")


def run_from_config(
    config: Dict[str, Any],
    log=print,
    checkpoint_every: int = 0,
    checkpoint_dir=None,
    resume=None,
    keep_last: int = 0,
) -> Dict[str, Any]:
    """Run a simulation described by a config dict.

    ``checkpoint_every`` > 0 writes a checkpoint epoch (``step_*``
    under ``checkpoint_dir``, defaulting to ``output_dir``) every that
    many steps and after the last, keeping only the newest
    ``keep_last`` when > 0; ``resume`` restarts from a
    checkpoint root or step directory written by any driver, validating
    that the configuration matches and re-entering the same step
    schedule so the trajectory is unchanged.  Returns a summary dict
    (final epoch, snapshot step directories, statistics).
    """
    cfg = dict(_DEFAULTS)
    unknown = set(config) - set(cfg)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg.update(config)
    if cfg["kind"] not in ("cosmological", "static"):
        raise ValueError("kind must be 'cosmological' or 'static'")
    if cfg["backend"] not in _BACKEND_CHOICES:
        raise ValueError(
            f"backend must be one of {_BACKEND_CHOICES}, got {cfg['backend']!r}"
        )
    if int(cfg["ranks"]) < 1:
        raise ValueError("ranks must be >= 1")
    if cfg["backend"] == "serial" and int(cfg["ranks"]) != 1:
        raise ValueError(
            "ranks > 1 needs a parallel backend (--backend thread or "
            "multiprocess)"
        )
    if cfg["snapshots"] and not cfg["output_dir"]:
        raise ValueError("snapshots require output_dir")
    ckpt_root = _checkpoint_root(cfg, checkpoint_every, checkpoint_dir, resume)

    sim_config = _build_config(cfg)

    from repro.sim.serial import SerialSimulation

    if cfg["kind"] == "cosmological":
        from repro.cosmology.params import WMAP7
        from repro.integrate.stepper import CosmoStepper

        start = cfg["start"] if cfg["start"] is not None else 1.0 / 401.0
        end = cfg["end"] if cfg["end"] is not None else 1.0 / 32.0
        log_spaced = cfg["log_spaced"] if cfg["log_spaced"] is not None else True
        stepper = CosmoStepper(WMAP7)
    else:
        start = cfg["start"] if cfg["start"] is not None else 0.0
        end = cfg["end"] if cfg["end"] is not None else 0.5
        log_spaced = cfg["log_spaced"] if cfg["log_spaced"] is not None else False
        stepper = None

    if cfg["backend"] != "serial":
        return _run_parallel_from_config(
            cfg, sim_config, stepper, start, end, log_spaced, log,
            checkpoint_every, ckpt_root, resume, keep_last,
        )

    if log_spaced and start <= 0:
        raise ValueError("log-spaced steps need a positive start")
    n_steps = cfg["n_steps"]
    edges = (
        np.geomspace(start, end, n_steps + 1)
        if log_spaced
        else np.linspace(start, end, n_steps + 1)
    )
    schedule = {"t_start": float(start), "t_end": float(end), "n_steps": n_steps}
    first_step = 0
    if resume is not None:
        sim, manifest = SerialSimulation.from_checkpoint(
            sim_config, resume, stepper=stepper
        )
        first_step = int(manifest["steps_taken"])
        if first_step > n_steps:
            raise ValueError(
                f"checkpoint is at step {first_step} but the schedule has "
                f"only {n_steps} steps"
            )
        log(
            f"resumed from {resume}: step {first_step}, "
            f"t = {edges[first_step]:.6g} ({len(sim.pos)} particles)"
        )
    else:
        pos, mom, mass = _initial_state(cfg, start, end, log)
        sim = SerialSimulation(sim_config, pos, mom, mass, stepper=stepper)

    pending = sorted(float(s) for s in cfg["snapshots"])
    for s in pending:
        if not start <= s <= end:
            raise ValueError(f"snapshot epoch {s} outside [{start}, {end}]")
    written: List[str] = []

    def reached(t: float) -> int:
        return sum(1 for epoch in pending if epoch <= t * (1 + 1e-12))

    def maybe_snapshot(t: float) -> None:
        """One checkpoint epoch (retention off) under
        ``output_dir/snapshots`` for the snapshot epochs reached at ``t``."""
        if not reached(t):
            return
        del pending[: reached(t)]
        step_dir = sim.save_checkpoint(
            Path(cfg["output_dir"]) / "snapshots", t,
            extra={"run_config": dict(config)},
            schedule={**schedule, "next_step": sim.steps_taken},
            keep_last=0,
        )
        written.append(str(step_dir))
        log(f"  wrote {step_dir}")

    if resume is None:
        maybe_snapshot(start)
    else:  # the interrupted run wrote the epochs up to the resume point
        del pending[: reached(float(edges[first_step]))]
    for i in range(first_step, n_steps):
        t1, t2 = float(edges[i]), float(edges[i + 1])
        sim.step(t1, t2)
        maybe_snapshot(t2)
        if checkpoint_every and ((i + 1) % checkpoint_every == 0 or i + 1 == n_steps):
            step_dir = sim.save_checkpoint(
                ckpt_root, t2, schedule={**schedule, "next_step": i + 1},
                keep_last=keep_last,
            )
            log(f"  checkpoint at step {i + 1} -> {step_dir}")

    stats = sim.last_stats
    summary = {
        "kind": cfg["kind"],
        "final_time": float(edges[-1]),
        "steps": sim.steps_taken,
        "snapshots": written,
        "checkpoint": str(ckpt_root) if ckpt_root is not None else None,
        "resumed_from": str(resume) if resume is not None else None,
        "interactions_last_pp": int(stats.interactions) if stats else 0,
        "mean_group_size": float(stats.mean_group_size) if stats else 0.0,
        "mean_list_length": float(stats.mean_list_length) if stats else 0.0,
    }
    log(
        f"done: {sim.steps_taken} steps, <Ni> = "
        f"{summary['mean_group_size']:.1f}, <Nj> = "
        f"{summary['mean_list_length']:.1f}"
    )
    return summary


def _describe_manifest(step_dir: Path, manifest: Dict[str, Any], log=print) -> None:
    schedule = manifest.get("schedule", {})
    log(f"checkpoint: {step_dir}")
    log(
        f"  ranks: {manifest['n_ranks']}, particles: "
        f"{manifest.get('total_particles', '?')}, steps taken: "
        f"{manifest['steps_taken']}"
    )
    if "next_step" in schedule:
        log(
            f"  schedule: resume at step {schedule['next_step']}"
            + (
                f" of {schedule['n_steps']} "
                f"(t = {schedule['t_start']} -> {schedule['t_end']})"
                if "n_steps" in schedule
                else ""
            )
        )
    log(f"  config hash: {manifest['config_hash'][:12]}...")


def _ckpt_command(args) -> int:
    """`repro ckpt ...`: operator tooling for checkpoint roots —
    any driver's checkpoints and the snapshot epochs alike."""
    from repro.sim import checkpoint as _ckpt
    from repro.sim.checkpoint import CheckpointError

    try:
        if args.ckpt_command == "latest":
            step_dir = _ckpt.latest_checkpoint(args.dir)
            manifest = _ckpt.read_manifest(step_dir)
            _describe_manifest(step_dir, manifest)
            return 0
        if args.ckpt_command == "scrub":
            reports = _ckpt.scrub_checkpoints(args.dir)
            if not reports:
                print(f"INVALID: no checkpoints under '{args.dir}'",
                      file=sys.stderr)
                return 1
            bad = 0
            for rep in reports:
                name = Path(rep["step_dir"]).name
                if rep["ok"]:
                    print(f"OK      {name}")
                else:
                    bad += 1
                    print(f"INVALID {name}: {rep['error']}", file=sys.stderr)
            verdict = f"{bad} failed" if bad else "all clean"
            print(f"scrubbed {len(reports)} epoch(s), {verdict}")
            return 1 if bad else 0
        # validate: accept either a checkpoint root or a bare step dir
        step_dir = _ckpt.latest_checkpoint(args.dir)
        manifest = _ckpt.validate_checkpoint(step_dir)
    except CheckpointError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    _describe_manifest(step_dir, manifest)
    print(f"OK: {manifest['n_ranks']} rank file(s) verified")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GreeM-style TreePM N-body simulations (SC12 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a simulation from a JSON config")
    run_p.add_argument("config", type=Path, help="path to the JSON config")
    run_p.add_argument(
        "--summary", type=Path, default=None,
        help="also write the run summary as JSON",
    )
    run_p.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="write a checkpoint epoch (step_NNNNN/ under the checkpoint "
        "root) every N steps and after the last",
    )
    run_p.add_argument(
        "--keep-last", type=int, default=0, metavar="K",
        help="keep only the newest K checkpoint epochs (default: all)",
    )
    run_p.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="checkpoint root the step_* epochs go to (default: output_dir; "
        "a resumed run keeps writing into the root it resumed from)",
    )
    run_p.add_argument(
        "--resume", type=Path, default=None,
        help="resume from a checkpoint root or one of its step_* directories, "
        "written by any backend",
    )
    run_p.add_argument(
        "--backend", choices=_BACKEND_CHOICES, default=None,
        help="communicator backend: serial (default), thread (in-process "
        "SPMD ranks) or multiprocess (supervised OS processes) — see "
        "docs/parallelism.md",
    )
    run_p.add_argument(
        "--ranks", type=int, default=None, metavar="N",
        help="number of SPMD ranks for parallel backends (default 1)",
    )
    run_p.add_argument(
        "--guard", action="append", default=[], metavar="POLICY|CHECK=POLICY",
        help="guard policy (off, warn, recover, abort) for every check, or "
        "for one check (e.g. sdc=recover); repeatable — see "
        "docs/validation.md",
    )
    run_p.add_argument(
        "--guard-every", type=int, default=None, metavar="N",
        help="run the invariant checks and SDC audits every N steps "
        "(default 1)",
    )
    run_p.add_argument(
        "--energy-tol", type=float, default=None, metavar="TOL",
        help="relative energy-drift tolerance (implies the energy "
        "monitor: sets energy_interval to 1 unless configured)",
    )
    info_p = sub.add_parser("info", help="print version and paper reference")
    ckpt_p = sub.add_parser(
        "ckpt",
        help="inspect checkpoint sets (any backend's checkpoints and "
        "snapshot epochs)",
    )
    ckpt_sub = ckpt_p.add_subparsers(dest="ckpt_command", required=True)
    ckpt_val = ckpt_sub.add_parser(
        "validate",
        help="verify a checkpoint set: manifest, per-rank files, digests",
    )
    ckpt_val.add_argument(
        "dir", type=Path,
        help="checkpoint directory (or one step_* directory)",
    )
    ckpt_latest = ckpt_sub.add_parser(
        "latest", help="resolve and describe the newest complete checkpoint"
    )
    ckpt_latest.add_argument("dir", type=Path, help="checkpoint directory")
    ckpt_scrub = ckpt_sub.add_parser(
        "scrub",
        help="verify every retained checkpoint epoch against its recorded "
        "digests; non-zero exit if any shows bit-rot",
    )
    ckpt_scrub.add_argument("dir", type=Path, help="checkpoint directory")

    args = parser.parse_args(argv)
    if args.command == "ckpt":
        return _ckpt_command(args)
    if args.command == "info":
        from repro import __version__

        print(f"repro {__version__}")
        print(
            "Reproduction of Ishiyama, Nitadori & Makino (SC12): "
            "'4.45 Pflops Astrophysical N-Body Simulation on K computer'"
        )
        _print_process_state()
        return 0

    config = json.loads(args.config.read_text())
    if args.backend is not None:
        config["backend"] = args.backend
    if args.ranks is not None:
        config["ranks"] = args.ranks
        if args.backend is None:
            config.setdefault("backend", "thread")
    validation = dict(config.get("validation", {}))
    for spec in args.guard:
        check, _, policy = spec.rpartition("=")
        if check:
            validation.setdefault("overrides", {})[check] = policy
        else:
            validation["policy"] = policy
    if args.guard_every is not None:
        validation["interval"] = args.guard_every
    if args.energy_tol is not None:
        validation["energy_tol"] = args.energy_tol
        validation.setdefault("energy_interval", 1)
    if validation:
        config["validation"] = validation
    summary = run_from_config(
        config,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        keep_last=args.keep_last,
    )
    if args.summary:
        args.summary.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
