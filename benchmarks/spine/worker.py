"""One pass of one workload, in a fresh process started by ``run.py``.

The process receives the generated particles (an ``.npz`` file) and a
job description, and writes one JSON result.  What it times:

* set-up: from the moment the parent launched this process (a
  ``time.monotonic`` stamp, system-wide on Linux) through ``import
  repro``, native library load with the bitwise self-tests, driver
  construction, backend spawn and the bootstrap force evaluation;
* a closed loop of full steps for the job's time budget, one step after
  another, barrier to barrier on two ranks;
* in an untraced pass of a 2-rank workload, a second loop on the same
  input with the serial driver: the strong-scaling reference and the
  trajectory the result is checked against;
* in a traced pass, part of the loop runs under :mod:`trace`, and the
  probes of :mod:`probes` run afterwards.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import ParallelSimulation, SerialSimulation, ValidationConfig
from repro.mpi.backend import create_backend
from repro.validate import MomentumDriftMonitor

from benchmarks.spine import host, probes, trace
from benchmarks.spine.workloads import (
    WORKLOADS,
    Workload,
    make_config,
    make_stepper,
    step_edges,
)

#: total steps after which the state is kept for the serial-twin check
N_CHECK = 3
#: a step may move no particle further than this many mesh cells:
#: ``ParallelPM.forces`` fails beyond about one cell
MAX_CELLS_PER_STEP = 0.25
#: largest deviation of a 2-rank state from its serial twin
#: (the ``atol`` of tests/sim/test_parallel.py)
TWIN_ATOL = 1.0e-5
#: share of an untraced 2-rank pass's time budget spent on the 2-rank
#: driver; the rest goes to its serial twin
OWN_SHARE = 0.6


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.  ``ru_maxrss`` would not do:
    it survives ``exec``, so a worker would report its parent's peak."""
    status = Path("/proc/self/status").read_text()
    return float(status.split("VmHWM:")[1].split()[0]) / 1024.0


def _momentum_totals(mass: np.ndarray, mom: np.ndarray) -> np.ndarray:
    """``[sum(m p), sum(m |p|)]`` as one 4-vector."""
    mp = mass[:, None] * mom
    return np.concatenate([mp.sum(axis=0), [np.abs(mp).sum()]])


class Checks:
    """Correctness checks of a pass; each one counts as an operation."""

    def __init__(self) -> None:
        self.rows: List[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"spine: CHECK FAILED {name}: {detail}", file=sys.stderr)

    def add_state(
        self, finite: bool, n_now: int, n_start: int, p_start, p_now, prefix: str = ""
    ) -> None:
        """Finite state, no lost particles, momentum drift within the
        default ``validation.momentum_tol``."""
        self.add(prefix + "finite_state", finite)
        self.add(prefix + "particle_count", n_now == n_start, f"{n_now} of {n_start}")
        monitor = MomentumDriftMonitor(ValidationConfig().momentum_tol)
        monitor.update(p_start[:3], float(p_start[3]))
        violation = monitor.update(p_now[:3], float(p_now[3]))
        self.add(prefix + "momentum_drift", violation is None, str(violation or ""))


# -- drivers: one closed loop each ----------------------------------------------


class SerialDriver:
    def __init__(self, w: Workload, inputs) -> None:
        self.w = w
        self.sim = SerialSimulation(
            make_config(w), inputs["pos"], inputs["mom"], inputs["mass"],
            stepper=make_stepper(w),
        )
        self.rank = 0
        self.k = 0
        self.max_cells = 0.0
        self.kept_state = None
        self.tracer: Optional[trace.Tracer] = None

    def step(self) -> float:
        t1, t2 = step_edges(self.w, self.k)
        before = self.sim.pos
        if self.tracer is not None:
            self.tracer.step = self.k
        t0 = time.perf_counter()
        self.sim.step(t1, t2)
        seconds = time.perf_counter() - t0
        moved = self.sim.pos - before
        moved -= np.round(moved)
        self.max_cells = max(self.max_cells, float(np.abs(moved).max()) * self.w.mesh)
        self.k += 1
        if self.k == N_CHECK:
            self.kept_state = (self.sim.pos.copy(), self.sim.mom.copy())
        return seconds

    def run(self, seconds: float, min_steps: int, between=None) -> List[float]:
        """Closed loop: steps until ``seconds`` of them are spent (at
        least ``min_steps``); ``between(times)`` runs after every step."""
        times: List[float] = []
        while len(times) < min_steps or sum(times) < seconds:
            times.append(self.step())
            if between is not None:
                between(times)
        return times

    def check(self, checks: Checks, inputs, prefix: str = "") -> None:
        sim = self.sim
        checks.add_state(
            bool(np.isfinite(sim.pos).all() and np.isfinite(sim.mom).all()),
            len(sim.pos), len(inputs["pos"]),
            _momentum_totals(inputs["mass"], inputs["mom"]),
            _momentum_totals(sim.mass, sim.mom),
            prefix,
        )
        checks.add(
            prefix + "step_displacement", self.max_cells < MAX_CELLS_PER_STEP,
            f"max {self.max_cells:.3f} mesh cells in one step",
        )


class ParallelDriver:
    """The per-rank half of a 2-rank pass (lives inside the SPMD function)."""

    def __init__(self, comm, w: Workload, inputs) -> None:
        self.w = w
        self.comm = comm
        self.rank = comm.rank
        n = len(inputs["pos"])
        lo, hi = n * comm.rank // comm.size, n * (comm.rank + 1) // comm.size
        self.sim = ParallelSimulation(
            comm, make_config(w),
            inputs["pos"][lo:hi], inputs["mom"][lo:hi], inputs["mass"][lo:hi],
            stepper=make_stepper(w),
        )
        self.k = 0
        #: per step: wall seconds minus seconds blocked in communication
        self.work_s: List[float] = []
        self.kept_state = None
        self.tracer: Optional[trace.Tracer] = None

    def wait_seconds(self) -> float:
        """Seconds this rank has been blocked in communication.  Each
        communicator counts its own, so the PM solver's split
        communicators are added to the world's."""
        pm = self.sim.pm
        comms = (self.comm, pm.comm_small, pm.comm_reduce, pm.comm_fft)
        return sum(c.wait_seconds for c in comms if c is not None)

    def step(self) -> float:
        comm = self.comm
        t1, t2 = step_edges(self.w, self.k)
        if self.tracer is not None:
            self.tracer.step = self.k
        comm.barrier()
        waited = self.wait_seconds()
        t0 = time.perf_counter()
        self.sim.step(t1, t2)
        comm.barrier()
        seconds = time.perf_counter() - t0
        self.work_s.append(seconds - (self.wait_seconds() - waited))
        self.k += 1
        if self.k == N_CHECK:
            self.kept_state = self.sim.gather_state()
        return seconds

    def run(self, seconds: float, min_steps: int, between=None) -> List[float]:
        """As :meth:`SerialDriver.run`; rank 0 keeps the clock, so every
        rank takes the same steps."""
        times: List[float] = []
        go = True
        while go:
            times.append(self.step())
            if between is not None:
                between(times)
            go = self.comm.bcast(len(times) < min_steps or sum(times) < seconds)
        return times


class CommMeter:
    """Cumulative wait seconds, bytes and messages sent by one rank,
    read incrementally from its traffic log."""

    def __init__(self, driver: ParallelDriver) -> None:
        self.driver = driver
        self._phase = 0
        self._seen = 0
        self._bytes = 0
        self._msgs = 0

    def __call__(self) -> Dict[str, float]:
        phases = self.driver.comm.traffic.phases()
        while True:
            messages = phases[self._phase].messages
            for m in messages[self._seen:]:
                if m.src != m.dst:
                    self._bytes += m.nbytes
                    self._msgs += 1
            self._seen = len(messages)
            if self._phase == len(phases) - 1:
                break
            self._phase += 1
            self._seen = 0
        return {
            "wait_s": self.driver.wait_seconds(),
            "bytes": self._bytes,
            "msgs": self._msgs,
        }


def _traced_run(driver, job, meter=None) -> dict:
    """Traced and untraced steps in turn on one driver, so that both see
    the same host conditions.  Returns both sets of step times, the
    ledger's residual over the untraced steps, and the per-step layer
    table of this rank's spans."""
    tracer = trace.Tracer(rank=driver.rank)
    ledger = driver.sim.timing
    untraced: List[float] = []
    ledger_s = 0.0

    def arm() -> None:
        trace.install(tracer, parallel=meter is not None, meter=meter)
        driver.tracer = tracer

    def disarm() -> None:
        driver.tracer = None
        tracer.restore()

    def untraced_step(_times) -> None:
        nonlocal ledger_s
        disarm()
        before = ledger.total()
        untraced.append(driver.step())
        ledger_s += ledger.total() - before
        arm()

    arm()
    try:
        traced = driver.run(job["seconds"] / 2.0, job["min_steps"], untraced_step)
    finally:
        disarm()
    return {
        "steps": untraced,
        "traced_steps": traced,
        "ledger_residual": abs(ledger_s - sum(untraced)) / sum(untraced),
        "layers": trace.per_step(tracer.spans),
        "spans": tracer.spans,
    }


# -- the two kinds of pass --------------------------------------------------------------


def _host_probes(w: Workload, inputs, job) -> Dict[str, float]:
    """The probes that do not need the pass's simulation object."""
    return {
        **probes.host_roofline(host.last_level_cache_bytes(), job["triad_bytes"]),
        **probes.collectives(),
        "pp.omp_eff_2t": probes.omp_efficiency(
            make_config(w).treepm, inputs["pos"], inputs["mass"]
        ),
    }


def serial_pass(w: Workload, inputs, job, result: dict, checks: Checks) -> None:
    driver = SerialDriver(w, inputs)
    # the force evaluation a first step starts with
    driver.sim.solver.forces(driver.sim.pos, driver.sim.mass)
    result["setup_s"] = time.monotonic() - job["t_launch"]
    if job["setup_only"]:
        return
    driver.step()  # warm-up: fills the integrator's force cache

    if job["trace"]:
        result.update(_traced_run(driver, job))
        driver.check(checks, inputs)
        ckpt = probes.checkpoint_serial(
            driver.sim, step_edges(w, driver.k)[0], Path(job["tmp_dir"])
        )
        checks.add("checkpoint_roundtrip", ckpt.pop("equal"))
        result["probes"] = {**ckpt, **_host_probes(w, inputs, job)}
        return

    result["steps"] = driver.run(job["seconds"], job["min_steps"])
    result["peak_rss_mb"] = _peak_rss_mb()
    driver.check(checks, inputs)


def _parallel_spmd(comm, w: Workload, inputs, job, twin_pipe) -> dict:
    driver = ParallelDriver(comm, w, inputs)
    sim = driver.sim
    p_start = comm.allreduce(_momentum_totals(sim.mass, sim.mom), op="sum")
    sim.initialize_forces()
    comm.barrier()
    out: dict = {"setup_s": time.monotonic() - job["t_launch"]}
    if job["setup_only"]:
        return out
    driver.step()  # warm-up, as in the serial pass

    if job["trace"]:
        out.update(_traced_run(driver, job, CommMeter(driver)))
        out["ckpt"] = probes.checkpoint_parallel(sim, Path(job["tmp_dir"]) / "ckpt")
    else:
        between = None
        if comm.rank == 0:
            # the serial twin steps in the parent process, on request,
            # while every rank waits: rank 0 for the reply, the others
            # for rank 0 at the next collective.  After each 2-rank step
            # the twin steps until its total catches up with its share of
            # the budget, and each twin step is recorded next to the
            # 2-rank step just before it, so a drift of the host's speed
            # reaches both sides of every pair.
            pairs = out["ref_pairs"] = []
            ratio = (1.0 - OWN_SHARE) / OWN_SHARE

            def between(times: List[float]) -> None:
                while sum(twin for _, twin in pairs) < ratio * sum(times):
                    twin_pipe.send("step")
                    pairs.append((times[-1], twin_pipe.recv()))

        out["steps"] = driver.run(job["seconds"] * OWN_SHARE, job["min_steps"], between)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["work_s"] = driver.work_s[1:]
    out["kept_state"] = driver.kept_state
    finite = bool(np.isfinite(sim.pos).all() and np.isfinite(sim.mom).all())
    out["state"] = (
        bool(comm.allreduce(int(finite), op="min")),
        int(comm.allreduce(len(sim.pos), op="sum")),
        len(inputs["pos"]),
        p_start,
        comm.allreduce(_momentum_totals(sim.mass, sim.mom), op="sum"),
    )
    return out


def _run_with_twin(runtime, w: Workload, inputs, job):
    """Run the SPMD pass in a thread and serve its requests for serial
    twin steps from this one.  The twin is a ``SerialSimulation`` in a
    process that holds nothing else, as in the serial workload."""
    here, there = multiprocessing.get_context("fork").Pipe()
    box: dict = {}

    def target() -> None:
        try:
            box["ranks"] = runtime.run(_parallel_spmd, w, inputs, job, there)
        except BaseException as exc:  # re-raised below, in the main thread
            box["error"] = exc
        finally:
            there.send("stop")

    runner = threading.Thread(target=target, name="spmd-runner")
    runner.start()
    twin = None
    while here.recv() != "stop":
        if twin is None:
            twin = SerialDriver(dataclasses.replace(w, ranks=1), inputs)
            twin.step()
        here.send(twin.step())
    runner.join()
    if "error" in box:
        raise box["error"]
    return box["ranks"], twin


def parallel_pass(w: Workload, inputs, job, result: dict, checks: Checks) -> None:
    runtime = create_backend("multiprocess", w.ranks)
    twin = None
    if job["trace"] or job["setup_only"]:
        ranks = runtime.run(_parallel_spmd, w, inputs, job, None)
    else:
        ranks, twin = _run_with_twin(runtime, w, inputs, job)
    r0 = ranks[0]
    result["setup_s"] = r0["setup_s"]
    if job["setup_only"]:
        return
    checks.add_state(*r0["state"])
    result["steps"] = r0["steps"]
    result["peak_rss_mb"] = max(r["peak_rss_mb"] for r in ranks)
    work = np.array([r["work_s"] for r in ranks])
    result["imbalance"] = float(np.median(work.max(axis=0) / work.mean(axis=0)))

    if job["trace"]:
        result["traced_steps"] = r0["traced_steps"]
        result["ledger_residual"] = float(np.mean([r["ledger_residual"] for r in ranks]))
        result["layers"] = trace.mean_over_ranks([r["layers"] for r in ranks])
        result["layers_by_rank"] = [r["layers"] for r in ranks]
        result["spans"] = trace.merge_ranks([r["spans"] for r in ranks])
        ckpt = dict(r0["ckpt"])
        checks.add("checkpoint_roundtrip", ckpt.pop("equal"))
        result["probes"] = {**ckpt, **_host_probes(w, inputs, job)}
        return

    result["ref_pairs"] = r0["ref_pairs"]
    while twin.k < N_CHECK:
        twin.step()
    twin.check(checks, inputs, "twin_")
    pos, mom, _ = r0["kept_state"]
    s_pos, s_mom = twin.kept_state
    d = np.abs(pos - s_pos)
    dx = float(np.minimum(d, 1.0 - d).max())
    dp = float(np.abs(mom - s_mom).max() / np.abs(s_mom).max())
    checks.add(
        "serial_twin_state", dx < TWIN_ATOL and dp < TWIN_ATOL,
        f"after {N_CHECK} steps max |dx| = {dx:.2e}, max |dp|/max|p| = {dp:.2e}",
    )


# -- entry point ----------------------------------------------------------------------------


def run_job(job: dict) -> dict:
    w = WORKLOADS[job["workload"]]
    with np.load(job["inputs"]) as data:
        inputs = {k: data[k] for k in ("pos", "mom", "mass")}
    result: dict = {"workload": w.name, "n_particles": len(inputs["pos"]), "mesh": w.mesh}
    checks = Checks()
    load_s, stages = probes.native_stages()
    result["native"] = {"load_s": load_s, "stages": stages}
    if host.compiler():
        off = sorted(s for s, on in stages.items() if not on)
        checks.add("native_stages", not off, f"on the numpy fallback: {off}")
    (serial_pass if w.ranks == 1 else parallel_pass)(w, inputs, job, result, checks)
    result["checks"] = checks.rows
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", help="path of the job description (JSON)")
    args = parser.parse_args(argv)
    job = json.loads(Path(args.job).read_text())
    try:
        result = run_job(job)
    except Exception:
        # a step that raises is a failed operation, reported by the parent
        result = {"error": traceback.format_exc()}
    spans = result.pop("spans", None)
    if spans is not None:
        trace.write_jsonl(job["spans_out"], spans)
    Path(job["result_out"]).write_text(json.dumps(result, default=_jsonable))
    return 0


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


if __name__ == "__main__":
    sys.exit(main())
