"""Probes that ride along with the traced pass: the host roofline, the
native-kernel gate, OpenMP efficiency of the plan sweep, collectives on
the multiprocess backend and a checkpoint round trip."""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro import ParallelSimulation, SerialSimulation
from repro.mpi.backend import create_backend
from repro.mpi.network import PhaseTraffic, TorusNetwork
from repro.native import certify, meshops, traverse, treebuild, update
from repro.native.build import load_library
from repro.pp import native as pp_native
from repro.pp.kernel import PPKernel
from repro.pp.plan import PlanExecutor
from repro.tree.traversal import TreeSolver
from repro.treepm.solver import TreePMSolver

_SRC = str(Path(__file__).with_name("_hostprobe.c"))
#: the probe measures the host, not the bitwise tier: host ISA and FMA on
_HOST_FLAGS = ("-O3", "-march=native", "-ffp-contract=fast")
_PORTABLE_FLAGS = ("-O3", "-ffp-contract=fast")  # compilers without -march=native
#: payload of the slab probes: one rank's share of the 128^3 mesh
SLAB_BYTES = 8 << 20
#: timed repetitions of a slab collective (ten times as many allreduces)
REPS = 5


# -- host roofline -------------------------------------------------------------


def host_roofline(llc_bytes: int, array_bytes: int = 0) -> Dict[str, float]:
    """One-thread peak Gflops (independent FMA chains) and triad GB/s.

    Each triad array is ``array_bytes`` (default four times the
    last-level cache, at least 64 MiB); both sizes are returned.  Bytes
    moved are computed from the array sizes (3 x 8 B per element).
    """
    lib = load_library(_SRC, _HOST_FLAGS) or load_library(_SRC, _PORTABLE_FLAGS)
    if lib is None:
        raise RuntimeError("host probe needs a C compiler")
    f64p = ctypes.POINTER(ctypes.c_double)
    lib.fma_chains.restype = ctypes.c_double
    lib.fma_chains.argtypes = [ctypes.c_int64, ctypes.c_double, ctypes.c_double]
    lib.fma_lanes.restype = ctypes.c_int64
    lib.triad.restype = None
    lib.triad.argtypes = [ctypes.c_int64, f64p, f64p, f64p, ctypes.c_double]

    iters, lanes = 20_000_000, int(lib.fma_lanes())
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        lib.fma_chains(iters, 0.999999, 1.0e-6)
        rates.append(2.0 * lanes * iters / (time.perf_counter() - t0) / 1e9)

    array_bytes = array_bytes or max(4 * llc_bytes, 64 << 20)
    n = array_bytes // 8
    b, c, a = np.full(n, 1.0), np.full(n, 2.0), np.zeros(n)
    ptr = lambda arr: arr.ctypes.data_as(f64p)
    lib.triad(n, ptr(a), ptr(b), ptr(c), 3.0)  # first touch of a
    gbps = []
    for _ in range(3):
        t0 = time.perf_counter()
        lib.triad(n, ptr(a), ptr(b), ptr(c), 3.0)
        gbps.append(3.0 * 8.0 * n / (time.perf_counter() - t0) / 1e9)
    if a[n // 2] != 7.0:
        raise RuntimeError("triad produced a wrong value")
    return {
        "host.peak_gflops_1t": float(np.median(rates)),
        "host.triad_gbps": float(np.median(gbps)),
        "triad_array_bytes": float(array_bytes),
        "last_level_cache_bytes": float(llc_bytes),
    }


# -- native kernels ------------------------------------------------------------


def _pp_sweep_is_native() -> bool:
    """Whether a plan sweep actually runs in the compiled kernel (it
    falls back silently when its bitwise self-test fails)."""
    rng = np.random.default_rng(0)
    pos, mass = rng.random((256, 3)), np.full(256, 1.0 / 256)
    from repro.forces.cutoff import get_split

    solver = TreeSolver(split=get_split("s2", 0.2), eps=1.0e-3)
    tree = solver.build(pos, mass)
    executor = PlanExecutor()
    executor.execute(
        solver.build_plan(tree),
        PPKernel(split=solver.split, eps=solver.eps, box=1.0),
        tree.pos_sorted, tree.mass_sorted, tree.node_com, tree.node_mass,
    )
    return executor.native_runs == 1


def native_stages() -> Tuple[float, Dict[str, bool]]:
    """Load every native library (compiling on a cold cache) and run its
    bitwise self-test; returns the seconds that took and which stages
    ended up on their compiled kernel."""
    t0 = time.perf_counter()
    stages = {
        "tree": treebuild.available(),
        "traverse": traverse.available(),
        "certify": certify.available(),
        "mesh": meshops.available(),
        "update": update.available(),
        "pp": pp_native.available() and _pp_sweep_is_native(),
    }
    return time.perf_counter() - t0, stages


@contextmanager
def plan_sweep_threads(n: int):
    """Run the native plan sweep on ``n`` OpenMP threads inside the block
    (``REPRO_NATIVE_THREADS`` is read on every sweep)."""
    saved = os.environ.get("REPRO_NATIVE_THREADS")
    os.environ["REPRO_NATIVE_THREADS"] = str(n)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_NATIVE_THREADS", None)
        else:
            os.environ["REPRO_NATIVE_THREADS"] = saved


def omp_efficiency(treepm_config, pos: np.ndarray, mass: np.ndarray) -> float:
    """``t(1 thread) / (2 t(2 threads))`` of ``PlanExecutor.execute`` on
    the short-range plan of the given particle set."""
    solver = TreePMSolver(treepm_config).tree
    tree = solver.build(pos, mass)
    plan = solver.build_plan(tree)
    kernel = PPKernel(split=solver.split, eps=solver.eps, G=solver.G, box=solver.box)
    executor = PlanExecutor()
    seconds = {}
    for threads in (1, 2, 1, 2, 1, 2):
        with plan_sweep_threads(threads):
            t0 = time.perf_counter()
            executor.execute(
                plan, kernel, tree.pos_sorted, tree.mass_sorted,
                tree.node_com, tree.node_mass,
            )
            seconds.setdefault(threads, []).append(time.perf_counter() - t0)
    return float(np.median(seconds[1]) / (2.0 * np.median(seconds[2])))


# -- collectives on the multiprocess backend -----------------------------------


def _collectives_spmd(comm, t_call: float):
    spawn_s = time.monotonic() - t_call
    half = np.zeros(SLAB_BYTES // 16)
    ops = {
        "allreduce": (lambda: comm.allreduce(np.zeros(4), op="sum"), 10 * REPS),
        "alltoallv": (lambda: comm.alltoallv([half] * comm.size), REPS),
        "bcast": (lambda: comm.bcast(np.zeros(SLAB_BYTES // 8) if comm.rank == 0 else None), REPS),
    }
    out = {"spawn_s": spawn_s}
    for name, (op, n) in ops.items():
        op()  # warm the transport
        comm.traffic_phase(f"probe:{name}")
        seconds = []
        for _ in range(n):
            comm.barrier()
            t0 = time.perf_counter()
            op()
            seconds.append(time.perf_counter() - t0)
        comm.traffic_phase("probe:idle")
        # an operation is over when its slowest rank is done
        slowest = np.max(comm.allgather(seconds), axis=0)
        messages = comm.gather(comm.traffic.phase(f"probe:{name}").messages, root=0)
        if comm.rank == 0:
            phase = PhaseTraffic(name, [m for part in messages for m in part])
            model = TorusNetwork((comm.size, 1, 1)).phase_time(phase).seconds / n
            out[name] = {"seconds": float(np.median(slowest)), "model_seconds": model}
    return out


def collectives() -> Dict[str, float]:
    """Time a 32 B allreduce and an 8 MB alltoallv and bcast on two
    ranks, with ``TorusNetwork.phase_time``'s prediction for the same
    messages beside each."""
    runtime = create_backend("multiprocess", 2)
    r = runtime.run(_collectives_spmd, time.monotonic())[0]
    return {
        "mpi.spawn_s": r["spawn_s"],
        "mpi.allreduce_us": 1e6 * r["allreduce"]["seconds"],
        "mpi.alltoallv_mbps": SLAB_BYTES / r["alltoallv"]["seconds"] / 1e6,
        "mpi.bcast_mbps": SLAB_BYTES / r["bcast"]["seconds"] / 1e6,
        "mpi.model_ratio": r["alltoallv"]["seconds"] / r["alltoallv"]["model_seconds"],
        "model_ratio_allreduce": r["allreduce"]["seconds"] / r["allreduce"]["model_seconds"],
        "model_ratio_bcast": r["bcast"]["seconds"] / r["bcast"]["model_seconds"],
    }


# -- checkpoint round trip -------------------------------------------------------


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def checkpoint_serial(sim: SerialSimulation, t: float, tmp_root: Path) -> Dict[str, float]:
    """``save_checkpoint`` / ``from_checkpoint`` round trip; ``equal`` is
    whether the restored state is bitwise the saved one."""
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        path = tmp / "checkpoint.npz"
        t0 = time.perf_counter()
        sim.save_checkpoint(path, t)
        t1 = time.perf_counter()
        back, _ = SerialSimulation.from_checkpoint(sim.config, path, stepper=sim.stepper)
        t2 = time.perf_counter()
        equal = all(
            np.array_equal(getattr(sim, k), getattr(back, k)) for k in ("pos", "mom", "mass")
        )
        return {
            "sim.ckpt_write_s": t1 - t0,
            "sim.ckpt_restore_s": t2 - t1,
            "sim.ckpt_bytes": float(_dir_bytes(tmp)),
            "equal": bool(equal),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def checkpoint_parallel(sim: ParallelSimulation, tmp_dir: Path) -> Dict[str, float]:
    """Collective ``checkpoint`` / ``restore`` round trip into
    ``tmp_dir`` (the same path on every rank; the caller removes it)."""
    comm = sim.comm
    comm.barrier()
    t0 = time.perf_counter()
    step_dir = sim.checkpoint(tmp_dir)
    t1 = time.perf_counter()
    back = ParallelSimulation.restore(comm, sim.config, step_dir, stepper=sim.stepper)
    comm.barrier()
    t2 = time.perf_counter()
    equal = all(
        np.array_equal(getattr(sim, k), getattr(back, k))
        for k in ("pos", "mom", "mass", "ids")
    )
    return {
        "sim.ckpt_write_s": t1 - t0,
        "sim.ckpt_restore_s": t2 - t1,
        "sim.ckpt_bytes": float(_dir_bytes(tmp_dir)) if comm.rank == 0 else 0.0,
        "equal": bool(comm.allreduce(int(equal), op="min")),
    }
