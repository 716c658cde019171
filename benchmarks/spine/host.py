"""Host fingerprint and the rules under which a workload is refused."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
from pathlib import Path
from typing import Dict

import numpy as np
import scipy

from repro.native import build as native_build

REPO_ROOT = Path(__file__).resolve().parents[2]

#: every worker runs with these.  The thread counts make "serial" mean
#: one core.  numpy otherwise asks for transparent huge pages for every
#: large array; with THP in ``madvise`` mode that makes one step in
#: 6-15 on the 128^3 mesh take 2-5x as long (the fault of a fresh
#: 16-50 MB temporary stalls on huge-page allocation), at random, which
#: no bound on a tail percentile survives.
PINNED_ENV = {
    "REPRO_NATIVE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def compiler() -> str:
    """Path of the C compiler the native loader would use ('' = none)."""
    return shutil.which(os.environ.get("CC", "cc")) or ""


def last_level_cache_bytes() -> int:
    """Largest cache of cpu0 as sysfs reports it (0 when unknown)."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        best = max(best, int(text.rstrip("KMG")) * scale)
    return best


def _first_line(cmd) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return (out.stdout or out.stderr).splitlines()[0] if out.returncode == 0 else ""


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint() -> Dict[str, object]:
    """What a reader needs to judge whether two records are comparable."""
    cc = compiler()
    return {
        "cores_usable": usable_cores(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft": f"numpy.fft (pocketfft, numpy {np.__version__})",
        "compiler": _first_line([cc, "--version"]) if cc else "",
        "compiler_flags": " ".join(native_build.BASE_FLAGS),
        "openmp": bool(native_build.openmp_available()) if cc else False,
        "last_level_cache_bytes": last_level_cache_bytes(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "git_commit": _first_line(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"]),
    }


def refusal(ranks: int) -> str:
    """Why a workload with ``ranks`` processes may not run here ('' = it may).

    More ranks than cores time-shares them; the wall-clock numbers of
    such a run are scheduling artefacts and must not be published.
    """
    cores = usable_cores()
    if ranks > cores:
        return f"needs {ranks} cores, host has {cores} usable"
    return ""
