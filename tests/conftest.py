"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Per-test wall-clock alarm (pytest-timeout is not a dependency).  The
# fault-injection tests exercise code paths that, when buggy, hang in a
# collective; a SIGALRM turns such a hang into a loud failure instead
# of a wedged CI job.  Individual tests can override the budget with
# @pytest.mark.timeout(seconds).
_DEFAULT_TEST_TIMEOUT = 180.0

_ALARMS_SUPPORTED = hasattr(signal, "SIGALRM")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if marker and marker.args else _DEFAULT_TEST_TIMEOUT
    use_alarm = (
        _ALARMS_SUPPORTED
        and seconds > 0
        and threading.current_thread() is threading.main_thread()
    )
    if use_alarm:
        def _on_alarm(signum, frame):
            raise TimeoutError(
                f"test exceeded {seconds:.0f}s wall-clock limit (possible "
                f"deadlock in a collective or recv)"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

# A single moderate profile: the suite contains hundreds of tests and
# several exercise O(N^2) references, so keep example counts modest.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20120416)


@pytest.fixture
def uniform_particles(rng):
    """64 uniformly random particles in the unit box with equal masses."""
    n = 64
    pos = rng.random((n, 3))
    mass = np.full(n, 1.0 / n)
    return pos, mass


@pytest.fixture
def clustered_particles(rng):
    """A clustered configuration: a tight Gaussian blob plus background."""
    n_blob, n_bg = 96, 32
    blob = 0.5 + 0.02 * rng.standard_normal((n_blob, 3))
    bg = rng.random((n_bg, 3))
    pos = np.mod(np.vstack([blob, bg]), 1.0)
    mass = np.full(len(pos), 1.0 / len(pos))
    return pos, mass


@pytest.fixture(params=["native", "numpy"])
def mesh_kernels(request, monkeypatch) -> str:
    """Run a test twice: with the native mesh kernels, and with the mesh
    stage pinned to its numpy reference (``REPRO_NO_NATIVE_MESH=1``).
    The native half skips, with the reason, when the kernels cannot be
    used (no compiler, or the whole run is pinned to numpy)."""
    from repro.native import meshops

    if request.param == "numpy":
        monkeypatch.setenv("REPRO_NO_NATIVE_MESH", "1")
    elif not meshops.available():
        pytest.skip(
            "native mesh kernels unavailable (no C compiler, or REPRO_NO_NATIVE[_MESH] set)"
        )
    return request.param
