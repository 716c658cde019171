"""The plan sweep's SIMD lanes: same bits at every lane width.

``_plansweep.c`` instantiates one kernel body at four targets per
vector and at one; the loader dispatches on the CPU.  The dispatched
entry (``plan_sweep``), the always-one-lane entry (``plan_sweep_w1``)
and the numpy executor must agree bitwise on plans that exercise what
lanes add: tail blocks of every remainder, lanes masked off for self
pairs (whose unsoftened factor is ``inf * 0``) and for pairs past the
cutoff, and sources no lane wants.
"""

from __future__ import annotations

import os
import shutil
import types

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.pp import native
from repro.pp.kernel import PPKernel
from repro.pp.plan import InteractionPlan, PlanExecutor

pytestmark = pytest.mark.skipif(
    shutil.which(os.environ.get("CC", "cc")) is None, reason="no C compiler"
)

RCUT = 0.2
#: targets per group: every remainder of a four-lane block, and the
#: sizes around a full 64-target group
GROUP_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65)
#: this group's list holds only the sources parked at FAR_SOURCES, all
#: of them beyond the cutoff of its targets parked at FAR_TARGETS
FAR_GROUP = 6
FAR_TARGETS, FAR_SOURCES = 0.1, 0.6

KERNELS = {
    "split-eps0-G2.5": dict(split=S2ForceSplit(RCUT), eps=0.0, G=2.5, box=1.0),
    "split-eps1e-3": dict(split=S2ForceSplit(RCUT), eps=1e-3, box=1.0),
    "nosplit-open-G0.5": dict(split=None, eps=1e-3, G=0.5, box=None),
    "nosplit-eps0": dict(split=None, eps=0.0, box=1.0),
}


@pytest.fixture(scope="module")
def lib():
    lib = native.get_lib()
    if lib is None:
        pytest.skip("native plan sweep unavailable (build or self-test failed)")
    return lib


@pytest.fixture(scope="module")
def one_lane(lib):
    """Stands in for the library, with the one-lane entry as its sweep."""
    return types.SimpleNamespace(plan_sweep=lib.plan_sweep_w1)


@pytest.fixture(scope="module")
def system():
    """Positions, masses, node moments and a plan over ``GROUP_SIZES``."""
    rng = np.random.default_rng(20120416)
    hi = np.cumsum(GROUP_SIZES)
    lo = hi - GROUP_SIZES
    N, M = int(hi[-1]), 12
    # a compact cloud, so most pairs sit inside the cutoff, some outside
    pos = 0.5 + 0.12 * rng.standard_normal((N, 3))
    far = np.arange(lo[FAR_GROUP], hi[FAR_GROUP])
    parked = np.arange(lo[FAR_GROUP + 1], hi[FAR_GROUP + 1])
    pos[far] = FAR_TARGETS + 0.01 * rng.standard_normal((len(far), 3))
    pos[parked] = FAR_SOURCES + 0.01 * rng.standard_normal((len(parked), 3))
    pos = np.mod(pos, 1.0)
    mass = rng.random(N) + 0.5
    ncom = np.mod(0.5 + 0.12 * rng.standard_normal((M, 3)), 1.0)
    ncom[0] = FAR_SOURCES
    nmass = rng.random(M) + 1.0

    part, node = [], []
    for g, (a, b) in enumerate(zip(lo, hi)):
        if g == FAR_GROUP:
            part.append(parked)
            node.append(np.zeros(1, dtype=np.int64))
            continue
        # the group's own targets (self pairs) among random others
        own = np.arange(a, b)
        others = rng.integers(0, N, 37 + 5 * g)
        part.append(rng.permutation(np.concatenate([own, others])))
        node.append(rng.integers(0, M, g % 4))
    plan = InteractionPlan(
        group_nodes=np.zeros(len(lo), dtype=np.int64),
        group_lo=lo.astype(np.int64),
        group_hi=hi.astype(np.int64),
        part_ptr=np.concatenate([[0], np.cumsum([len(p) for p in part])]).astype(np.int64),
        part_idx=np.concatenate(part).astype(np.int64),
        node_ptr=np.concatenate([[0], np.cumsum([len(n) for n in node])]).astype(np.int64),
        node_idx=np.concatenate(node).astype(np.int64),
        # wrap and no-wrap groups alternate
        no_wrap=np.arange(len(lo)) % 2 == 0,
    )
    return plan, pos, mass, ncom, nmass


def _numpy(system, kernel):
    plan, *arrays = system
    return PlanExecutor(use_native=False).execute(plan, kernel, *arrays)


def _native(entry, system, kernel):
    """Sweep through one C entry point (``entry`` stands in for the
    library: the executor calls ``plan_sweep``/``plan_sweep_threads``)."""
    plan, pos, *rest = system
    out = np.zeros_like(pos)
    PlanExecutor()._execute_native(entry, plan, kernel, pos, *rest, out)
    return out


def test_dispatched_width_is_one_of_the_instantiations(lib):
    assert lib.plan_sweep_lanes() in (1, 4)


@pytest.mark.parametrize("name", KERNELS)
def test_lanes_are_bitwise_identical(lib, one_lane, system, name):
    kernel = PPKernel(**KERNELS[name])
    want = _numpy(system, kernel)
    assert np.isfinite(want).all()
    assert np.array_equal(_native(lib, system, kernel), want)
    assert np.array_equal(_native(one_lane, system, kernel), want)


def test_default_executor_takes_the_native_sweep(lib, system):
    kernel = PPKernel(**KERNELS["split-eps1e-3"])
    plan, *arrays = system
    executor = PlanExecutor()
    got = executor.execute(plan, kernel, *arrays)
    assert executor.native_runs == 1
    assert np.array_equal(got, _numpy(system, kernel))


@pytest.mark.parametrize("name", ["split-eps0-G2.5", "split-eps1e-3"])
def test_list_wholly_beyond_the_cutoff_adds_exact_zeros(lib, one_lane, system, name):
    """Every source of the far group is inactive in every lane, so each
    is skipped before its sqrt and the rows stay exactly +0.0."""
    kernel = PPKernel(**KERNELS[name])
    plan = system[0]
    rows = slice(plan.group_lo[FAR_GROUP], plan.group_hi[FAR_GROUP])
    for entry in (lib, one_lane):
        far = _native(entry, system, kernel)[rows]
        assert not far.any() and not np.signbit(far).any()


def test_unsoftened_self_pairs_are_masked_not_summed(lib, system):
    """``eps = 0``: a self pair's lane computes ``1/sqrt(0) = inf`` and
    ``inf * 0 = nan``; summing instead of masking it would poison the
    target's row."""
    plan, pos, *_ = system
    for g in range(plan.n_groups):
        if g == FAR_GROUP:
            continue
        own = plan.part_idx[plan.part_ptr[g]:plan.part_ptr[g + 1]]
        assert np.isin(np.arange(plan.group_lo[g], plan.group_hi[g]), own).all()
    for name in ("split-eps0-G2.5", "nosplit-eps0"):
        got = _native(lib, system, PPKernel(**KERNELS[name]))
        assert np.isfinite(got).all()


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", ["split-eps0-G2.5", "nosplit-open-G0.5"])
def test_threaded_sweep_is_bitwise_identical(lib, system, monkeypatch, name, threads):
    kernel = PPKernel(**KERNELS[name])
    monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
    assert np.array_equal(_native(lib, system, kernel), _numpy(system, kernel))
