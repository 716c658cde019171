"""Target masks: both executors sweep a rank's own targets only.

A plan's ``target_mask`` marks the rows that are targets; ghosts
imported as sources are not.  Whatever the mask, an own row must get the
bits of the unmasked sweep and a ghost row must come back exactly as it
went in — from ``plan_sweep`` at the dispatched width, ``plan_sweep_w1``,
``plan_sweep_threads`` and the numpy executor (the only one of the four
that runs under ``REPRO_NO_NATIVE_PP=1``) — and everything that slices,
refines, audits or counts a plan has to honour it the same way.
"""

from __future__ import annotations

import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import ValidationConfig
from repro.forces.cutoff import S2ForceSplit
from repro.pp import native
from repro.pp.kernel import PPKernel
from repro.pp.plan import InteractionPlan, PlanExecutor, slice_plan
from repro.tree.traversal import TreeSolver
from repro.validate import SdcAuditor, Validator

RCUT = 0.2
GROUP_SIZES = (1, 4, 5, 12, 9, 64, 3)
N = sum(GROUP_SIZES)

KERNELS = {
    "split-eps0": dict(split=S2ForceSplit(RCUT), eps=0.0, G=2.5, box=1.0),
    "split-eps1e-3": dict(split=S2ForceSplit(RCUT), eps=1e-3, box=1.0),
    "nosplit-open": dict(split=None, eps=1e-3, G=0.5, box=None),
}


def _system():
    rng = np.random.default_rng(20121110)
    hi = np.cumsum(GROUP_SIZES)
    lo = hi - GROUP_SIZES
    pos = np.mod(0.5 + 0.12 * rng.standard_normal((N, 3)), 1.0)
    mass = rng.random(N) + 0.5
    ncom = np.mod(0.5 + 0.12 * rng.standard_normal((8, 3)), 1.0)
    nmass = rng.random(8) + 1.0
    part = [
        rng.permutation(np.concatenate([np.arange(a, b), rng.integers(0, N, 31)]))
        for a, b in zip(lo, hi)
    ]
    node = [rng.integers(0, 8, g % 4) for g in range(len(lo))]
    plan = InteractionPlan(
        group_nodes=np.zeros(len(lo), dtype=np.int64),
        group_lo=lo.astype(np.int64),
        group_hi=hi.astype(np.int64),
        part_ptr=np.concatenate([[0], np.cumsum([len(p) for p in part])]).astype(np.int64),
        part_idx=np.concatenate(part).astype(np.int64),
        node_ptr=np.concatenate([[0], np.cumsum([len(n) for n in node])]).astype(np.int64),
        node_idx=np.concatenate(node).astype(np.int64),
        no_wrap=np.arange(len(lo)) % 2 == 0,
    )
    return plan, pos, mass, ncom, nmass


SYSTEM = _system()


def _masks():
    """Groups keeping 1, 4 and 5 own targets, a scattered mask, a group
    of ghosts only, and the two trivial masks."""
    lo = SYSTEM[0].group_lo
    rng = np.random.default_rng(7)
    few = np.zeros(N, dtype=bool)
    few[lo[3] + 6] = True  # 1 of 12
    few[lo[4] + 1:lo[4] + 5] = True  # 4 of 9, one whole block
    few[lo[5] + np.array([0, 13, 14, 40, 63])] = True  # 5 of 64, scattered
    scattered = rng.random(N) < 0.5
    scattered[lo[6]:] = False  # the last group keeps nothing
    return {
        "few": few,
        "scattered": scattered,
        "all": np.ones(N, dtype=bool),
        "none": np.zeros(N, dtype=bool),
    }


MASKS = _masks()


def _numpy_sweep(plan, kernel, out):
    _, pos, *rest = SYSTEM
    return PlanExecutor(use_native=False).execute(plan, kernel, pos, *rest, out=out)


def _native_sweep(entry, plan, kernel, out):
    _, pos, *rest = SYSTEM
    PlanExecutor()._execute_native(entry, plan, kernel, pos, *rest, out)
    return out


def _sweeps():
    """Every way of sweeping a plan that this host offers."""
    sweeps = {"numpy": _numpy_sweep}
    lib = native.get_lib()
    if lib is not None:
        one_lane = types.SimpleNamespace(plan_sweep=lib.plan_sweep_w1)
        sweeps["plan_sweep"] = lambda *a: _native_sweep(lib, *a)
        sweeps["plan_sweep_w1"] = lambda *a: _native_sweep(one_lane, *a)
    return sweeps


def _check(sweep, mask, kernel):
    plan = SYSTEM[0]
    # a recognisable value in every row: a ghost row must keep it
    before = np.arange(3.0 * N).reshape(N, 3) + 0.25
    full = sweep(plan, kernel, before.copy())
    got = sweep(replace(plan, target_mask=mask), kernel, before.copy())
    assert np.array_equal(got[mask], full[mask])
    assert got[~mask].tobytes() == before[~mask].tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("how", ["numpy", "plan_sweep", "plan_sweep_w1"])
def test_own_rows_swept_ghost_rows_untouched(how, mask, kernel):
    sweeps = _sweeps()
    if how not in sweeps:
        pytest.skip("native plan sweep unavailable")
    _check(sweeps[how], MASKS[mask], PPKernel(**KERNELS[kernel]))


@pytest.mark.parametrize("threads", [2, 3])
def test_threaded_sweep_honours_the_mask(monkeypatch, threads):
    if not native.threaded_available():
        pytest.skip("native plan sweep without OpenMP")
    monkeypatch.setenv("REPRO_NATIVE_THREADS", str(threads))
    for mask in ("few", "scattered"):
        _check(_sweeps()["plan_sweep"], MASKS[mask], PPKernel(**KERNELS["split-eps0"]))


def test_native_and_numpy_agree_on_masked_plans():
    sweeps = _sweeps()
    kernel = PPKernel(**KERNELS["split-eps1e-3"])
    for mask in MASKS.values():
        plan = replace(SYSTEM[0], target_mask=mask)
        outs = [s(plan, kernel, np.zeros((N, 3))) for s in sweeps.values()]
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])


@given(st.lists(st.booleans(), min_size=N, max_size=N))
def test_any_mask(bits):
    mask = np.array(bits)
    for sweep in _sweeps().values():
        _check(sweep, mask, PPKernel(**KERNELS["split-eps0"]))


def test_wrap_group_with_near_and_far_lanes():
    """Targets on both sides of a periodic boundary share a vector: from
    a source at x = 0.45 the lane at 0.98 is past ``box/2`` (``dx`` =
    -0.53) and the lane at 0.02 is not (0.43), from a source at 0.5
    neither is — the per-vector test must leave every lane with the
    bits numpy's unconditional round gives it."""
    rng = np.random.default_rng(3)
    tx = np.array([0.98, 0.02, 0.985, 0.015, 0.99, 0.01, 0.97])
    sx = np.array([0.5, 0.45, 0.55, 0.47, 0.53, 0.0])
    far = np.abs(sx[:, None] - tx[None, :4]) > 0.5
    assert (far.any(axis=1) & ~far.all(axis=1)).any()  # mixed vectors
    assert not far[0].any()  # and one that skips the round
    pos = np.vstack([
        np.column_stack([tx, 0.5 + 0.01 * rng.standard_normal((7, 2))]),
        np.column_stack([sx, 0.5 + 0.3 * rng.random((6, 2))]),
    ])
    n = len(pos)
    mass = rng.random(n) + 0.5
    plan = InteractionPlan(
        group_nodes=np.zeros(1, dtype=np.int64),
        group_lo=np.array([0]), group_hi=np.array([7]),
        part_ptr=np.array([0, n]), part_idx=np.arange(n),
        node_ptr=np.array([0, 0]), node_idx=np.empty(0, dtype=np.int64),
        no_wrap=np.array([False]),
    )
    no_nodes = (np.empty((0, 3)), np.empty(0))
    lib = native.get_lib()
    if lib is None:
        pytest.skip("native plan sweep unavailable")
    for kw in (dict(split=None, eps=1e-3), dict(split=S2ForceSplit(0.45), eps=0.0)):
        kernel = PPKernel(box=1.0, **kw)
        want = PlanExecutor(use_native=False).execute(
            plan, kernel, pos, mass, *no_nodes
        )
        assert np.abs(want[:7]).min() > 0
        for entry in (lib, types.SimpleNamespace(plan_sweep=lib.plan_sweep_w1)):
            got = np.zeros_like(pos)
            PlanExecutor()._execute_native(
                entry, plan, kernel, pos, mass, *no_nodes, got
            )
            assert np.array_equal(got, want)


# -- everything downstream of the plan honours the mask too ---------------------


@pytest.fixture(scope="module")
def ghosted():
    """Own particles left, ghosts right, overlapping in the middle so that
    many groups hold both."""
    rng = np.random.default_rng(11)
    own = rng.random((700, 3)) * [0.55, 1.0, 1.0]
    ghosts = rng.random((500, 3)) * [0.35, 1.0, 1.0] + [0.4, 0.0, 0.0]
    pos = np.vstack([own, ghosts])
    mask = np.arange(len(pos)) < len(own)
    return pos, np.full(len(pos), 1.0 / len(pos)), mask


@pytest.mark.parametrize("quadrupole", [False, True])
def test_solver_leaves_ghost_rows_at_plus_zero(ghosted, quadrupole):
    pos, mass, mask = ghosted
    kw = dict(periodic=True, eps=1e-3, use_quadrupole=quadrupole)
    if not quadrupole:
        kw["split"] = S2ForceSplit(0.15)
    acc, _ = TreeSolver(**kw).forces(pos, mass, targets_mask=mask)
    full, _ = TreeSolver(**kw).forces(pos, mass)
    assert np.array_equal(acc[mask], full[mask])
    assert not acc[~mask].any() and not np.signbit(acc[~mask]).any()


def test_counters_count_swept_targets(ghosted):
    pos, mass, mask = ghosted
    solver = TreeSolver(periodic=True, split=S2ForceSplit(0.15), eps=1e-3)
    tree = solver.build(pos, mass)
    mask_sorted = mask[tree.perm]
    _, stats = solver.forces(pos, mass, tree=tree, targets_mask=mask)
    plan = solver.build_plan(tree, mask_sorted=mask_sorted)
    own = np.array([
        mask_sorted[a:b].sum() for a, b in zip(plan.group_lo, plan.group_hi)
    ])
    assert (own < plan.group_hi - plan.group_lo).any()  # mixed groups exist
    assert np.array_equal(plan.target_counts, own)
    assert stats.interactions == int(np.dot(own, plan.list_lengths)) == plan.n_pairs
    assert stats.counter.sum_group_size == mask.sum()
    assert stats.pp_from_particles + stats.pp_from_nodes == stats.interactions
    # no mask: group sizes, as before
    _, unmasked = solver.forces(pos, mass, tree=tree)
    full = solver.build_plan(tree)
    assert unmasked.interactions == int(
        np.dot(full.group_hi - full.group_lo, full.list_lengths)
    )
    assert unmasked.counter.sum_group_size == len(pos)


@pytest.mark.parametrize("exact_cutoff", [True, False])
def test_slice_carries_the_mask(ghosted, exact_cutoff):
    """A sliced, masked plan must still give the full sweep's own rows
    and leave the ghosts alone, with the cutoff split and without."""
    pos, mass, mask = ghosted
    split = S2ForceSplit(0.15) if exact_cutoff else None
    solver = TreeSolver(periodic=True, split=split, eps=1e-3, group_size=128)
    tree = solver.build(pos, mass)
    mask_sorted = mask[tree.perm]
    plan = solver.build_plan(tree, mask_sorted=mask_sorted)
    kernel = PPKernel(split=split, eps=1e-3, box=1.0)
    arrays = (tree.pos_sorted, tree.mass_sorted, tree.node_com, tree.node_mass)
    want = PlanExecutor(use_native=False).execute(
        replace(plan, target_mask=None), kernel, *arrays
    )
    picked = np.arange(0, plan.n_groups, 3)
    sub = slice_plan(plan, picked)
    assert sub.target_mask is mask_sorted
    got = PlanExecutor(use_native=False).execute(sub, kernel, *arrays)
    rows = np.zeros(len(pos), dtype=bool)
    for g in picked:
        rows[plan.group_lo[g]:plan.group_hi[g]] = True
    assert np.array_equal(got[rows & mask_sorted], want[rows & mask_sorted])
    assert not got[~(rows & mask_sorted)].any()


def test_spot_check_compares_every_row_of_a_masked_sweep(ghosted):
    """ABFT: the reference re-sweep of sampled groups must reproduce the
    production sweep on *all* their rows, ghosts (left at zero by both)
    included — no false ``spot_check`` event."""
    pos, mass, mask = ghosted
    solver = TreeSolver(periodic=True, split=S2ForceSplit(0.15), eps=1e-3)
    solver.retain_last_sweep = True
    solver.forces(pos, mass, targets_mask=mask)
    auditor = SdcAuditor(Validator(
        ValidationConfig(policy="warn", spot_check_groups=12)
    ))
    assert auditor.spot_check(solver, step=1) is None
    assert auditor.audits_run == 1
    # and a flipped own row is still caught
    sweep = solver.last_sweep
    row = int(np.flatnonzero(sweep["mask_sorted"])[0])
    sweep["acc_sorted"][row, 0] += 1.0
    auditor = SdcAuditor(Validator(
        ValidationConfig(policy="warn", spot_check_groups=10**6)
    ))
    assert auditor.spot_check(solver, step=1) is not None
