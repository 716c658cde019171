"""Per-stage native kernels: availability, parity, and gating.

Each compiled kernel must (a) match its numpy reference bitwise, (b)
honor the per-stage environment opt-outs on every call, and (c) stay
disabled for the process when its startup self-test fails.  All tests
fall back to skipping when no C toolchain is available — the numpy path
is then the only path, and it is covered by the rest of the suite.
"""

from __future__ import annotations

import types
from dataclasses import replace

import numpy as np
import pytest

from repro.mesh.assignment import assign_mass, interpolate_mesh
from repro.native import build, certify, frame, meshops, traverse, treebuild, update
from repro.pp import native as pp_native
from repro.tree.morton import MORTON_BITS, morton_keys
from repro.tree.octree import Octree, build_nodes_numpy, node_bounds_numpy
from repro.tree.traversal import TraversalStats, TreeSolver, traverse_all_numpy
from repro.utils.periodic import wrap_positions


@pytest.fixture(scope="module")
def particles():
    rng = np.random.default_rng(31337)
    pos = np.mod(
        np.vstack(
            [0.5 + 0.05 * rng.standard_normal((300, 3)), rng.random((200, 3))]
        ),
        1.0,
    )
    mass = rng.random(len(pos)) + 0.5
    return pos, mass


# -- tree build ---------------------------------------------------------------


def test_tree_build_matches_numpy(particles):
    if not treebuild.available():
        pytest.skip("native tree-build kernel unavailable")
    pos, _ = particles
    origin = np.zeros(3)
    got = treebuild.morton_build(pos, origin, 1.0, MORTON_BITS)
    assert got is not None
    keys_sorted, perm = got
    ref_keys = morton_keys(pos, origin, 1.0, MORTON_BITS)
    ref_perm = np.argsort(ref_keys, kind="stable")
    assert np.array_equal(perm, ref_perm)
    assert np.array_equal(keys_sorted, ref_keys[ref_perm])

    root_center = origin + 0.5
    nodes = treebuild.build_nodes(keys_sorted, 8, MORTON_BITS, root_center, 0.5)
    assert nodes is not None
    ref = build_nodes_numpy(keys_sorted, len(pos), origin, 1.0, 8, MORTON_BITS)
    for got_a, ref_a in zip(nodes, ref):
        assert got_a.dtype == ref_a.dtype
        assert np.array_equal(got_a, ref_a)


def test_tree_build_declines_out_of_cube():
    if not treebuild.available():
        pytest.skip("native tree-build kernel unavailable")
    pos = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
    assert treebuild.morton_build(pos, np.zeros(3), 1.0, MORTON_BITS) is None


def test_octree_identical_under_opt_out(particles, monkeypatch):
    pos, mass = particles
    t_native = Octree(pos, mass, leaf_size=8)
    monkeypatch.setenv("REPRO_NO_NATIVE_TREE", "1")
    t_numpy = Octree(pos, mass, leaf_size=8)
    for attr in ("node_center", "node_half", "node_lo", "node_hi",
                 "node_is_leaf", "node_children", "node_com", "node_mass"):
        assert np.array_equal(getattr(t_native, attr), getattr(t_numpy, attr))
    for attr in ("node_bmin", "node_bmax"):
        assert getattr(t_native, attr).tobytes() == getattr(t_numpy, attr).tobytes()
    assert t_native.group_nodes(32) == t_numpy.group_nodes(32)


@pytest.mark.parametrize("leaf_size", [1, 8])
def test_node_boxes_match_numpy_bitwise(particles, leaf_size):
    """The native box build against the numpy reference, byte for byte,
    on a set with duplicates and zeros of both signs on the box edge."""
    if not treebuild.available():
        pytest.skip("native tree kernel unavailable")
    pos, mass = particles
    pos = pos.copy()
    pos[:6] = pos[6:12]
    pos[12] = 0.0
    pos[13] = [-0.0, 0.0, -0.0]
    tree = Octree(pos, mass, leaf_size=leaf_size)
    got = treebuild.node_bounds(
        tree.pos_sorted, tree.node_lo, tree.node_hi, tree.node_is_leaf,
        tree.node_children,
    )
    ref = node_bounds_numpy(
        tree.pos_sorted, tree.node_lo, tree.node_depth, tree.node_is_leaf,
        tree.node_children,
    )
    assert got is not None
    for a, b in zip(got, ref):
        assert a.tobytes() == b.tobytes()
    assert not np.signbit(got[0][got[0] == 0.0]).any()


# -- traversal ----------------------------------------------------------------


def test_traversal_plan_matches_numpy(particles):
    if not traverse.available():
        pytest.skip("native traversal kernel unavailable")
    pos, mass = particles
    tree = Octree(pos, mass, leaf_size=4)
    groups = np.asarray(sorted(tree.group_nodes(24), key=lambda g: tree.node_lo[g]))
    for periodic, rcut in [(True, None), (True, 0.2), (False, None)]:
        got = traverse.traverse_all(
            tree, groups, rcut, 0.6, periodic, 1.0, TraversalStats()
        )
        assert got is not None
        ref = traverse_all_numpy(
            tree, groups, rcut, 0.6, periodic, 1.0, TraversalStats()
        )
        for g, r in zip(got, ref):
            if r is None:
                assert g is None
            else:
                assert np.array_equal(g, r)


def test_walker_remembers_plan_sizes(particles):
    """A long-lived walker builds a plan in one C walk and hands out
    views; a plan that outgrows its memory still comes out identical."""
    lib = traverse.get_lib()
    if lib is None:
        pytest.skip("native traversal kernel unavailable")
    walks = []

    def counted(*args):
        walks.append(lib.plan_traverse(*args))
        return walks[-1]

    counting = types.SimpleNamespace(plan_traverse=counted)
    pos, mass = particles
    tree = Octree(pos, mass, leaf_size=4)
    groups = np.asarray(sorted(tree.group_nodes(24), key=lambda g: tree.node_lo[g]))

    def check(walker, rcut):
        got = walker._walk(counting, tree, groups, rcut, 0.6, True, 1.0)
        ref = traverse_all_numpy(tree, groups, rcut, 0.6, True, 1.0, TraversalStats())
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
        return got

    # rcut 0.2: the cutoff plan's particle list is just over half the
    # pure tree's, its node list under a third
    walker = traverse.PlanWalker()
    check(walker, 0.2)  # no memory yet: sized from the particle count
    del walks[:]
    small = check(walker, 0.2)
    assert walks == [0]  # one walk, no count-only pass
    assert all(small[k].base is not None for k in (1, 3, 4, 5))  # views
    del walks[:]
    check(walker, None)  # a much larger plan: count, then walk again
    assert walks == [-1, 0]
    del walks[:]
    check(walker, None)
    assert walks == [0]
    del walks[:]
    shrunk = check(walker, 0.2)
    assert walks == [0]
    # the node list is now under half its buffer and is copied down to
    # size; the particle list still fills most of its own
    assert 2 * len(shrunk[3]) < walker.high_water[1]
    assert shrunk[3].base is None and shrunk[5].base is None
    assert shrunk[1].base is not None and shrunk[4].base is not None


def test_forces_identical_under_traverse_opt_out(particles, monkeypatch):
    pos, mass = particles
    solver = TreeSolver(theta=0.5, leaf_size=8, group_size=32, periodic=True, box=1.0)
    a_native, _ = solver.forces(pos, mass)
    monkeypatch.setenv("REPRO_NO_NATIVE_TRAVERSE", "1")
    a_numpy, _ = TreeSolver(
        theta=0.5, leaf_size=8, group_size=32, periodic=True, box=1.0
    ).forces(pos, mass)
    assert np.array_equal(a_native, a_numpy)


# -- mesh ---------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["ngp", "cic", "tsc"])
def test_mesh_identical_under_opt_out(particles, scheme, monkeypatch):
    pos, mass = particles
    m_native = assign_mass(pos, mass, 12, box=1.0, scheme=scheme)
    field = np.stack([m_native, 2.0 * m_native, -m_native], axis=-1)
    v_native = interpolate_mesh(field, pos, box=1.0, scheme=scheme)
    monkeypatch.setenv("REPRO_NO_NATIVE_MESH", "1")
    m_numpy = assign_mass(pos, mass, 12, box=1.0, scheme=scheme)
    v_numpy = interpolate_mesh(field, pos, box=1.0, scheme=scheme)
    assert np.array_equal(m_native, m_numpy)
    assert np.array_equal(v_native, v_numpy)


# -- update -------------------------------------------------------------------


def test_update_kernels_match_numpy():
    if not update.available():
        pytest.skip("native update kernel unavailable")
    rng = np.random.default_rng(99)
    pos = rng.random((128, 3))
    mom = 0.1 * rng.standard_normal((128, 3))
    acc = rng.standard_normal((128, 3))
    kc, dc, box = 0.21, 1.3, 1.0

    ref_mom = mom + acc * kc
    ref_pos = wrap_positions(pos + ref_mom * dc, box)
    p, m = pos.copy(), mom.copy()
    assert update.kick_drift_wrap(p, m, acc, kc, dc, box)
    assert np.array_equal(m, ref_mom)
    assert np.array_equal(p, ref_pos)

    m2 = mom.copy()
    assert update.kick(m2, acc, kc)
    assert np.array_equal(m2, ref_mom)

    p2 = pos.copy()
    assert update.drift_wrap(p2, mom, dc, box)
    assert np.array_equal(p2, wrap_positions(pos + mom * dc, box))


def test_update_opt_out_returns_false(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NATIVE_UPDATE", "1")
    mom = np.zeros((4, 3))
    assert not update.kick(mom, np.ones((4, 3)), 0.5)
    assert np.array_equal(mom, np.zeros((4, 3)))  # untouched on decline


def test_update_rejects_bad_arrays():
    if not update.available():
        pytest.skip("native update kernel unavailable")
    mom = np.zeros((4, 3), dtype=np.float32)  # wrong dtype
    assert not update.kick(mom, np.zeros((4, 3), dtype=np.float32), 0.5)
    assert not update.kick(np.zeros((4, 3)), np.zeros((3, 3)), 0.5)  # shape


# -- no-wrap certification ----------------------------------------------------


def _periodic_plan(pos, mass, rcut=3.0 / 16):
    from repro.pp.plan import InteractionPlan

    tree = Octree(pos, mass, leaf_size=4)
    groups = np.array(tree.group_nodes(24), dtype=np.int64)
    groups = groups[np.argsort(tree.node_lo[groups], kind="stable")]
    stats = TraversalStats()
    (part_ptr, part_idx, node_ptr, node_idx,
     part_shift, node_shift) = traverse_all_numpy(
        tree, groups, rcut, 0.5, True, 1.0, stats
    )
    plan = InteractionPlan(
        group_nodes=groups,
        group_lo=tree.node_lo[groups],
        group_hi=tree.node_hi[groups],
        part_ptr=part_ptr,
        part_idx=part_idx,
        node_ptr=node_ptr,
        node_idx=node_idx,
        part_shift=part_shift,
        node_shift=node_shift,
    )
    return tree, plan


def test_certify_matches_numpy(particles):
    from repro.tree.traversal import certify_no_wrap_numpy

    if not certify.available():
        pytest.skip("native certify kernel unavailable")
    pos, mass = particles
    for rcut in (None, 3.0 / 16):
        tree, plan = _periodic_plan(pos, mass, rcut)
        ref = certify_no_wrap_numpy(tree, plan, 1.0)
        got = certify.certify(tree, plan, 1.0)
        assert got is not None
        assert got.dtype == np.bool_
        assert np.array_equal(got, ref)


def test_certified_plans_identical_under_opt_out(particles, monkeypatch):
    if not certify.available():
        pytest.skip("native certify kernel unavailable")
    pos, mass = particles
    solver = TreeSolver(
        theta=0.5, leaf_size=4, group_size=24, periodic=True, box=1.0
    )
    plan_native = solver.build_plan(Octree(pos, mass, leaf_size=4))
    monkeypatch.setenv("REPRO_NO_NATIVE_CERTIFY", "1")
    plan_numpy = solver.build_plan(Octree(pos, mass, leaf_size=4))
    assert np.array_equal(plan_native.no_wrap, plan_numpy.no_wrap)


def test_certify_failed_self_test_falls_back(particles, monkeypatch):
    assert _fail_self_test(monkeypatch, "certify", lambda lib: False) is False
    assert certify.get_lib() is None
    pos, mass = particles
    tree, plan = _periodic_plan(pos, mass)
    assert certify.certify(tree, plan, 1.0) is None


# -- the gate -----------------------------------------------------------------


STAGE_MODULES = {
    "tree": treebuild,
    "traverse": traverse,
    "certify": certify,
    "mesh": meshops,
    "update": update,
    "pp": pp_native,
    "frame": frame,
}


def _fail_self_test(monkeypatch, stage, self_test):
    """Swap the stage's gate for a copy with ``self_test`` and re-run the
    self-tests, as the health layer does mid-run; returns the stage's new
    verdict (the verified gate comes back on teardown)."""
    if not STAGE_MODULES[stage].available():
        pytest.skip(f"native {stage} kernel unavailable")
    broken = replace(build._gates[stage], self_test=self_test)
    monkeypatch.setitem(build._gates, stage, broken)
    return build.recheck_gates()[stage]


def test_failed_self_test_disables_kernel(monkeypatch):
    assert _fail_self_test(monkeypatch, "update", lambda lib: False) is False
    assert update.get_lib() is None
    assert not update.kick(np.zeros((2, 3)), np.ones((2, 3)), 1.0)


def test_failed_sweep_self_test_makes_pp_unavailable(monkeypatch):
    """``pp.native.available()`` means loaded *and* verified, like every
    other stage's."""
    assert _fail_self_test(monkeypatch, "pp", lambda lib: False) is False
    assert not pp_native.available()
    assert pp_native.get_lib() is None


def test_erroring_self_test_disables_kernel(monkeypatch):
    def boom(lib):
        raise RuntimeError("synthetic self-test crash")

    assert _fail_self_test(monkeypatch, "mesh", boom) is False
    assert meshops.get_lib() is None


def test_recheck_covers_every_stage():
    if not all(module.available() for module in STAGE_MODULES.values()):
        pytest.skip("a native stage is unavailable")
    assert build.recheck_gates() == dict.fromkeys(STAGE_MODULES, True)


@pytest.mark.parametrize(
    "change",
    [
        "symbol",  # a declared symbol the library does not export
        "self_test",  # operator.not_ is False for any loaded library
    ],
)
def test_stage_failing_at_load_is_unavailable(monkeypatch, change):
    """Declaring every symbol and running the self-test happen when the
    stage is opened: a failure there leaves the stage on numpy from the
    start, not an ``AttributeError`` mid-step."""
    if not update.available():
        pytest.skip("native update kernel unavailable")
    stage = build.STAGES["update"]
    if change == "symbol":
        symbols = {**stage.symbols, "not_in_the_library": (None, [])}
        stage = replace(stage, symbols=symbols)
    else:
        stage = replace(stage, self_test="operator:not_")
    monkeypatch.setitem(build.STAGES, "update", stage)
    monkeypatch.delitem(build._gates, "update")
    assert update.get_lib() is None
    assert not update.kick(np.zeros((2, 3)), np.ones((2, 3)), 1.0)
    assert build._gates["update"].ok is False
    assert build.recheck_gates()["update"] is False


def test_warm_steps_read_no_source(monkeypatch):
    """Once every stage is open its gate is a dictionary lookup: no
    kernel call in a step re-reads or re-hashes a C source."""
    from repro.config import SimulationConfig
    from repro.sim.serial import SerialSimulation

    rng = np.random.default_rng(7)
    pos = rng.random((400, 3))
    config = SimulationConfig.from_dict({"treepm": {"pm": {"mesh_size": 8}}})
    sim = SerialSimulation(config, pos, np.zeros_like(pos), np.full(400, 1 / 400))
    sim.step(0.0, 0.01)  # opens every stage
    calls = []
    key = build.source_key
    monkeypatch.setattr(build, "source_key", lambda *a: calls.append(a) or key(*a))
    for k in range(1, 4):
        sim.step(0.01 * k, 0.01 * (k + 1))
    assert calls == []


# -- wrong dtype or layout ----------------------------------------------------


def _float32(a):
    return np.asarray(a).astype(np.float32)


def _strided(a):
    """The same values, not C-contiguous."""
    a = np.asarray(a)
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


BAD = pytest.mark.parametrize("bad", [_float32, _strided])


@BAD
def test_update_wrappers_decline(bad):
    if not update.available():
        pytest.skip("native update kernel unavailable")
    mom = bad(np.ones((4, 3)))
    before = mom.copy()
    good = np.ones((4, 3))
    assert not update.kick(mom, good, 0.5)
    assert not update.kick_drift_wrap(good.copy(), mom, good, 0.5, 1.0, 1.0)
    assert not update.drift_wrap(mom, good, 1.0, 1.0)
    assert np.array_equal(mom, before)


@BAD
def test_mesh_wrappers_decline(particles, bad):
    from repro.mesh.assignment import _weights_1d

    if not meshops.available():
        pytest.skip("native mesh kernel unavailable")
    pos, mass = particles
    ix, wx = _weights_1d("cic", pos[:, 0] * 8)
    ix %= 8
    stencil = (ix, ix, ix, wx, wx, wx)
    grid = np.zeros((8, 8, 8))
    assert not meshops.scatter(bad(grid), *stencil, mass)
    assert not meshops.scatter(grid, *stencil[:3], bad(wx), wx, wx, mass)
    assert meshops.gather(bad(grid), *stencil) is None
    assert meshops.gather_gradient(bad(np.zeros((12, 12, 12))), 0.1,
                                   "four_point", 2, *stencil) is None
    idx = np.arange(8, dtype=np.int64)
    assert not meshops.block_add(grid, 0, idx, idx, bad(np.ones((2, 8, 8))))
    assert meshops.block_take(bad(grid), 0, 2, idx, idx) is None
    assert not grid.any()


@BAD
def test_tree_wrappers_convert(particles, bad):
    if not treebuild.available():
        pytest.skip("native tree-build kernel unavailable")
    pos = np.asarray(bad(particles[0]), dtype=np.float64)
    keys, perm = treebuild.morton_build(bad(particles[0]), np.zeros(3), 1.0, MORTON_BITS)
    ref_keys = morton_keys(pos, np.zeros(3), 1.0, MORTON_BITS)
    assert np.array_equal(perm, np.argsort(ref_keys, kind="stable"))
    ref = build_nodes_numpy(keys, len(pos), np.zeros(3), 1.0, 8, MORTON_BITS)
    got = treebuild.build_nodes(_strided(keys), 8, MORTON_BITS, np.full(3, 0.5), 0.5)
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))
    lo, hi, children, is_leaf = ref[2], ref[3], ref[6], ref[5]
    assert treebuild.group_nodes(
        lo.astype(np.int32), hi, _strided(children), is_leaf, 16
    ) == treebuild.group_nodes(lo, hi, children, is_leaf, 16)


def test_walk_and_certify_convert(particles):
    if not (traverse.available() and certify.available()):
        pytest.skip("native traversal or certify kernel unavailable")
    from repro.tree.traversal import certify_no_wrap_numpy

    pos, mass = particles
    tree, plan = _periodic_plan(pos, mass)
    groups = np.asarray(plan.group_nodes)
    got = traverse.traverse_all(
        tree, groups.astype(np.int32), 0.2, 0.6, True, 1.0,
        TraversalStats(),
    )
    ref = traverse_all_numpy(tree, groups, 0.2, 0.6, True, 1.0, TraversalStats())
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))
    narrow = replace(
        plan,
        part_idx=plan.part_idx.astype(np.int32),
        node_idx=_strided(plan.node_idx),
    )
    assert np.array_equal(
        certify.certify(tree, narrow, 1.0), certify_no_wrap_numpy(tree, plan, 1.0)
    )


@BAD
def test_sweep_falls_back_on_output_it_cannot_write(particles, bad):
    from repro.pp.kernel import PPKernel
    from repro.pp.plan import PlanExecutor

    pos, mass = particles
    tree, plan = _periodic_plan(pos, mass)
    kernel = PPKernel(eps=1e-3, box=1.0)
    args = (plan, kernel, tree.pos_sorted, tree.mass_sorted,
            tree.node_com, tree.node_mass)
    want = PlanExecutor(use_native=False).execute(*args)
    executor = PlanExecutor()
    got = executor.execute(*args, out=bad(np.zeros_like(tree.pos_sorted)))
    assert executor.native_runs == 0
    assert np.array_equal(got, want.astype(got.dtype))  # each row written once


# -- threading ----------------------------------------------------------------


def test_plan_sweep_threads_bitwise(particles, monkeypatch):
    if not pp_native.available():
        pytest.skip("native plan-sweep kernel unavailable")
    pos, mass = particles
    solver = lambda: TreeSolver(
        theta=0.5, leaf_size=8, group_size=32, periodic=True, box=1.0
    )
    a_serial, _ = solver().forces(pos, mass)
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
    a_two, _ = solver().forces(pos, mass)
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "7")
    a_seven, _ = solver().forces(pos, mass)
    assert np.array_equal(a_serial, a_two)
    assert np.array_equal(a_serial, a_seven)
