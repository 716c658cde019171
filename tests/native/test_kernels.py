"""Per-stage native kernels: availability, parity, and gating.

Each compiled kernel must (a) match its numpy reference bitwise, (b)
honor the per-stage environment opt-outs on every call, and (c) stay
disabled for the process when its startup self-test fails.  All tests
fall back to skipping when no C toolchain is available — the numpy path
is then the only path, and it is covered by the rest of the suite.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.mesh.assignment import assign_mass, interpolate_mesh
from repro.native import build, certify, meshops, traverse, treebuild, update
from repro.tree.morton import MORTON_BITS, morton_keys
from repro.tree.octree import Octree, build_nodes_numpy
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
    assert t_native.group_nodes(32) == t_numpy.group_nodes(32)


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

    walker = traverse.PlanWalker()
    check(walker, 0.1)  # no memory yet: sized from the particle count
    del walks[:]
    small = check(walker, 0.1)
    assert walks == [0]  # one walk, no count-only pass
    assert all(small[k].base is not None for k in (1, 3, 4, 5))  # views
    del walks[:]
    check(walker, None)  # a much larger plan: count, then walk again
    assert walks == [-1, 0]
    del walks[:]
    check(walker, None)
    assert walks == [0]
    del walks[:]
    shrunk = check(walker, 0.1)
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
    if not certify.available():
        pytest.skip("native certify kernel unavailable")
    monkeypatch.delitem(build._gates, "certify")
    monkeypatch.setattr(certify, "_self_test", lambda lib: False)
    assert certify.get_lib() is None
    pos, mass = particles
    tree, plan = _periodic_plan(pos, mass)
    assert certify.certify(tree, plan, 1.0) is None


# -- self-test gating ---------------------------------------------------------


def test_failed_self_test_disables_kernel(monkeypatch):
    if not update.available():
        pytest.skip("native update kernel unavailable")
    monkeypatch.delitem(build._gates, "update")
    monkeypatch.setattr(update, "_self_test", lambda lib: False)
    assert update.get_lib() is None
    assert not update.kick(np.zeros((2, 3)), np.ones((2, 3)), 1.0)


def test_failed_sweep_self_test_makes_pp_unavailable(monkeypatch):
    """``pp.native.available()`` means loaded *and* verified, like every
    other stage's."""
    from repro.pp import native as pp_native

    if not pp_native.available():
        pytest.skip("native plan-sweep kernel unavailable")
    monkeypatch.delitem(build._gates, "pp")
    monkeypatch.setattr(pp_native, "_self_test", lambda lib: False)
    assert not pp_native.available()
    assert pp_native.get_lib() is None


def test_erroring_self_test_disables_kernel(monkeypatch):
    if not meshops.available():
        pytest.skip("native mesh kernel unavailable")

    def boom(lib):
        raise RuntimeError("synthetic self-test crash")

    monkeypatch.delitem(build._gates, "mesh")
    monkeypatch.setattr(meshops, "_self_test", boom)
    assert meshops.get_lib() is None


# -- threading ----------------------------------------------------------------


def test_plan_sweep_threads_bitwise(particles, monkeypatch):
    from repro.pp import native as pp_native

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
