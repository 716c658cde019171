"""Tests of the interaction-plan engine and its satellites.

The float64 plan executor, the precision oracle, must be
bitwise-identical — not merely close — to the plainest possible
evaluation of the same plan: walk its CSR lists group by group and feed
each list (particles first, then nodes) to ``PPKernel.accumulate``.
These tests pin that contract across every kernel configuration, plus
the masked-target semantics the distributed driver relies on, the
no-wrap certificate, and the production single-precision tier: its
compiled and numpy sweeps give the same bits, and stay within single
precision of the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.forces.direct import direct_forces_cutoff
from repro.pp.kernel import PPKernel
from repro.pp.plan import InteractionPlan, PlanExecutor, multi_arange
from repro.tree.traversal import TreeSolver


@pytest.fixture
def medium_particles():
    """A clustered box large enough to produce many groups."""
    rng = np.random.default_rng(42)
    blob = 0.5 + 0.05 * rng.standard_normal((1500, 3))
    bg = rng.random((500, 3))
    pos = np.mod(np.vstack([blob, bg]), 1.0)
    mass = rng.random(len(pos)) / len(pos)
    return pos, mass


def _kernel(solver):
    """The PP kernel ``solver.forces`` evaluates with (fresh counter)."""
    return PPKernel(
        split=solver.split,
        eps=solver.eps,
        G=solver.G,
        use_fast_rsqrt=solver.use_fast_rsqrt,
        box=solver.box if solver.periodic else None,
        ewald_table=solver._ewald_table,
    )


def _reference_sorted(solver, tree, plan, kernel):
    """Group-by-group evaluation of ``plan`` through
    ``PPKernel.accumulate`` (Morton-sorted rows): each group's list is
    its particle sources followed by its accepted nodes."""
    acc = np.zeros_like(tree.pos_sorted)
    for i in range(plan.n_groups):
        lo, hi = plan.group_lo[i], plan.group_hi[i]
        pidx = plan.part_idx[plan.part_ptr[i]:plan.part_ptr[i + 1]]
        nidx = plan.node_idx[plan.node_ptr[i]:plan.node_ptr[i + 1]]
        targets = tree.pos_sorted[lo:hi]
        acc[lo:hi] += kernel.accumulate(
            targets,
            np.vstack([tree.pos_sorted[pidx], tree.node_com[nidx]]),
            np.concatenate([tree.mass_sorted[pidx], tree.node_mass[nidx]]),
        )
        if solver.use_quadrupole and len(nidx):
            acc[lo:hi] += solver._quadrupole_acc(
                targets, tree.node_com[nidx], tree.node_quad[nidx]
            )
    return acc


def _oracle(**kw):
    """A ``TreeSolver`` whose sweep is the float64 precision oracle."""
    solver = TreeSolver(**kw)
    solver._executor = PlanExecutor(dtype=np.float64)
    return solver


def _reference(pos, mass, targets_mask=None, **kw):
    """``_oracle(**kw).forces`` recomputed by the group-by-group
    reference; returns ``(acc, n_groups, counter)``."""
    solver = TreeSolver(**kw)
    tree = solver.build(pos, mass)
    mask_sorted = None if targets_mask is None else targets_mask[tree.perm]
    plan = solver.build_plan(tree, mask_sorted=mask_sorted)
    kernel = _kernel(solver)
    acc_sorted = _reference_sorted(solver, tree, plan, kernel)
    if mask_sorted is not None:
        acc_sorted[~mask_sorted] = 0.0
    acc = np.empty_like(acc_sorted)
    acc[tree.perm] = acc_sorted
    return acc, plan.n_groups, kernel.counter


SPLIT = S2ForceSplit(3.0 / 32)

CONFIGS = [
    pytest.param(dict(periodic=True, split=SPLIT, eps=1e-3), id="periodic-split"),
    pytest.param(dict(periodic=True, eps=1e-3), id="periodic-pure-tree"),
    pytest.param(dict(periodic=False, eps=1e-3), id="open"),
    pytest.param(
        dict(periodic=True, split=SPLIT, eps=1e-3, use_fast_rsqrt=True),
        id="fast-rsqrt",
    ),
    pytest.param(dict(periodic=True, split=SPLIT, eps=0.0), id="eps-zero"),
    pytest.param(
        dict(periodic=False, eps=1e-3, use_quadrupole=True), id="quadrupole"
    ),
    pytest.param(
        dict(periodic=True, split=SPLIT, eps=1e-3, group_size=17, leaf_size=3),
        id="odd-granularity",
    ),
]


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("kw", CONFIGS)
    def test_forces_match_reference_bitwise(self, medium_particles, kw):
        pos, mass = medium_particles
        acc, stats = _oracle(**kw).forces(pos, mass)
        ref, n_groups, counter = _reference(pos, mass, **kw)
        assert np.array_equal(acc, ref)
        # statistics describe the traversal's lists, one call per group
        assert stats.n_groups == n_groups
        assert stats.interactions == counter.interactions
        assert stats.mean_group_size == counter.mean_group_size
        assert stats.mean_list_length == counter.mean_list_length

    def test_ewald_configuration(self, uniform_particles):
        pos, mass = uniform_particles
        kw = dict(periodic=True, eps=1e-3, ewald_correction=True)
        acc, _ = TreeSolver(**kw).forces(pos, mass)
        assert np.array_equal(acc, _reference(pos, mass, **kw)[0])

    def test_tiny_pair_budget_still_bitwise(self, medium_particles):
        """Many small batches must give the same bits as few large ones,
        in the oracle (the reference's bits) and in the single tier (the
        compiled sweep's bits)."""
        pos, mass = medium_particles
        solver = TreeSolver(periodic=True, split=SPLIT, eps=1e-3)
        tree = solver.build(pos, mass)
        plan = solver.build_plan(tree)
        arrays = (tree.pos_sorted, tree.mass_sorted, tree.node_com, tree.node_mass)
        refs = {
            np.float64: _reference_sorted(solver, tree, plan, _kernel(solver)),
            np.float32: PlanExecutor().execute(plan, _kernel(solver), *arrays),
        }
        for dtype, ref in refs.items():
            batches = []
            for budget in (4096, 1 << 22):
                executor = PlanExecutor(dtype, pair_budget=budget, use_native=False)
                got = executor.execute(plan, _kernel(solver), *arrays)
                assert np.array_equal(got, ref)
                batches.append(executor.batches_run)
            assert batches[0] > batches[1]

    def test_accuracy_against_direct_cutoff(self, medium_particles):
        """The plan path stays an accurate short-range solver."""
        pos, mass = medium_particles
        acc, _ = TreeSolver(
            periodic=True, split=SPLIT, eps=1e-3, theta=0.3
        ).forces(pos, mass)
        ref = direct_forces_cutoff(pos, mass, SPLIT, eps=1e-3)
        err = np.linalg.norm(acc - ref, axis=1)
        scale = np.maximum(np.linalg.norm(ref, axis=1), 1e-30)
        assert np.percentile(err / scale, 95) < 0.02


class TestTargetsMask:
    """The distributed driver's ghost-as-source-only semantics."""

    def test_masked_matches_reference_bitwise(self, medium_particles):
        pos, mass = medium_particles
        rng = np.random.default_rng(7)
        mask = rng.random(len(pos)) < 0.35
        kw = dict(periodic=True, split=SPLIT, eps=1e-3)
        acc, _ = _oracle(**kw).forces(pos, mass, targets_mask=mask)
        ref, _, _ = _reference(pos, mass, targets_mask=mask, **kw)
        assert np.array_equal(acc, ref)

    def test_unmasked_rows_exactly_zero(self, medium_particles):
        pos, mass = medium_particles
        rng = np.random.default_rng(8)
        mask = rng.random(len(pos)) < 0.35
        acc, _ = TreeSolver(
            periodic=True, split=SPLIT, eps=1e-3
        ).forces(pos, mass, targets_mask=mask)
        assert not acc[~mask].any()

    def test_source_only_groups_are_skipped(self):
        """A spatially separated ghost slab is never traversed for."""
        rng = np.random.default_rng(9)
        local = rng.random((600, 3)) * [0.4, 1.0, 1.0]
        ghosts = rng.random((600, 3)) * [0.4, 1.0, 1.0] + [0.55, 0.0, 0.0]
        pos = np.vstack([local, ghosts])
        mass = np.full(len(pos), 1.0 / len(pos))
        mask = np.zeros(len(pos), dtype=bool)
        mask[: len(local)] = True
        solver = TreeSolver(periodic=False, eps=1e-3)
        tree = solver.build(pos, mass)
        mask_sorted = mask[tree.perm]
        full = solver.build_plan(tree)
        masked = solver.build_plan(tree, mask_sorted=mask_sorted)
        assert masked.n_groups < full.n_groups
        # every emitted group holds at least one masked target
        tgt_rows = multi_arange(masked.group_lo, masked.group_hi)
        gid = np.repeat(
            np.arange(masked.n_groups), masked.group_hi - masked.group_lo
        )
        has_target = np.zeros(masked.n_groups, dtype=bool)
        np.logical_or.at(has_target, gid, mask_sorted[tgt_rows])
        assert has_target.all()
        # and the plan counts those targets, not the rows
        assert np.array_equal(
            masked.target_counts, np.bincount(gid, weights=mask_sorted[tgt_rows])
        )

    def test_mask_forces_match_unmasked_on_masked_rows(self, medium_particles):
        """Masking only zeroes rows; it never changes masked-row forces."""
        pos, mass = medium_particles
        rng = np.random.default_rng(10)
        mask = rng.random(len(pos)) < 0.5
        kw = dict(periodic=True, split=SPLIT, eps=1e-3)
        a_masked, _ = TreeSolver(**kw).forces(pos, mass, targets_mask=mask)
        a_full, _ = TreeSolver(**kw).forces(pos, mass)
        assert np.array_equal(a_masked[mask], a_full[mask])


class TestPlanStructure:
    def test_csr_invariants(self, medium_particles):
        pos, mass = medium_particles
        solver = TreeSolver(periodic=True, split=SPLIT, eps=1e-3)
        tree = solver.build(pos, mass)
        plan = solver.build_plan(tree)
        G = plan.n_groups
        assert G > 1
        assert len(plan.part_ptr) == G + 1 and len(plan.node_ptr) == G + 1
        assert plan.part_ptr[-1] == len(plan.part_idx)
        assert plan.node_ptr[-1] == len(plan.node_idx)
        assert (np.diff(plan.part_ptr) >= 0).all()
        assert (np.diff(plan.node_ptr) >= 0).all()
        # groups tile the sorted particle array exactly once
        assert plan.group_lo[0] == 0 and plan.group_hi[-1] == len(pos)
        assert np.array_equal(plan.group_hi[:-1], plan.group_lo[1:])
        assert plan.n_pairs == int(
            np.dot(plan.target_counts, plan.list_lengths)
        )
        # counted once per plan
        assert plan.target_counts is plan.target_counts

    def test_no_wrap_certificate_is_sound(self, medium_particles):
        """Where the certificate holds, the wrap must truly be a no-op."""
        pos, mass = medium_particles
        solver = TreeSolver(periodic=True, split=SPLIT, eps=1e-3)
        tree = solver.build(pos, mass)
        plan = solver.build_plan(tree)
        assert plan.no_wrap is not None and plan.no_wrap.any()
        box = solver.box
        for i in np.flatnonzero(plan.no_wrap):
            tgt = tree.pos_sorted[plan.group_lo[i]:plan.group_hi[i]]
            srcs = [
                tree.pos_sorted[
                    plan.part_idx[plan.part_ptr[i]:plan.part_ptr[i + 1]]
                ],
                tree.node_com[
                    plan.node_idx[plan.node_ptr[i]:plan.node_ptr[i + 1]]
                ],
            ]
            for src in srcs:
                if not len(src):
                    continue
                dx = src[None, :, :] - tgt[:, None, :]
                assert np.all(np.round(dx / box) == 0.0)

    def test_interior_blob_mostly_no_wrap(self):
        """A central cluster needs no wraps; the certificate finds that."""
        rng = np.random.default_rng(11)
        pos = np.clip(0.5 + 0.03 * rng.standard_normal((2000, 3)), 0.01, 0.99)
        mass = np.full(len(pos), 1.0 / len(pos))
        solver = TreeSolver(periodic=True, split=SPLIT, eps=1e-3)
        tree = solver.build(pos, mass)
        plan = solver.build_plan(tree)
        assert plan.no_wrap.all()


class TestFloat32Mode:
    """The production single-precision tier against the float64 oracle
    (tests/pp/test_single_tier.py bounds it on the benchmark inputs)."""

    def test_close_to_double(self, medium_particles):
        pos, mass = medium_particles
        kw = dict(periodic=True, split=SPLIT, eps=1e-3)
        a32, _ = TreeSolver(**kw).forces(pos, mass)
        a64, _ = _oracle(**kw).forces(pos, mass)
        err = np.linalg.norm(a32 - a64, axis=1)
        scale = np.linalg.norm(a64, axis=1)
        med = np.median(err / np.maximum(scale, 1e-30))
        assert 0 < med < 1e-5  # single-precision level, clearly not f64

    def test_open_boundary_float32(self, medium_particles):
        pos, mass = medium_particles
        a32, _ = TreeSolver(periodic=False, eps=1e-3).forces(pos, mass)
        a64, _ = _oracle(periodic=False, eps=1e-3).forces(pos, mass)
        # rtol covers the large components, atol the strongly cancelled
        # near-zero ones (accelerations here are O(10)-O(100))
        np.testing.assert_allclose(a32, a64, rtol=1e-3, atol=1e-3)


class TestExecutor:
    def test_scratch_is_reused_across_calls(self, medium_particles):
        pos, mass = medium_particles
        solver = TreeSolver(periodic=True, split=SPLIT, eps=1e-3)
        solver.forces(pos, mass)
        after_first = solver._executor.scratch_bytes()
        assert after_first > 0
        solver.forces(pos, mass)
        assert solver._executor.scratch_bytes() == after_first

    def test_one_pair_budget_default(self):
        """Every caller that does not choose a budget gets the same one."""
        from repro.pp.grape import PhantomGrape
        from repro.pp.plan import DEFAULT_PAIR_BUDGET

        assert PlanExecutor().pair_budget == DEFAULT_PAIR_BUDGET
        assert TreeSolver()._executor.pair_budget == DEFAULT_PAIR_BUDGET
        single = PhantomGrape(precision="single")
        assert single._executor.pair_budget == DEFAULT_PAIR_BUDGET

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            PlanExecutor(dtype=np.int32)
        with pytest.raises(ValueError):
            PlanExecutor(pair_budget=0)

    def test_empty_plan_is_noop(self):
        plan = InteractionPlan(
            group_nodes=np.empty(0, dtype=np.int64),
            group_lo=np.empty(0, dtype=np.int64),
            group_hi=np.empty(0, dtype=np.int64),
            part_ptr=np.zeros(1, dtype=np.int64),
            part_idx=np.empty(0, dtype=np.int64),
            node_ptr=np.zeros(1, dtype=np.int64),
            node_idx=np.empty(0, dtype=np.int64),
        )
        assert plan.n_pairs == 0
        out = PlanExecutor().execute(
            plan, PPKernel(), np.zeros((4, 3)), np.zeros(4),
            np.empty((0, 3)), np.empty(0),
        )
        assert not out.any()


class TestQuadrupoleRegression:
    def test_split_factor_uses_unsoftened_radius(self):
        """Regression for the softened-radius bug: the split's
        short-range factor must be evaluated at the unsoftened
        separation ``sqrt(r2)`` — exactly like the monopole kernel —
        not at the softened radius ``sqrt(r2 + eps^2)``.  With eps a
        sizeable fraction of rcut the two factors differ at the
        percent level, so the analytic reference below cleanly rejects
        the buggy form."""
        split = S2ForceSplit(0.12)
        eps = 0.03
        solver = TreeSolver(
            periodic=False, split=split, eps=eps, use_quadrupole=True
        )
        rng = np.random.default_rng(21)
        targets = rng.random((5, 3)) * 0.02
        node_pos = np.array([[0.06, 0.01, -0.02], [0.0, 0.09, 0.03]])
        q = rng.standard_normal((2, 3, 3)) * 1e-4
        q = q + np.transpose(q, (0, 2, 1))
        for k in range(2):  # traceless, like the tree's moments
            q[k] -= np.eye(3) * np.trace(q[k]) / 3.0
        got = solver._quadrupole_acc(targets, node_pos, q)

        r = targets[:, None, :] - node_pos[None, :, :]
        r2 = np.einsum("tsk,tsk->ts", r, r)
        r2s = r2 + eps**2
        qr = np.einsum("sab,tsb->tsa", q, r)
        rqr = np.einsum("tsa,tsa->ts", qr, r)
        term = qr * (r2s**-2.5)[..., None] - 2.5 * (
            rqr * r2s**-2.5 / r2s
        )[..., None] * r
        # the cutoff factor at the UNSOFTENED separation
        g_good = split.short_range_factor(np.sqrt(r2))
        g_bad = split.short_range_factor(np.sqrt(r2s))
        expect = np.sum(term * g_good[..., None], axis=1)
        buggy = np.sum(term * g_bad[..., None], axis=1)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)
        # and the two forms genuinely differ here, so this test would
        # have failed before the fix
        assert np.max(np.abs(buggy - expect)) > 1e-9 * np.max(np.abs(expect))

    def test_quadrupole_tree_beats_monopole_with_softening(self):
        """End-to-end: with eps > 0 and a split attached the quadrupole
        correction still improves on the monopole tree."""
        rng = np.random.default_rng(23)
        pos = np.mod(0.5 + 0.08 * rng.standard_normal((1200, 3)), 1.0)
        mass = rng.random(1200) / 1200
        split = S2ForceSplit(0.12)
        eps = 0.005
        ref = direct_forces_cutoff(pos, mass, split, eps=eps)
        kw = dict(periodic=True, split=split, eps=eps, theta=0.8)
        acc_q, _ = TreeSolver(use_quadrupole=True, **kw).forces(pos, mass)
        acc_m, _ = TreeSolver(use_quadrupole=False, **kw).forces(pos, mass)
        scale = np.maximum(np.linalg.norm(ref, axis=1), 1e-30)
        rms_q = np.sqrt(
            ((np.linalg.norm(acc_q - ref, axis=1) / scale) ** 2).mean()
        )
        rms_m = np.sqrt(
            ((np.linalg.norm(acc_m - ref, axis=1) / scale) ** 2).mean()
        )
        assert rms_q < rms_m

    def test_quadrupole_periodic_matches_reference(self):
        rng = np.random.default_rng(22)
        pos = rng.random((800, 3))
        mass = np.full(800, 1.0 / 800)
        kw = dict(periodic=True, split=SPLIT, eps=1e-3, use_quadrupole=True)
        acc, _ = _oracle(**kw).forces(pos, mass)
        assert np.array_equal(acc, _reference(pos, mass, **kw)[0])


class TestMultiArange:
    def test_matches_python_loop(self):
        rng = np.random.default_rng(3)
        lo = rng.integers(0, 50, size=20)
        hi = lo + rng.integers(0, 10, size=20)
        expect = np.concatenate(
            [np.arange(a, b) for a, b in zip(lo, hi)]
        ) if (hi - lo).sum() else np.empty(0, dtype=np.int64)
        assert np.array_equal(multi_arange(lo, hi), expect)

    def test_empty(self):
        assert multi_arange(np.empty(0), np.empty(0)).size == 0


class TestNativeKernel:
    """The compiled plan-sweep kernel must be invisible except for speed."""

    @pytest.mark.parametrize(
        "kw",
        [
            pytest.param(dict(periodic=True, split=SPLIT, eps=1e-3), id="split"),
            pytest.param(dict(periodic=True, split=SPLIT, eps=0.0), id="eps0"),
            pytest.param(dict(periodic=True, eps=1e-3), id="pure-tree"),
            pytest.param(dict(periodic=False, eps=1e-3), id="open"),
        ],
    )
    def test_native_matches_numpy_bitwise(
        self, medium_particles, kw, monkeypatch
    ):
        from repro.pp import native

        if not native.available():
            pytest.skip("no C compiler available")
        pos, mass = medium_particles
        nat = TreeSolver(**kw)
        a_nat, _ = nat.forces(pos, mass)
        monkeypatch.setenv("REPRO_NO_NATIVE_PP", "1")
        pinned = TreeSolver(**kw)
        a_np, _ = pinned.forces(pos, mass)
        assert nat._executor.native_runs == 1
        assert pinned._executor.native_runs == 0
        assert np.array_equal(a_nat, a_np)

    def test_native_actually_runs_when_available(self, medium_particles):
        from repro.pp import native

        if not native.available():
            pytest.skip("no C compiler available")
        pos, mass = medium_particles
        s = TreeSolver(periodic=True, split=SPLIT, eps=1e-3)
        s.forces(pos, mass)
        assert s._executor.native_runs > 0
        assert s._executor.batches_run == 0

    def test_unsupported_configs_fall_back(self, medium_particles):
        pos, mass = medium_particles
        # fast rsqrt is a numpy-only path
        s = TreeSolver(
            periodic=True, split=SPLIT, eps=1e-3, use_fast_rsqrt=True
        )
        s.forces(pos, mass)
        assert s._executor.native_runs == 0
        assert s._executor.batches_run > 0
        # the float64 oracle is a numpy-only path
        s64 = _oracle(periodic=True, split=SPLIT, eps=1e-3)
        s64.forces(pos, mass)
        assert s64._executor.native_runs == 0

    def test_failed_verification_disables_native(
        self, medium_particles, monkeypatch
    ):
        """If the sweep's self-test ever fails, the executor must
        silently use the numpy pipeline (and still produce the compiled
        sweep's bits)."""
        from dataclasses import replace

        from repro.native import build
        from repro.pp import native

        pos, mass = medium_particles
        kw = dict(periodic=True, split=SPLIT, eps=1e-3)
        want, _ = TreeSolver(**kw).forces(pos, mass)
        if native.available():
            failed = replace(build._gates["pp"], ok=False)
            monkeypatch.setitem(build._gates, "pp", failed)
        assert not native.available()
        s = TreeSolver(**kw)
        a, _ = s.forces(pos, mass)
        assert s._executor.native_runs == 0
        assert s._executor.batches_run > 0
        assert np.array_equal(a, want)


class TestSlicePlan:
    """``slice_plan`` is the ABFT spot-check's sampling primitive: a
    sub-plan over selected groups must reproduce, bitwise, exactly the
    target rows the full sweep produced for those groups."""

    def _sweep(self, medium_particles, **kw):
        pos, mass = medium_particles
        solver = TreeSolver(periodic=True, split=SPLIT, eps=1e-3, **kw)
        solver.retain_last_sweep = True
        solver.forces(pos, mass)
        sweep = solver.last_sweep
        kc = sweep["kernel_config"]
        kernel = PPKernel(
            split=kc["split"], eps=kc["eps"], G=kc["G"],
            use_fast_rsqrt=kc["use_fast_rsqrt"], box=kc["box"],
            ewald_table=kc["ewald_table"],
        )
        return solver, sweep, kernel

    @pytest.mark.parametrize(
        "picker",
        [
            lambda n: np.arange(n),                         # every group
            lambda n: np.array([0]),                        # first only
            lambda n: np.array([n - 1]),                    # last only
            lambda n: np.arange(n)[:: max(1, n // 5)],      # strided sample
        ],
    )
    def test_subplan_rows_bitwise_equal(self, medium_particles, picker):
        from repro.pp.plan import slice_plan

        solver, sweep, kernel = self._sweep(medium_particles)
        plan = sweep["plan"]
        groups = picker(plan.n_groups)
        sub = slice_plan(plan, groups)
        out = np.zeros_like(sweep["acc_sorted"])
        PlanExecutor(use_native=False).execute(
            sub, kernel,
            sweep["pos_sorted"], sweep["mass_sorted"],
            sweep["node_com"], sweep["node_mass"],
            out=out,
        )
        rows = multi_arange(plan.group_lo[groups], plan.group_hi[groups])
        np.testing.assert_array_equal(
            out[rows], sweep["acc_sorted"][rows]
        )
        # rows no sampled group owns were never touched
        untouched = np.setdiff1d(np.arange(len(out)), rows)
        assert not out[untouched].any()

    def test_empty_selection(self, medium_particles):
        from repro.pp.plan import slice_plan

        _, sweep, _ = self._sweep(medium_particles)
        sub = slice_plan(sweep["plan"], np.empty(0, dtype=np.int64))
        assert sub.n_groups == 0

    def test_out_of_range_rejected(self, medium_particles):
        from repro.pp.plan import slice_plan

        _, sweep, _ = self._sweep(medium_particles)
        with pytest.raises(IndexError):
            slice_plan(sweep["plan"], np.array([sweep["plan"].n_groups]))
        with pytest.raises(ValueError):
            slice_plan(sweep["plan"], np.array([[0]]))
