"""Flat interaction-plan representation and batched executor.

A short-range force evaluation has two phases, as in the paper: Barnes'
modified traversal builds every group's interaction list, then the PP
kernel consumes the lists in bulk.

1. **Plan construction** (:meth:`repro.tree.traversal.TreeSolver.build_plan`)
   runs the traversal for *all* groups and emits one flat CSR-style
   :class:`InteractionPlan`: per-group target slices (and the mask of
   the rows in them that are targets at all), the concatenated
   source-particle indices, accepted-node indices and a per-group
   ``no_wrap`` certificate (every pair displacement provably within
   ``box/2``, so the minimum-image round is exactly a no-op).
2. **Plan execution** (:class:`PlanExecutor`) sweeps the plan in the
   paper's single-precision Phantom-GRAPE tier — in the compiled kernel
   when it is available, else in large numpy batches of groups bucketed
   by list length, with reused scratch buffers and zero-mass column
   padding, which is the compiled kernel's bitwise reference.  A
   float64 executor is the precision oracle: elementwise identical to
   feeding each group's list to :meth:`repro.pp.kernel.PPKernel.accumulate`.

The executor deliberately knows nothing about trees: it consumes the
plan plus the Morton-sorted particle arrays and node moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.forces.cutoff import S2ForceSplit, gp3m_cutoff
from repro.native.build import native_threads as _native_threads
from repro.pp import native as _native
from repro.pp.rsqrt import fast_rsqrt
from repro.utils.periodic import minimum_image

__all__ = ["InteractionPlan", "PlanExecutor", "multi_arange", "slice_plan"]

#: Default cap on target-rows x padded-list-columns per numpy batch.
DEFAULT_PAIR_BUDGET = 1 << 17


def multi_arange(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lo[i], hi[i])`` without a Python loop."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    lens = hi - lo
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lens) + np.repeat(
        lo, lens
    )


def slice_plan(plan: "InteractionPlan", groups: np.ndarray) -> "InteractionPlan":
    """A sub-plan containing only the selected groups.

    The CSR pointer arrays are rebuilt over the kept groups while every
    index keeps referring to the *full* Morton-sorted particle/node
    arrays, and each group's target slice ``[group_lo, group_hi)`` and
    the target mask are untouched — so executing the sub-plan against
    the same sorted inputs reproduces, bitwise, exactly the rows the
    full sweep produced for those groups (groups own disjoint target
    rows and each group's arithmetic depends only on its own rows,
    which set its origin, and interaction list).  This is what the ABFT force spot-check leans
    on: re-sweep a sampled subset of groups through the reference
    pipeline and compare rows.
    """
    groups = np.asarray(groups, dtype=np.int64)
    if groups.ndim != 1:
        raise ValueError("groups must be a 1-D index array")
    if groups.size and (groups.min() < 0 or groups.max() >= plan.n_groups):
        raise IndexError("group index out of range")
    plo, phi = plan.part_ptr[groups], plan.part_ptr[groups + 1]
    nlo, nhi = plan.node_ptr[groups], plan.node_ptr[groups + 1]
    psel = multi_arange(plo, phi)
    nsel = multi_arange(nlo, nhi)
    zero = np.zeros(1, dtype=np.int64)
    sub = InteractionPlan(
        group_nodes=plan.group_nodes[groups],
        group_lo=plan.group_lo[groups],
        group_hi=plan.group_hi[groups],
        part_ptr=np.concatenate([zero, np.cumsum(phi - plo)]).astype(np.int64),
        part_idx=plan.part_idx[psel],
        node_ptr=np.concatenate([zero, np.cumsum(nhi - nlo)]).astype(np.int64),
        node_idx=plan.node_idx[nsel],
        no_wrap=None if plan.no_wrap is None else plan.no_wrap[groups],
        target_mask=plan.target_mask,
    )
    sub.target_counts = plan.target_counts[groups]
    return sub


@dataclass
class InteractionPlan:
    """CSR-style description of one whole short-range force evaluation.

    All index arrays refer to the tree's Morton-sorted particle order.
    Group ``i`` owns rows ``[group_lo[i], group_hi[i])``, particle
    sources ``part_idx[part_ptr[i]:part_ptr[i+1]]`` and accepted nodes
    ``node_idx[node_ptr[i]:node_ptr[i+1]]``.  Each source slot of a
    group's list is ordered particles first, then nodes.

    ``target_mask`` (boolean, one entry per sorted particle, ``None`` =
    all) marks the rows that are targets: both executors sweep only
    those and leave every other row of the output as they found it (the
    distributed driver's ghosts are sources, never targets), and
    ``target_counts``/``n_pairs`` count them alone.

    ``no_wrap[i]`` certifies that every pair displacement of group ``i``
    lies within ``box/2`` in all coordinates, so the minimum-image round
    is exactly zero.
    """

    group_nodes: np.ndarray
    group_lo: np.ndarray
    group_hi: np.ndarray
    part_ptr: np.ndarray
    part_idx: np.ndarray
    node_ptr: np.ndarray
    node_idx: np.ndarray
    no_wrap: Optional[np.ndarray] = None
    target_mask: Optional[np.ndarray] = None

    @property
    def n_groups(self) -> int:
        return len(self.group_nodes)

    @cached_property
    def target_counts(self) -> np.ndarray:
        """Swept targets per group (the per-call ``Ni``), counted once
        per plan; whoever already counted them may assign the counts."""
        if self.target_mask is None:
            return self.group_hi - self.group_lo
        below = np.concatenate([[0], np.cumsum(self.target_mask)])
        return below[self.group_hi] - below[self.group_lo]

    @property
    def list_lengths(self) -> np.ndarray:
        """Interaction-list length per group (the per-call ``Nj``)."""
        return np.diff(self.part_ptr) + np.diff(self.node_ptr)

    @property
    def n_pairs(self) -> int:
        """Total pairwise interactions the plan encodes."""
        if self.n_groups == 0:
            return 0
        return int(np.dot(self.target_counts, self.list_lengths))


def _covered_by_single_tier(kernel) -> bool:
    """Whether the single-precision tier computes this kernel: softened
    Newtonian gravity, bare or times the S2 cutoff.  Ewald tables, the
    emulated fast rsqrt and other split shapes run in float64."""
    return (
        kernel.ewald_table is None
        and not kernel.use_fast_rsqrt
        and (kernel.split is None or type(kernel.split) is S2ForceSplit)
    )


def _wrap_groups(plan: InteractionPlan, box) -> np.ndarray:
    """Per group: whether its pairs take the minimum image (a new array)."""
    if box is None:
        return np.zeros(plan.n_groups, dtype=bool)
    if plan.no_wrap is not None:
        return ~plan.no_wrap
    return np.ones(plan.n_groups, dtype=bool)


def _skip_radius2(split) -> float:
    """Squared separation past which a pair is skipped: a hair above
    ``rcut**2``, where the S2 factor is already exactly zero."""
    return (split.cutoff_radius * (1.0 + 1e-9)) ** 2


def _group_origins(plan: InteractionPlan, pos_sorted: np.ndarray) -> np.ndarray:
    """Per-group origin of the single-precision tier: the midpoint of the
    bounding box of the group's rows (ghost rows included), so it
    depends on the group's own particles only.  ``(G, 3)`` float64;
    zero for a group without rows."""
    lo, hi = plan.group_lo, plan.group_hi
    origin = np.zeros((plan.n_groups, 3))
    nz = np.flatnonzero(hi > lo)
    if nz.size:
        n = hi[nz] - lo[nz]
        rows = pos_sorted[multi_arange(lo[nz], hi[nz])]
        starts = np.concatenate([[0], np.cumsum(n)[:-1]])
        mn = np.minimum.reduceat(rows, starts, axis=0)
        mx = np.maximum.reduceat(rows, starts, axis=0)
        origin[nz] = (mn + mx) * 0.5
    return origin


class PlanExecutor:
    """Batched sweep over an :class:`InteractionPlan`.

    Parameters
    ----------
    dtype:
        ``np.float32`` (default) is the paper's single-precision
        Phantom-GRAPE tier.  Each group's coordinates are taken relative
        to its own origin (the midpoint of its rows' bounding box) and
        moved to their nearest image there in float64, then all pair
        arithmetic runs in float32 with IEEE square root and divide and
        each target sums its list sequentially in float32; the sum is
        widened to float64 and scaled by ``G``.  The compiled kernel and the numpy pipeline
        give the same bits.  ``np.float64`` is the precision oracle,
        numpy only: bitwise identical to :meth:`PPKernel.accumulate`
        applied group by group to the plan's lists.  Kernels the single
        tier does not cover (Ewald tables, the emulated fast rsqrt,
        split shapes other than S2) run the float64 pipeline either way.
    pair_budget:
        Approximate cap on target-rows x padded-list-columns per batch;
        bounds scratch memory at roughly ``40 * pair_budget`` bytes in
        float64.  Small budgets keep every scratch board resident in
        cache, which matters far more than batching overhead on the
        memory-bound sweep.
    use_native:
        Sweep the single tier through the compiled plan-sweep kernel
        when one can be built (see :mod:`repro.pp.native`).  Falls back
        silently to the numpy pipeline when unavailable.

    Scratch buffers are owned by the executor and grown on demand, so a
    long-lived executor (one per :class:`TreeSolver`) allocates nothing
    in steady state.
    """

    def __init__(
        self,
        dtype=np.float32,
        pair_budget: int = DEFAULT_PAIR_BUDGET,
        use_native: bool = True,
    ) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError("dtype must be float64 or float32")
        if pair_budget < 1:
            raise ValueError("pair_budget must be >= 1")
        self.pair_budget = int(pair_budget)
        self.use_native = bool(use_native)
        self._scratch: dict = {}
        #: batches executed since construction (diagnostic)
        self.batches_run = 0
        #: native-kernel sweeps executed since construction (diagnostic)
        self.native_runs = 0

    # -- scratch management ---------------------------------------------------

    def _buf(self, name: str, shape, dtype) -> np.ndarray:
        """A reusable contiguous scratch view of the requested shape."""
        n = 1
        for s in shape:
            n *= int(s)
        key = (name, np.dtype(dtype))
        buf = self._scratch.get(key)
        if buf is None or buf.size < n:
            buf = np.empty(n, dtype=dtype)
            self._scratch[key] = buf
        return buf[:n].reshape(shape)

    def scratch_bytes(self) -> int:
        """Current scratch footprint (diagnostic)."""
        return sum(b.nbytes for b in self._scratch.values())

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        plan: InteractionPlan,
        kernel,
        pos_sorted: np.ndarray,
        mass_sorted: np.ndarray,
        node_com: np.ndarray,
        node_mass: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Accumulate the plan's monopole forces into the target rows
        of ``out`` (sorted particle order); other rows are not touched.
        ``kernel`` is a :class:`repro.pp.kernel.PPKernel` supplying the
        physics (split, softening, G, rsqrt path, box, Ewald table,
        counter)."""
        if out is None:
            out = np.zeros_like(pos_sorted)
        if plan.n_groups == 0:
            return out
        T = plan.target_counts
        S = plan.list_lengths
        kernel.counter.record_many(T, S)
        single = self.dtype == np.float32 and _covered_by_single_tier(kernel)

        if (
            single
            and self.use_native
            and out.flags.c_contiguous
            and out.dtype == np.dtype(np.float64)
        ):
            lib = _native.get_lib()
            if lib is not None:
                self._execute_native(
                    lib, plan, kernel, pos_sorted, mass_sorted,
                    node_com, node_mass, out,
                )
                return out

        box = kernel.box
        G = plan.n_groups
        wrap = _wrap_groups(plan, box)

        # gather the concatenated source streams once
        spos = pos_sorted[plan.part_idx]
        smass = mass_sorted[plan.part_idx]
        npos = node_com[plan.node_idx]
        nmass = node_mass[plan.node_idx]
        origin = None
        if single:
            # every coordinate relative to its group's origin, sources at
            # their image nearest it, then rounded to float32 once
            origin = _group_origins(plan, pos_sorted)
            streams = []
            for pts, ptr in ((spos, plan.part_ptr), (npos, plan.node_ptr)):
                gid = np.repeat(np.arange(G), np.diff(ptr))
                d = pts - origin[gid]
                w = wrap[gid]
                if w.any():
                    d[w] = minimum_image(d[w], box)
                streams.append(d.astype(np.float32))
            spos, npos = streams
            smass = smass.astype(np.float32)
            nmass = nmass.astype(np.float32)

        pcnt = np.diff(plan.part_ptr)
        order = np.argsort(S, kind="stable")[::-1]
        # empty lists contribute nothing, a chunk of ghosts has no target
        order = order[(S[order] > 0) & (T[order] > 0)]
        for need_wrap in (False, True):
            sel = order[wrap[order] == need_wrap]
            i = 0
            while i < len(sel):
                smax = int(S[sel[i]])
                ttot = int(T[sel[i]])
                j = i + 1
                while (
                    j < len(sel)
                    and (ttot + int(T[sel[j]])) * smax <= self.pair_budget
                ):
                    ttot += int(T[sel[j]])
                    j += 1
                self._run_batch(
                    plan, sel[i:j], T[sel[i:j]], smax, ttot, need_wrap, kernel,
                    pos_sorted, origin, spos, smass, npos, nmass, pcnt, out,
                )
                i = j
        return out

    def _execute_native(
        self,
        lib,
        plan: InteractionPlan,
        kernel,
        pos_sorted: np.ndarray,
        mass_sorted: np.ndarray,
        node_com: np.ndarray,
        node_mass: np.ndarray,
        out: np.ndarray,
    ) -> None:
        self.native_runs += 1
        i64 = lambda a: np.ascontiguousarray(a, dtype=np.int64)
        f64 = lambda a: np.ascontiguousarray(a, dtype=np.float64)
        G = plan.n_groups
        box = kernel.box
        wrap = _wrap_groups(plan, box).view(np.uint8)
        split = kernel.split
        rcut = rc2 = 0.0
        if split is not None:
            rcut, rc2 = split.cutoff_radius, _skip_radius2(split)
        smax = int(plan.list_lengths.max()) if G else 0
        stride = 4 * max(smax, 1)
        # one float scratch board per OpenMP thread; groups own disjoint
        # output rows so any thread count gives bitwise-identical forces
        nthreads = max(1, min(_native_threads(), G)) if G else 1
        scratch = self._buf("native_scratch", (nthreads * stride,), np.float32)
        tmask = plan.target_mask
        if tmask is not None:
            tmask = np.ascontiguousarray(tmask, dtype=bool).view(np.uint8)
        _native.sweep(
            lib,
            i64(plan.group_lo),
            i64(plan.group_hi),
            i64(plan.part_ptr),
            i64(plan.part_idx),
            i64(plan.node_ptr),
            i64(plan.node_idx),
            f64(pos_sorted),
            f64(mass_sorted),
            f64(node_com),
            f64(node_mass),
            wrap,
            tmask,
            0.0 if box is None else float(box),
            kernel.eps * kernel.eps,
            0 if split is None else 1,
            float(rcut),
            float(rc2),
            float(kernel.G),
            scratch,
            out,
            nthreads=nthreads,
            scratch_stride=stride,
        )

    def _fill_padded(
        self, rows_lo, rows_hi, col_offset, vals_pos, vals_mass, sb, mb, B
    ) -> None:
        """Scatter CSR entry ranges into the padded (B, smax) buffers."""
        cnt = rows_hi - rows_lo
        total = int(cnt.sum())
        if total == 0:
            return
        idx = multi_arange(rows_lo, rows_hi)
        row = np.repeat(np.arange(B), cnt)
        starts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        col = (
            np.arange(total, dtype=np.int64)
            - np.repeat(starts, cnt)
            + np.repeat(col_offset, cnt)
        )
        sb[row, col] = vals_pos[idx]
        mb[row, col] = vals_mass[idx]

    def _run_batch(
        self,
        plan,
        groups,
        tcnt,
        smax,
        ttot,
        need_wrap,
        kernel,
        pos_sorted,
        origin,
        spos,
        smass,
        npos,
        nmass,
        pcnt,
        out,
    ) -> None:
        """One batch of groups; ``origin`` is ``None`` in float64, the
        per-group origins of the single tier otherwise."""
        self.batches_run += 1
        dt = spos.dtype
        B = len(groups)

        # padded per-group source boards; zero masses neutralize padding
        # in float64 (their products append exact +0.0 terms to the
        # sequential einsum reduction, preserving bitwise results), the
        # single tier zeroes the padding columns of its force factor.
        # Only the padding tail of each row is zeroed — every other
        # column is overwritten by the scatter fills below.
        sb = self._buf("src_pos", (B, smax, 3), dt)
        mb = self._buf("src_mass", (B, smax), dt)
        bp = pcnt[groups]
        bn = plan.node_ptr[groups + 1] - plan.node_ptr[groups]
        off = np.arange(B, dtype=np.int64) * smax
        pad = multi_arange(off + bp + bn, off + smax)
        sb.reshape(B * smax, 3)[pad] = 0.0
        mb.reshape(B * smax)[pad] = 0.0
        self._fill_padded(
            plan.part_ptr[groups], plan.part_ptr[groups + 1],
            np.zeros(B, dtype=np.int64), spos, smass, sb, mb, B,
        )
        self._fill_padded(
            plan.node_ptr[groups], plan.node_ptr[groups + 1],
            bp, npos, nmass, sb, mb, B,
        )

        trows = multi_arange(plan.group_lo[groups], plan.group_hi[groups])
        if plan.target_mask is not None:
            trows = trows[plan.target_mask[trows]]
        tgt = pos_sorted[trows]
        if origin is not None:
            tgt = (tgt - np.repeat(origin[groups], tcnt, axis=0)).astype(dt)
        rend = np.cumsum(tcnt)

        # dx = source - target, PPKernel.accumulate's orientation;
        # one broadcast subtraction per group row-block avoids a full
        # gathered copy of the source board
        dx = self._buf("dx", (ttot, smax, 3), dt)
        for i in range(B):
            r1 = rend[i]
            r0 = r1 - tcnt[i]
            np.subtract(sb[i][None, :, :], tgt[r0:r1, None, :], out=dx[r0:r1])
        if origin is not None:
            acc = self._pairs_single(
                dx, mb, tcnt, rend, bp + bn, need_wrap, kernel
            )
        else:
            acc = self._pairs_double(dx, mb, tcnt, rend, need_wrap, kernel)
        # += onto the zeroed rows normalizes any -0.0 component, exactly
        # like adding a PPKernel.accumulate result to a zeroed array
        out[trows] += acc

    def _pairs_single(self, dx, mb, tcnt, rend, lens, need_wrap, kernel):
        """The single tier's pair arithmetic over one batch, in the
        compiled kernel's operation order (``_plansweep.c``)."""
        f4 = np.float32
        ttot, smax, _ = dx.shape
        if need_wrap:
            minimum_image(dx, f4(kernel.box), out=dx)
        x, y, z = dx[..., 0], dx[..., 1], dx[..., 2]
        r2 = self._buf("r2", (ttot, smax), f4)
        tmp = self._buf("tmp", (ttot, smax), f4)
        np.multiply(x, x, out=r2)
        r2 += np.multiply(y, y, out=tmp)
        r2 += np.multiply(z, z, out=tmp)
        # inactive: r2 == 0 (self pair or duplicate position), or past
        # the cutoff; their factor is set to 0 below, whatever it was
        active = self._buf("active", (ttot, smax), bool)
        np.not_equal(r2, 0.0, out=active)
        split = kernel.split
        if split is not None:
            active &= r2 <= f4(_skip_radius2(split))
        inactive = ~active
        yv = self._buf("y", (ttot, smax), f4)
        np.add(r2, f4(kernel.eps * kernel.eps), out=yv)
        np.copyto(yv, 1.0, where=inactive)  # keep discarded lanes finite
        np.sqrt(yv, out=yv)
        np.divide(f4(1.0), yv, out=yv)
        f = self._buf("f", (ttot, smax), f4)
        np.multiply(yv, yv, out=f)
        f *= yv
        if split is not None:
            np.sqrt(r2, out=tmp)
            tmp *= f4(2.0 / split.cutoff_radius)
            f *= gp3m_cutoff(tmp, dtype=f4)
        for i in range(len(tcnt)):
            r1 = rend[i]
            r0 = r1 - tcnt[i]
            f[r0:r1] *= mb[i][None, :]
            f[r0:r1, lens[i]:] = 0.0  # padding
        np.copyto(f, 0.0, where=inactive)
        # each target sums its list sequentially, as one kernel lane does
        acc = self._buf("acc", (ttot, 3), f4)
        for k, comp in enumerate((x, y, z)):
            np.multiply(f, comp, out=tmp)
            np.cumsum(tmp, axis=1, out=tmp)
            acc[:, k] = tmp[:, -1]
        # a lane's sum starts from +0.0, so a sum of zeros is never -0.0
        acc += f4(0.0)
        return acc.astype(np.float64) * kernel.G

    def _pairs_double(self, dx, mb, tcnt, rend, need_wrap, kernel):
        """The float64 oracle's pair arithmetic over one batch: bitwise
        :meth:`PPKernel.accumulate`."""
        dt = np.dtype(np.float64)
        ttot, smax, _ = dx.shape
        B = len(tcnt)
        if need_wrap:
            minimum_image(dx, kernel.box, out=dx)

        r2 = self._buf("r2", (ttot, smax), dt)
        np.einsum("tsk,tsk->ts", dx, dx, out=r2)
        eps2 = kernel.eps * kernel.eps

        split = kernel.split
        f = self._buf("f", (ttot, smax), dt)
        zero = self._buf("zero", (ttot, smax), bool)
        np.equal(r2, 0.0, out=zero)
        r2s = self._buf("r2s", (ttot, smax), dt)
        np.add(r2, eps2, out=r2s)
        if kernel.eps == 0.0:
            # guard exact zeros so the rsqrt path stays finite
            np.copyto(r2s, 1.0, where=zero)
        if kernel.use_fast_rsqrt:
            y = fast_rsqrt(r2s)
        else:
            y = self._buf("y", (ttot, smax), dt)
            np.sqrt(r2s, out=y)
            np.divide(1.0, y, out=y)
        np.multiply(y, y, out=f)
        f *= y
        if split is not None:
            r = self._buf("r", (ttot, smax), dt)
            np.sqrt(r2, out=r)
            f *= split.short_range_factor(r)
        np.copyto(f, 0.0, where=zero)

        # fold the source masses into f one group row-block at a time
        # ((m*f)*dx is einsum's own product order, so this is bitwise
        # equal to PPKernel.accumulate's three-operand contraction)
        for i in range(B):
            r1 = rend[i]
            r0 = r1 - tcnt[i]
            np.multiply(f[r0:r1], mb[i][None, :], out=f[r0:r1])
        acc = self._buf("acc", (ttot, 3), dt)
        np.einsum("ts,tsk->tk", f, dx, out=acc)
        acc *= kernel.G
        if kernel.ewald_table is not None:
            m2 = self._buf("m2", (ttot, smax), dt)
            gid = np.repeat(np.arange(B), tcnt)
            np.take(mb, gid, axis=0, out=m2)
            corr = -kernel.ewald_table.correction(dx)
            acc += kernel.G * np.einsum("ts,tsk->tk", m2, corr)
        return acc
