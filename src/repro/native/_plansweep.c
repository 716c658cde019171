/* Native sweep over a CSR interaction plan: single-precision
 * Phantom-GRAPE lanes.
 *
 * This is the compiled twin of the numpy single-precision executor
 * (repro.pp.plan.PlanExecutor, dtype float32) and is laid out like the
 * paper's hand-tuned Phantom-GRAPE kernel: a group's interaction list is
 * gathered once into float structure-of-arrays scratch
 * (sx | sy | sz | sm, S floats each) and the group's targets are swept
 * LANES at a time, one target per SIMD lane, over that shared list.  A
 * source is broadcast to every lane; each lane then performs, in the
 * same order, exactly the individually rounded IEEE operations the
 * numpy executor performs for its (target, source) pair, so the results
 * are bitwise identical whatever the lane width:
 *
 *   - gather, in double: every coordinate is taken relative to the
 *     group's origin o, the midpoint of the bounding box of the group's
 *     rows ((min + max) * 0.5 per axis, ghost rows included), so o
 *     depends on the group's own particles only.  A source of a wrap
 *     group is moved to its image nearest o (d -= rint(d / box) * box);
 *     then every coordinate and mass is rounded to float once;
 *   - dx = source - target in float, and (wrap groups only) the
 *     minimum-image round dx -= rint(dx / box) * box in float — skipped
 *     for a component in which every lane has |dx| <= box/2, where rint
 *     of the quotient is +/-0 and the round leaves dx as it is.  It
 *     matters only for a group wider than box/2 minus the cutoff;
 *   - r2 = (dx*dx + dy*dy) + dz*dz;
 *   - f = (y*y)*y with y = 1.0f / sqrtf(r2 + eps2): IEEE square root and
 *     divide, never an approximate reciprocal estimate (its bits differ
 *     between CPU vendors);
 *   - the S2 cutoff polynomial of repro.forces.cutoff.gp3m_cutoff, in
 *     float, at xi = sqrtf(r2) * (2/rcut), its two branches
 *     (zeta = max(0, xi-1), g = 0 for xi >= 2) as lane masks;
 *   - per-target accumulation in float, strictly sequential over the
 *     source list, widened to double and scaled by G at the end.
 *
 * Every double parameter (box, eps2, rc2, 2/rcut) is rounded to float
 * once, as the numpy executor rounds it.
 *
 * Lanes are targets, never sources: no sum is reassociated.  Pairs
 * with r2 exactly 0 (self pairs, duplicate positions) and pairs past
 * the cutoff (r2 > rc2) are inactive: their lane adds +0.0f, which
 * leaves an IEEE sum that started at +0.0 unchanged, and whatever the
 * inactive lane computed on the way (inf*0 for an unsoftened self pair)
 * is discarded by the mask, not summed.  A source with no active lane
 * is skipped before its square roots and divide.
 *
 * Blocks are built from a group's *targets*: rows [lo, hi) whose byte
 * in the plan's target mask is set (no mask = every row).  A row that
 * is not a target — a ghost imported as a source — takes no lane and
 * its output row is neither read nor written.  The last block of a
 * group replicates its last target into the spare lanes and does not
 * store them.
 *
 * The kernel body below is written once over the float V_* lane macros
 * of _lanes.h, which instantiates it at one lane (plain C, every host)
 * and, on x86-64, at eight (AVX2) and picks the width from the CPU
 * when the library is loaded; that header says why neither width
 * changes a bit.
 *
 * plan_sweep_threads parallelizes over groups with OpenMP (compiled in
 * only when the loader probes -fopenmp successfully; without it the
 * pragma is ignored and the loop runs serially).  Groups own disjoint
 * target rows and each group's arithmetic depends only on its own rows
 * and interaction list, so the result is bitwise independent of the
 * schedule and thread count.
 */

#ifdef LANES
/* ---- the kernel body, instantiated once per lane width ------------------ */

#include "_lanes.h"

/* repro.forces.cutoff.gp3m_cutoff(xi, dtype=np.float32), operation by
 * operation */
V_ATTR static inline vf FN(gp3m_w)(vf xi)
{
    vf g = xi * V_SET1(3.0 / 20.0);
    g += V_SET1(-12.0 / 35.0);
    g *= xi;
    g += V_SET1(-0.5);
    g *= xi;
    g += V_SET1(8.0 / 5.0);
    vf xi2 = xi * xi;
    g *= xi2;
    g += V_SET1(-8.0 / 5.0);
    vf xi3 = xi2 * xi;
    g *= xi3;
    g += V_SET1(1.0);
    vf q = xi * V_SET1(1.0 / 5.0);
    q += V_SET1(18.0 / 35.0);
    q *= xi;
    q += V_SET1(3.0 / 35.0);
    vf zeta = xi - V_SET1(1.0);
    zeta = V_KEEP(~V_LT(zeta, V_SET1(0.0)), zeta);
    vf z2 = zeta * zeta;
    vf z6 = z2 * z2;
    z6 *= z2;
    q *= z6;
    g -= q;
    return V_KEEP(~V_GE(xi, V_SET1(2.0)), g);
}

/* dx -= rint(dx / box) * box, unless no lane can be moved by it */
V_ATTR static inline vf FN(wrap_w)(vf d, vf box, vf half_box)
{
    if (V_ANY(V_GT(d, half_box) | V_LT(d, -half_box)))
        d -= V_RINT(d / box) * box;
    return d;
}

/* Targets among rows [lo, hi) against the gathered list of S sources,
 * everything relative to the group origin `org`. */
V_ATTR static void FN(sweep_targets_w)(
    int64_t lo,
    int64_t hi,
    const uint8_t *tmask, /* per row: is a target; null = all */
    int64_t S,
    const float *soa, /* sx | sy | sz | sm */
    const double *pos,
    const double *org,
    int w,
    float box,
    float eps2,
    int use_split,
    float xscale, /* 2 / rcut */
    float rc2,
    double G,
    double *out)
{
    const float *sx = soa, *sy = soa + S, *sz = soa + 2 * S, *sm = soa + 3 * S;
    const vf vbox = V_SET1(box), vhbox = V_SET1(0.5f * box);
    const vf veps2 = V_SET1(eps2), vxscale = V_SET1(xscale);
    const vf vrc2 = V_SET1(rc2), zero = V_SET1(0.0), one = V_SET1(1.0);
    for (int64_t t = lo;;) {
        int64_t row[LANES];
        int n = 0;
        for (; t < hi && n < LANES; ++t)
            if (!tmask || tmask[t])
                row[n++] = t;
        if (n == 0)
            break;
        float txyz[3][LANES];
        for (int l = 0; l < LANES; ++l) {
            /* spare lanes of the tail block repeat the last target */
            int64_t i = row[l < n ? l : n - 1];
            for (int c = 0; c < 3; ++c)
                txyz[c][l] = (float)(pos[3 * i + c] - org[c]);
        }
        const vf tx = V_LOAD(txyz[0]), ty = V_LOAD(txyz[1]), tz = V_LOAD(txyz[2]);
        vf ax = zero, ay = zero, az = zero;
        for (int64_t s = 0; s < S; ++s) {
            vf dx = V_SET1(sx[s]) - tx;
            vf dy = V_SET1(sy[s]) - ty;
            vf dz = V_SET1(sz[s]) - tz;
            if (w) {
                dx = FN(wrap_w)(dx, vbox, vhbox);
                dy = FN(wrap_w)(dy, vbox, vhbox);
                dz = FN(wrap_w)(dz, vbox, vhbox);
            }
            vf r2 = (dx * dx + dy * dy) + dz * dz;
            /* inactive: r2 == 0 (self pair or duplicate position), or
             * past the cutoff */
            vm active = V_NE(r2, zero);
            if (use_split)
                active &= ~V_GT(r2, vrc2);
            if (!V_ANY(active))
                continue;
            vf y = one / V_SQRT(r2 + veps2);
            vf f = (y * y) * y;
            if (use_split)
                f *= FN(gp3m_w)(V_SQRT(r2) * vxscale);
            vf fm = f * V_SET1(sm[s]);
            ax += V_KEEP(active, fm * dx);
            ay += V_KEEP(active, fm * dy);
            az += V_KEEP(active, fm * dz);
        }
        for (int l = 0; l < n; ++l) {
            out[3 * row[l]] += (double)V_LANE(ax, l) * G;
            out[3 * row[l] + 1] += (double)V_LANE(ay, l) * G;
            out[3 * row[l] + 2] += (double)V_LANE(az, l) * G;
        }
    }
}

#include "_lanes.h"

#else
/* ---- the translation unit ------------------------------------------------ */

#ifdef _OPENMP
#include <omp.h>
#endif

/* sweep_targets_w1 and _w8, `dispatched` (the one plan_sweep and
 * plan_sweep_threads run) and plan_sweep_lanes() */
#define LANES_SELF "_plansweep.c"
#define LANES_KERNEL sweep_targets_w
#define LANES_EXPORT plan_sweep_lanes
#define LANES_FLOAT
#include "_lanes.h"

#define PLAN_PARAMS                                                          \
    int64_t n_groups,                                                        \
    const int64_t *group_lo,                                                 \
    const int64_t *group_hi,                                                 \
    const int64_t *part_ptr,                                                 \
    const int64_t *part_idx,                                                 \
    const int64_t *node_ptr,                                                 \
    const int64_t *node_idx,                                                 \
    const double *pos,       /* (N, 3) Morton-sorted positions */            \
    const double *mass,      /* (N,) */                                      \
    const double *node_com,  /* (M, 3) */                                    \
    const double *node_mass, /* (M,) */                                      \
    const uint8_t *wrap,     /* per-group: apply the minimum image */        \
    const uint8_t *tmask,    /* (N,) row is a target, or null: all are */    \
    double box,                                                              \
    double eps2,                                                             \
    int use_split,           /* 1: apply the S2 gp3m cutoff */               \
    double rcut,                                                             \
    double rc2,              /* skip threshold, >= rcut^2 */                 \
    double G,                                                                \
    float *scratch,          /* >= 4 * max list length floats (per thread) */ \
    double *out              /* (N, 3); target rows of each group get += */
#define PLAN_ARGS                                                            \
    n_groups, group_lo, group_hi, part_ptr, part_idx, node_ptr, node_idx,    \
    pos, mass, node_com, node_mass, wrap, tmask, box, eps2, use_split, rcut, \
    rc2, G, scratch, out

/* One source (position and mass) into slot k of the float board,
 * relative to the group origin. */
static inline void gather(float *board, int64_t S, int64_t k, const double *x,
                          double m, const double *org, int w, double box)
{
    for (int c = 0; c < 3; ++c) {
        double d = x[c] - org[c];
        if (w)
            d -= rint(d / box) * box;
        board[c * S + k] = (float)d;
    }
    board[3 * S + k] = (float)m;
}

static void sweep_group(__typeof__(dispatched) sweep_targets, int64_t g,
                        PLAN_PARAMS)
{
    (void)n_groups;
    int64_t p0 = part_ptr[g], p1 = part_ptr[g + 1];
    int64_t n0 = node_ptr[g], n1 = node_ptr[g + 1];
    int64_t S = (p1 - p0) + (n1 - n0);
    int64_t lo = group_lo[g], hi = group_hi[g];
    if (S == 0 || hi <= lo)
        return;
    int w = wrap != 0 && wrap[g];
    /* the group origin: midpoint of its rows' bounding box */
    double org[3];
    for (int c = 0; c < 3; ++c) {
        double mn = pos[3 * lo + c], mx = mn;
        for (int64_t i = lo + 1; i < hi; ++i) {
            double v = pos[3 * i + c];
            mn = v < mn ? v : mn;
            mx = v > mx ? v : mx;
        }
        org[c] = (mn + mx) * 0.5;
    }
    /* gather the interaction list once per group (particles first,
     * then nodes: the plan's list order) */
    int64_t k = 0;
    for (int64_t i = p0; i < p1; ++i, ++k) {
        int64_t j = part_idx[i];
        gather(scratch, S, k, pos + 3 * j, mass[j], org, w, box);
    }
    for (int64_t i = n0; i < n1; ++i, ++k) {
        int64_t j = node_idx[i];
        gather(scratch, S, k, node_com + 3 * j, node_mass[j], org, w, box);
    }
    sweep_targets(lo, hi, tmask, S, scratch, pos, org, w, (float)box,
                  (float)eps2, use_split, (float)(2.0 / rcut), (float)rc2, G,
                  out);
}

void plan_sweep(PLAN_PARAMS)
{
    for (int64_t g = 0; g < n_groups; ++g)
        sweep_group(dispatched, g, PLAN_ARGS);
}

/* Always the 1-lane instantiation, so the two can be compared on any
 * host. */
void plan_sweep_w1(PLAN_PARAMS)
{
    for (int64_t g = 0; g < n_groups; ++g)
        sweep_group(sweep_targets_w1, g, PLAN_ARGS);
}

/* Threaded variant: parallel over groups, one scratch board of
 * `scratch_stride` floats per thread.  Bitwise identical to plan_sweep
 * for any nthreads (disjoint output rows, per-group arithmetic). */
void plan_sweep_threads(PLAN_PARAMS, int64_t scratch_stride, int nthreads)
{
    (void)nthreads;
    float *boards = scratch;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 8) num_threads(nthreads)
#endif
    for (int64_t g = 0; g < n_groups; ++g) {
        int tid = 0;
#ifdef _OPENMP
        tid = omp_get_thread_num();
#endif
        /* this thread's board, under the name PLAN_ARGS passes on */
        float *scratch = boards + (int64_t)tid * scratch_stride;
        sweep_group(dispatched, g, PLAN_ARGS);
    }
}

#endif /* LANES */
