/* Native sweep over a CSR interaction plan: Phantom-GRAPE lanes.
 *
 * This is the compiled analogue of the numpy PlanExecutor pipeline and
 * is laid out like the paper's hand-tuned Phantom-GRAPE kernel: a
 * group's interaction list is gathered once into structure-of-arrays
 * scratch (sx | sy | sz | sm, S doubles each) and the group's targets
 * are swept LANES at a time, one target per SIMD lane, over that shared
 * list.  A source is broadcast to every lane; each lane then performs,
 * in the same order, exactly the individually rounded IEEE double
 * operations the numpy float64 pipeline performs for its (target,
 * source) pair, so the results are bitwise identical whatever the lane
 * width:
 *
 *   - dx = source - target, then (wrap groups only) the minimum-image
 *     round dx -= box * rint(dx / box) — skipped for a component in
 *     which every lane has |dx| <= box/2, where the correctly rounded
 *     quotient is at most 0.5 in magnitude, rint of it is +/-0 and the
 *     round leaves dx as it is (a -0.0 that it would turn into +0.0
 *     squares to the same r2 and adds the same nothing to a sum that
 *     started at +0.0);
 *   - r2 accumulated over components in numpy's einsum order;
 *   - f = (y*y)*y with y = 1.0/sqrt(r2 + eps2);
 *   - the S2 cutoff polynomial with powers expanded into the exact
 *     multiply chains used by repro.forces.cutoff.gp3m_cutoff, its two
 *     branches (zeta = max(0, xi-1), g = 0 for xi >= 2) as lane masks;
 *   - per-target accumulation strictly sequential over the source list
 *     (numpy's einsum order), scaled by G at the end.
 *
 * Lanes are targets, never sources: no sum is reassociated.  Pairs
 * whose force factor is exactly +/-0.0 (self pairs, pairs past the
 * exact cutoff) are inactive: their lane adds +0.0, which leaves an
 * IEEE sum that started at +0.0 unchanged (such a sum is never -0.0:
 * round-to-nearest yields -0.0 only from -0.0 + -0.0), and whatever the
 * inactive lane computed on the way (inf*0 for an unsoftened self pair)
 * is discarded by the mask, not summed.  A source with no active lane
 * is skipped before its sqrt and divides.
 *
 * Blocks are built from a group's *targets*: rows [lo, hi) whose byte
 * in the plan's target mask is set (no mask = every row).  A row that
 * is not a target — a ghost imported as a source — takes no lane and
 * its output row is neither read nor written.  The last block of a
 * group replicates its last target into the spare lanes and does not
 * store them.
 *
 * The kernel body below is written once over the V_* lane macros of
 * _lanes.h, which instantiates it at one lane (plain C, every host)
 * and, on x86-64, at four (AVX2) and picks the width from the CPU
 * when the library is loaded; that header says why neither width
 * changes a bit.
 *
 * plan_sweep_threads parallelizes over groups with OpenMP (compiled in
 * only when the loader probes -fopenmp successfully; without it the
 * pragma is ignored and the loop runs serially).  Groups own disjoint
 * target rows and each group's arithmetic depends only on its own
 * interaction list, so the result is bitwise independent of the
 * schedule and thread count.
 */

#ifdef LANES
/* ---- the kernel body, instantiated once per lane width ------------------ */

#include "_lanes.h"

/* exact operation sequence of gp3m_cutoff's array branch */
V_ATTR static inline vd FN(gp3m_w)(vd xi)
{
    vd g = xi * V_SET1(3.0 / 20.0);
    g += V_SET1(-12.0 / 35.0);
    g *= xi;
    g += V_SET1(-0.5);
    g *= xi;
    g += V_SET1(8.0 / 5.0);
    vd xi2 = xi * xi;
    g *= xi2;
    g += V_SET1(-8.0 / 5.0);
    vd xi3 = xi2 * xi;
    g *= xi3;
    g += V_SET1(1.0);
    vd q = xi * V_SET1(1.0 / 5.0);
    q += V_SET1(18.0 / 35.0);
    q *= xi;
    q += V_SET1(3.0 / 35.0);
    vd zeta = xi - V_SET1(1.0);
    zeta = V_KEEP(~V_LT(zeta, V_SET1(0.0)), zeta);
    vd z2 = zeta * zeta;
    vd z6 = z2 * z2;
    z6 *= z2;
    q *= z6;
    g -= q;
    return V_KEEP(~V_GE(xi, V_SET1(2.0)), g);
}

/* dx -= box * rint(dx / box), unless no lane can be moved by it */
V_ATTR static inline vd FN(wrap_w)(vd d, vd box, vd half_box)
{
    if (V_ANY(V_GT(d, half_box) | V_LT(d, -half_box)))
        d -= V_RINT(d / box) * box;
    return d;
}

/* Targets among rows [lo, hi) against the gathered list of S sources. */
V_ATTR static void FN(sweep_targets_w)(
    int64_t lo,
    int64_t hi,
    const uint8_t *tmask, /* per row: is a target; null = all */
    int64_t S,
    const double *soa, /* sx | sy | sz | sm */
    const double *pos,
    int w,
    double box,
    double eps2,
    int use_split,
    double rcut,
    double rc2,
    double G,
    double *out)
{
    const double *sx = soa, *sy = soa + S, *sz = soa + 2 * S, *sm = soa + 3 * S;
    const vd vbox = V_SET1(box), vhbox = V_SET1(0.5 * box);
    const vd veps2 = V_SET1(eps2), vrcut = V_SET1(rcut);
    const vd vrc2 = V_SET1(rc2), zero = V_SET1(0.0);
    const vd one = V_SET1(1.0), two = V_SET1(2.0);
    for (int64_t t = lo;;) {
        int64_t row[LANES];
        int n = 0;
        for (; t < hi && n < LANES; ++t)
            if (!tmask || tmask[t])
                row[n++] = t;
        if (n == 0)
            break;
        double txyz[3][LANES];
        for (int l = 0; l < LANES; ++l) {
            /* spare lanes of the tail block repeat the last target */
            int64_t i = row[l < n ? l : n - 1];
            txyz[0][l] = pos[3 * i];
            txyz[1][l] = pos[3 * i + 1];
            txyz[2][l] = pos[3 * i + 2];
        }
        const vd tx = V_LOAD(txyz[0]), ty = V_LOAD(txyz[1]), tz = V_LOAD(txyz[2]);
        vd ax = zero, ay = zero, az = zero;
        for (int64_t s = 0; s < S; ++s) {
            vd dx = V_SET1(sx[s]) - tx;
            vd dy = V_SET1(sy[s]) - ty;
            vd dz = V_SET1(sz[s]) - tz;
            if (w) {
                dx = FN(wrap_w)(dx, vbox, vhbox);
                dy = FN(wrap_w)(dy, vbox, vhbox);
                dz = FN(wrap_w)(dz, vbox, vhbox);
            }
            /* numpy's einsum reduces the length-3 component axis in
             * SIMD-pair order: lane x plus remainder z, then lane y */
            vd r2 = (dx * dx + dz * dz) + dy * dy;
            /* inactive: self pair (factor is zeroed), or past the exact
             * cutoff (factor is exactly 0.0) */
            vm active = V_NE(r2, zero);
            if (use_split)
                active &= ~V_GT(r2, vrc2);
            if (!V_ANY(active))
                continue;
            vd r2s = r2 + veps2;
            vd y = one / V_SQRT(r2s);
            vd f = (y * y) * y;
            if (use_split) {
                vd xi = (two * V_SQRT(r2)) / vrcut;
                f *= FN(gp3m_w)(xi);
            }
            vd fm = f * V_SET1(sm[s]);
            ax += V_KEEP(active, fm * dx);
            ay += V_KEEP(active, fm * dy);
            az += V_KEEP(active, fm * dz);
        }
        for (int l = 0; l < n; ++l) {
            out[3 * row[l]] += V_LANE(ax, l) * G;
            out[3 * row[l] + 1] += V_LANE(ay, l) * G;
            out[3 * row[l] + 2] += V_LANE(az, l) * G;
        }
    }
}

#include "_lanes.h"

#else
/* ---- the translation unit ------------------------------------------------ */

#ifdef _OPENMP
#include <omp.h>
#endif

/* sweep_targets_w1 and _w4, `dispatched` (the one plan_sweep and
 * plan_sweep_threads run) and plan_sweep_lanes() */
#define LANES_SELF "_plansweep.c"
#define LANES_KERNEL sweep_targets_w
#define LANES_EXPORT plan_sweep_lanes
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
    const uint8_t *wrap,     /* per-group: apply per-pair minimum image */   \
    const uint8_t *tmask,    /* (N,) row is a target, or null: all are */    \
    double box,                                                              \
    double eps2,                                                             \
    int use_split,           /* 1: apply the S2 gp3m cutoff */               \
    double rcut,                                                             \
    double rc2,              /* skip threshold, >= rcut^2 */                 \
    double G,                                                                \
    double *scratch,         /* >= 4 * max list length doubles (per thread) */ \
    double *out              /* (N, 3); target rows of each group get += */
#define PLAN_ARGS                                                            \
    n_groups, group_lo, group_hi, part_ptr, part_idx, node_ptr, node_idx,    \
    pos, mass, node_com, node_mass, wrap, tmask, box, eps2, use_split, rcut, \
    rc2, G, scratch, out

static void sweep_group(__typeof__(dispatched) sweep_targets, int64_t g,
                        PLAN_PARAMS)
{
    (void)n_groups;
    int64_t p0 = part_ptr[g], p1 = part_ptr[g + 1];
    int64_t n0 = node_ptr[g], n1 = node_ptr[g + 1];
    int64_t S = (p1 - p0) + (n1 - n0);
    if (S == 0)
        return;
    /* gather the interaction list once per group (particles first,
     * then nodes: the plan's list order) */
    double *sx = scratch, *sy = sx + S, *sz = sy + S, *sm = sz + S;
    int64_t k = 0;
    for (int64_t i = p0; i < p1; ++i, ++k) {
        int64_t j = part_idx[i];
        sx[k] = pos[3 * j];
        sy[k] = pos[3 * j + 1];
        sz[k] = pos[3 * j + 2];
        sm[k] = mass[j];
    }
    for (int64_t i = n0; i < n1; ++i, ++k) {
        int64_t j = node_idx[i];
        sx[k] = node_com[3 * j];
        sy[k] = node_com[3 * j + 1];
        sz[k] = node_com[3 * j + 2];
        sm[k] = node_mass[j];
    }
    sweep_targets(group_lo[g], group_hi[g], tmask, S, scratch, pos,
                  wrap != 0 && wrap[g], box, eps2, use_split, rcut, rc2, G,
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
 * `scratch_stride` doubles per thread.  Bitwise identical to plan_sweep
 * for any nthreads (disjoint output rows, per-group arithmetic). */
void plan_sweep_threads(PLAN_PARAMS, int64_t scratch_stride, int nthreads)
{
    (void)nthreads;
    double *boards = scratch;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 8) num_threads(nthreads)
#endif
    for (int64_t g = 0; g < n_groups; ++g) {
        int tid = 0;
#ifdef _OPENMP
        tid = omp_get_thread_num();
#endif
        /* this thread's board, under the name PLAN_ARGS passes on */
        double *scratch = boards + (int64_t)tid * scratch_stride;
        sweep_group(dispatched, g, PLAN_ARGS);
    }
}

#endif /* LANES */
