/* Native sweep over a CSR interaction plan.
 *
 * This is the compiled analogue of the numpy PlanExecutor pipeline (and
 * of the paper's hand-tuned Phantom-GRAPE kernel): one pass over the
 * plan, one fused scalar loop per pair.  Every floating-point operation
 * below reproduces, in the same order, one individually rounded IEEE
 * double operation of the numpy float64 pipeline, so the results are
 * bitwise identical:
 *
 *   - dx = source - target, then (wrap groups only) the minimum-image
 *     round dx -= box * rint(dx / box);
 *   - r2 accumulated over components left-to-right;
 *   - f = (y*y)*y with y = 1.0/sqrt(r2 + eps2);
 *   - the S2 cutoff polynomial with powers expanded into the exact
 *     multiply chains used by repro.forces.cutoff.gp3m_cutoff;
 *   - per-target accumulation strictly sequential over the source list
 *     (numpy's einsum order), scaled by G at the end.
 *
 * Pairs whose force factor is exactly +/-0.0 (self pairs, pairs past the
 * exact cutoff) are skipped: a sequential IEEE sum is unchanged by
 * adding signed zeros (mid-sum cancellation yields +0.0, and the final
 * `out += acc` onto zeroed rows normalizes any leading -0.0), which is
 * the same argument that licenses the numpy path's compression.
 *
 * plan_sweep_threads parallelizes over groups with OpenMP (compiled in
 * only when the loader probes -fopenmp successfully; without it the
 * pragma is ignored and the loop runs serially).  Groups own disjoint
 * target rows and each group's arithmetic depends only on its own
 * interaction list, so the result is bitwise independent of the
 * schedule and thread count.
 *
 * Compile with the default x86-64 target and -ffp-contract=off: no FMA
 * contraction, no reassociation, hardware-rounded sqrt/divide.
 */

#include <math.h>
#include <stdint.h>

#ifdef _OPENMP
#include <omp.h>
#endif

static double gp3m(double xi)
{
    /* exact operation sequence of gp3m_cutoff's array branch */
    double g = xi * (3.0 / 20.0);
    g += -12.0 / 35.0;
    g *= xi;
    g += -0.5;
    g *= xi;
    g += 8.0 / 5.0;
    double xi2 = xi * xi;
    g *= xi2;
    g += -8.0 / 5.0;
    double xi3 = xi2 * xi;
    g *= xi3;
    g += 1.0;
    double q = xi * (1.0 / 5.0);
    q += 18.0 / 35.0;
    q *= xi;
    q += 3.0 / 35.0;
    double zeta = xi - 1.0;
    if (zeta < 0.0)
        zeta = 0.0;
    double z2 = zeta * zeta;
    double z6 = z2 * z2;
    z6 *= z2;
    q *= z6;
    g -= q;
    if (xi >= 2.0)
        g = 0.0;
    return g;
}

static void sweep_group(
    int64_t g,
    const int64_t *group_lo,
    const int64_t *group_hi,
    const int64_t *part_ptr,
    const int64_t *part_idx,
    const int64_t *node_ptr,
    const int64_t *node_idx,
    const double *pos,
    const double *mass,
    const double *node_com,
    const double *node_mass,
    const uint8_t *wrap,
    double box,
    double eps2,
    int use_split,
    double rcut,
    double rc2,
    double G,
    double *scratch,
    double *out)
{
    int64_t p0 = part_ptr[g], p1 = part_ptr[g + 1];
    int64_t n0 = node_ptr[g], n1 = node_ptr[g + 1];
    int64_t S = (p1 - p0) + (n1 - n0);
    if (S == 0)
        return;
    /* gather the interaction list once per group (particles first,
     * then nodes: the plan's list order) */
    double *sx = scratch;
    double *sm = scratch + 3 * S;
    int64_t k = 0;
    for (int64_t i = p0; i < p1; ++i, ++k) {
        int64_t j = part_idx[i];
        sx[3 * k] = pos[3 * j];
        sx[3 * k + 1] = pos[3 * j + 1];
        sx[3 * k + 2] = pos[3 * j + 2];
        sm[k] = mass[j];
    }
    for (int64_t i = n0; i < n1; ++i, ++k) {
        int64_t j = node_idx[i];
        sx[3 * k] = node_com[3 * j];
        sx[3 * k + 1] = node_com[3 * j + 1];
        sx[3 * k + 2] = node_com[3 * j + 2];
        sm[k] = node_mass[j];
    }
    int w = wrap != 0 && wrap[g];
    for (int64_t t = group_lo[g]; t < group_hi[g]; ++t) {
        double tx = pos[3 * t];
        double ty = pos[3 * t + 1];
        double tz = pos[3 * t + 2];
        double ax = 0.0, ay = 0.0, az = 0.0;
        for (int64_t s = 0; s < S; ++s) {
            double dx = sx[3 * s] - tx;
            double dy = sx[3 * s + 1] - ty;
            double dz = sx[3 * s + 2] - tz;
            if (w) {
                dx -= rint(dx / box) * box;
                dy -= rint(dy / box) * box;
                dz -= rint(dz / box) * box;
            }
            /* numpy's einsum reduces the length-3 component axis in
             * SIMD-pair order: lane x plus remainder z, then lane y */
            double r2 = (dx * dx + dz * dz) + dy * dy;
            if (r2 == 0.0)
                continue; /* self pair: factor is zeroed */
            if (use_split && r2 > rc2)
                continue; /* exact cutoff: factor is exactly 0.0 */
            double r2s = r2 + eps2;
            double y = 1.0 / sqrt(r2s);
            double f = (y * y) * y;
            if (use_split) {
                double xi = (2.0 * sqrt(r2)) / rcut;
                f *= gp3m(xi);
            }
            double fm = f * sm[s];
            ax += fm * dx;
            ay += fm * dy;
            az += fm * dz;
        }
        out[3 * t] += ax * G;
        out[3 * t + 1] += ay * G;
        out[3 * t + 2] += az * G;
    }
}

void plan_sweep(
    int64_t n_groups,
    const int64_t *group_lo,
    const int64_t *group_hi,
    const int64_t *part_ptr,
    const int64_t *part_idx,
    const int64_t *node_ptr,
    const int64_t *node_idx,
    const double *pos,       /* (N, 3) Morton-sorted positions */
    const double *mass,      /* (N,) */
    const double *node_com,  /* (M, 3) */
    const double *node_mass, /* (M,) */
    const uint8_t *wrap,     /* per-group: apply per-pair minimum image */
    double box,
    double eps2,
    int use_split,           /* 1: apply the S2 gp3m cutoff */
    double rcut,
    double rc2,              /* skip threshold, >= rcut^2 */
    double G,
    double *scratch,         /* >= 4 * max list length doubles */
    double *out)             /* (N, 3); rows group_lo..group_hi get += */
{
    for (int64_t g = 0; g < n_groups; ++g)
        sweep_group(g, group_lo, group_hi, part_ptr, part_idx, node_ptr,
                    node_idx, pos, mass, node_com, node_mass, wrap, box,
                    eps2, use_split, rcut, rc2, G, scratch, out);
}

/* Threaded variant: parallel over groups, one scratch board of
 * `scratch_stride` doubles per thread.  Bitwise identical to plan_sweep
 * for any nthreads (disjoint output rows, per-group arithmetic). */
void plan_sweep_threads(
    int64_t n_groups,
    const int64_t *group_lo,
    const int64_t *group_hi,
    const int64_t *part_ptr,
    const int64_t *part_idx,
    const int64_t *node_ptr,
    const int64_t *node_idx,
    const double *pos,
    const double *mass,
    const double *node_com,
    const double *node_mass,
    const uint8_t *wrap,
    double box,
    double eps2,
    int use_split,
    double rcut,
    double rc2,
    double G,
    double *scratch,         /* >= nthreads * scratch_stride doubles */
    double *out,
    int64_t scratch_stride,
    int nthreads)
{
    (void)nthreads;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 8) num_threads(nthreads)
#endif
    for (int64_t g = 0; g < n_groups; ++g) {
        int tid = 0;
#ifdef _OPENMP
        tid = omp_get_thread_num();
#endif
        sweep_group(g, group_lo, group_hi, part_ptr, part_idx, node_ptr,
                    node_idx, pos, mass, node_com, node_mass, wrap, box,
                    eps2, use_split, rcut, rc2, G,
                    scratch + (int64_t)tid * scratch_stride, out);
    }
}
