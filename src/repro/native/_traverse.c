/* Native plan-construction traversal (Barnes' modified algorithm).
 *
 * One breadth-first walk per group, emitting accepted nodes and
 * dumped-leaf particles straight into the plan's CSR layout.  A node is
 * tested against the group when its *parent* is opened: both tree
 * builders append the children of a node as one contiguous run of ids,
 * so a run loads from the structure-of-arrays copy of the node table
 * (com x | y | z, half, bmin x | y | z, bmax x | y | z: `soa_stride`
 * doubles each, zero padded) LANES
 * siblings at a time, one per SIMD lane.  Only nodes to open enter the
 * FIFO.
 *
 * Emission order.  Parents are opened in FIFO order and a run is tested
 * in id (= octant) order, so nodes are tested in the breadth-first order
 * in which a node-at-a-time FIFO walk dequeues them, and accepted nodes
 * and dumped leaves are written as they are tested: each CSR stream
 * keeps that order.  The Python reference sweeps all groups level by
 * level and restores per-group order with a stable sort (level-major,
 * frontier order inside a level) — the same order, so the plan is the
 * reference plan entry for entry and the count of tested nodes is its
 * `nodes_visited`.
 *
 * Per-pair arithmetic mirrors the numpy expressions exactly
 * (individually rounded doubles, no contraction), lane by lane:
 *
 *   dx    = com - gcenter          (per component)
 *   s     = rint(dx / box) * box;  dx -= s        (periodic only)
 *   dist  = sqrt((dx0*dx0 + dx2*dx2) + dx1*dx1)   (einsum pair order)
 *   gap   = dist - gr
 *   accept = keep && gap > 0 && 2*half < theta*gap
 *
 * and, with a force split (use_rcut), the box cull of box_gap2 in
 * repro.tree.traversal, per axis between a node's box [lo, hi] and the
 * group node's box [glo, ghi]:
 *
 *   d     = max(lo - ghi, glo - hi)
 *   d     = min(d, box - (max(hi, ghi) - min(lo, glo)))   (periodic only)
 *   d     = max(d, 0)
 *   keep  = (d0*d0 + d1*d1) + d2*d2 <= rc*rc,   rc = rcut * (1 + 1e-9)
 *   near  = the same test with lo = hi = com
 *
 * An accepted node is listed only when it is near, a kept leaf is
 * dumped whole and a kept internal node is opened.  The S2 factor is
 * exactly zero past rcut, so every entry the cull drops would have
 * added +/-0 to every target of the group.
 *
 * The image round is skipped for a batch in which every lane has
 * |dx| <= box/2 in all components: the correctly rounded dx / box is
 * then at most 0.5 in magnitude (rounding is monotone, 0.5 is
 * representable), rint of it is +/-0 (ties to even), s is +/-0 and
 * dx - s is dx.
 *
 * Capacity protocol: when part_cap / node_cap is too small the walk
 * keeps counting without writing and returns -1 with the exact needed
 * sizes in counts_out, so the caller retries once with a tight
 * allocation.  A node whose children are not one contiguous id run
 * returns -2: the caller walks that tree in numpy.
 *
 * The walk is written once over the V_* lane macros of _lanes.h, which
 * instantiates it at one lane (plain C) and, on x86-64, at four (AVX2
 * target attribute on that function only; no FMA, -ffp-contract=off)
 * and picks the width from the CPU when the library is loaded.
 */

#ifdef LANES
/* ---- the walk, instantiated once per lane width -------------------------- */

#include "_lanes.h"

/* One axis of the box-to-box gap: how far [lo, hi] lies from [glo, ghi],
 * the short way round a periodic box, 0 when they overlap. */
V_ATTR static inline vd FN(axis_gap_w)(vd lo, vd hi, vd glo, vd ghi,
                                       int periodic, vd vbox)
{
    vd gap = V_MAX(lo - ghi, glo - hi);
    if (periodic)
        gap = V_MIN(gap, vbox - (V_MAX(hi, ghi) - V_MIN(lo, glo)));
    return V_MAX(gap, V_SET1(0.0));
}

V_ATTR int64_t FN(plan_traverse_w)(TRAVERSE_PARAMS)
{
    const double *cx = node_soa, *cy = cx + soa_stride, *cz = cy + soa_stride;
    const double *hf = cz + soa_stride;
    const double *lx = hf + soa_stride, *ly = lx + soa_stride, *lz = ly + soa_stride;
    const double *ux = lz + soa_stride, *uy = ux + soa_stride, *uz = uy + soa_stride;
    const double sqrt3 = sqrt(3.0);
    const double rc = rcut * (1.0 + 1e-9);
    const vd vbox = V_SET1(box), hb = V_SET1(0.5 * box), nhb = V_SET1(-0.5 * box);
    const vd vrc2 = V_SET1(rc * rc), zero = V_SET1(0.0);
    const vd two = V_SET1(2.0), vtheta = V_SET1(theta);
    int64_t np_count = 0, nn_count = 0, visited = 0;
    part_ptr[0] = 0;
    node_ptr[0] = 0;
    for (int64_t gi = 0; gi < n_groups; ++gi) {
        int64_t g = groups[gi];
        const vd gc0 = V_SET1(node_center[3 * g]);
        const vd gc1 = V_SET1(node_center[3 * g + 1]);
        const vd gc2 = V_SET1(node_center[3 * g + 2]);
        const vd gr = V_SET1(hf[g] * sqrt3);
        const vd gl0 = V_SET1(lx[g]), gl1 = V_SET1(ly[g]), gl2 = V_SET1(lz[g]);
        const vd gu0 = V_SET1(ux[g]), gu1 = V_SET1(uy[g]), gu2 = V_SET1(uz[g]);
        int64_t head = 0, tail = 0;
        int64_t first = 0, cnt = 1; /* every group starts at the root */
        for (;;) {
            visited += cnt;
            for (int64_t k = first; k < first + cnt; k += LANES) {
                const vd px = V_LOAD(cx + k), py = V_LOAD(cy + k), pz = V_LOAD(cz + k);
                vd dx0 = px - gc0;
                vd dx1 = py - gc1;
                vd dx2 = pz - gc2;
                if (periodic) {
                    vm far = V_GT(dx0, hb) | V_LT(dx0, nhb) | V_GT(dx1, hb) |
                             V_LT(dx1, nhb) | V_GT(dx2, hb) | V_LT(dx2, nhb);
                    if (V_BITS(far)) {
                        dx0 -= V_RINT(dx0 / vbox) * vbox;
                        dx1 -= V_RINT(dx1 / vbox) * vbox;
                        dx2 -= V_RINT(dx2 / vbox) * vbox;
                    }
                }
                vd dist = V_SQRT((dx0 * dx0 + dx2 * dx2) + dx1 * dx1);
                vd half = V_LOAD(hf + k);
                vd gap = dist - gr;
                int keep = (1 << LANES) - 1, near = keep;
                if (use_rcut) {
                    vd d0 = FN(axis_gap_w)(V_LOAD(lx + k), V_LOAD(ux + k),
                                           gl0, gu0, periodic, vbox);
                    vd d1 = FN(axis_gap_w)(V_LOAD(ly + k), V_LOAD(uy + k),
                                           gl1, gu1, periodic, vbox);
                    vd d2 = FN(axis_gap_w)(V_LOAD(lz + k), V_LOAD(uz + k),
                                           gl2, gu2, periodic, vbox);
                    keep = V_BITS(V_LE((d0 * d0 + d1 * d1) + d2 * d2, vrc2));
                }
                int accept = keep & V_BITS(V_GT(gap, zero)) &
                             V_BITS(V_LT(two * half, vtheta * gap));
                if (use_rcut && accept) {
                    vd d0 = FN(axis_gap_w)(px, px, gl0, gu0, periodic, vbox);
                    vd d1 = FN(axis_gap_w)(py, py, gl1, gu1, periodic, vbox);
                    vd d2 = FN(axis_gap_w)(pz, pz, gl2, gu2, periodic, vbox);
                    near = V_BITS(V_LE((d0 * d0 + d1 * d1) + d2 * d2, vrc2));
                }
                int64_t n = first + cnt - k < LANES ? first + cnt - k : LANES;
                for (int l = 0; l < n; ++l) {
                    int64_t nd = k + l;
                    if ((accept >> l) & 1) {
                        if (!((near >> l) & 1))
                            continue; /* its com is out of range */
                        if (nn_count < node_cap)
                            node_idx[nn_count] = nd;
                        nn_count++;
                    } else if (!((keep >> l) & 1)) {
                        continue;
                    } else if (node_is_leaf[nd]) {
                        int64_t lo = node_lo[nd], m = node_hi[nd] - lo;
                        if (np_count + m <= part_cap)
                            for (int64_t p = 0; p < m; ++p)
                                part_idx[np_count + p] = lo + p;
                        np_count += m;
                    } else {
                        queue[tail++] = (int32_t)nd;
                    }
                }
            }
            if (head == tail)
                break;
            /* open the next node: its children must be one id run */
            const int64_t *kids = node_children + 8 * (int64_t)queue[head++];
            int broken = 0;
            cnt = 0;
            for (int c = 0; c < 8; ++c) {
                int has = kids[c] >= 0;
                first = has & (cnt == 0) ? kids[c] : first;
                broken |= has & (kids[c] != first + cnt);
                cnt += has;
            }
            if (broken)
                return -2;
        }
        part_ptr[gi + 1] = np_count;
        node_ptr[gi + 1] = nn_count;
    }
    counts_out[0] = visited;
    counts_out[1] = np_count;
    counts_out[2] = nn_count;
    if (np_count > part_cap || nn_count > node_cap)
        return -1;
    return 0;
}

#include "_lanes.h"

#else
/* ---- the translation unit ------------------------------------------------ */

#define TRAVERSE_PARAMS                                                      \
    const int64_t *groups,        /* (n_groups,) node ids */                 \
    int64_t n_groups,                                                        \
    const double *node_soa,       /* com, half, bmin, bmax: 10 rows */       \
    int64_t soa_stride,           /* >= n_nodes + 3 */                       \
    const double *node_center,    /* (n_nodes, 3) */                         \
    const int64_t *node_lo,                                                  \
    const int64_t *node_hi,                                                  \
    const uint8_t *node_is_leaf,                                             \
    const int64_t *node_children, /* (n_nodes, 8) */                         \
    double theta,                                                            \
    int periodic,                                                            \
    double box,                                                              \
    int use_rcut,                                                            \
    double rcut,                                                             \
    int64_t part_cap,                                                        \
    int64_t node_cap,                                                        \
    int64_t *part_ptr,            /* (n_groups + 1,) */                      \
    int64_t *part_idx,            /* (part_cap,) */                          \
    int64_t *node_ptr,            /* (n_groups + 1,) */                      \
    int64_t *node_idx,            /* (node_cap,) */                          \
    int32_t *queue,               /* scratch, length >= n_nodes */           \
    int64_t *counts_out           /* [visited, part_needed, node_needed] */
#define TRAVERSE_ARGS                                                        \
    groups, n_groups, node_soa, soa_stride, node_center, node_lo, node_hi,   \
    node_is_leaf, node_children, theta, periodic, box, use_rcut, rcut,       \
    part_cap, node_cap, part_ptr, part_idx, node_ptr, node_idx, queue,       \
    counts_out

/* plan_traverse_w1 (exported, so the two widths can be compared on
 * any host) and _w4, `dispatched` (the one plan_traverse runs) and
 * plan_traverse_lanes() */
#define LANES_SELF "_traverse.c"
#define LANES_KERNEL plan_traverse_w
#define LANES_EXPORT plan_traverse_lanes
#include "_lanes.h"

int64_t plan_traverse(TRAVERSE_PARAMS)
{
    return dispatched(TRAVERSE_ARGS);
}

#endif /* LANES */
