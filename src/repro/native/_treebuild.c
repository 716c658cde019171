/* Native octree construction: Morton keys, stable radix argsort, the
 * level-synchronous node build, and the Barnes group selection.
 *
 * Bitwise contract with repro.tree.morton / repro.tree.octree:
 *
 *   - Morton keys are pure integer ops on the same scaled doubles
 *     ((pos - origin) / size * 2^bits, truncated, clamped) — exact.
 *   - The argsort is an LSD byte radix sort, which is stable and
 *     therefore produces the identical permutation to numpy's
 *     argsort(kind="stable") on uint64 keys.
 *   - Nodes are appended in the same BFS order as the Python builder
 *     (parents in frontier order, children in octant order, empty
 *     children skipped), with child geometry computed by the same
 *     expressions (center = parent + offset * half / 2), so every node
 *     array matches the Python build bit for bit.
 *
 *   - Node bounding boxes are minima and maxima of particle
 *     coordinates, which are exact in any order, so node_bounds gives
 *     the numpy boxes bit for bit.
 *
 * Node moments stay in numpy (vectorized prefix sums) — both builders
 * produce identical lo/hi slices, so the moments agree by construction.
 */

#include <math.h>
#include <stdint.h>

static uint64_t spread_bits(uint64_t x)
{
    x &= 0x1FFFFFULL;
    x = (x | (x << 32)) & 0x1F00000000FFFFULL;
    x = (x | (x << 16)) & 0x1F0000FF0000FFULL;
    x = (x | (x << 8)) & 0x100F00F00F00F00FULL;
    x = (x | (x << 4)) & 0x10C30C30C30C30C3ULL;
    x = (x | (x << 2)) & 0x1249249249249249ULL;
    return x;
}

/* Compute Morton keys; returns 0, or -1 when any position lies outside
 * [origin, origin+size]^3 (the caller falls back to the numpy path,
 * which raises the proper exception). */
int64_t morton_keys(
    const double *pos,      /* (n, 3) */
    int64_t n,
    const double *origin,   /* (3,) */
    double size,
    int64_t bits,
    uint64_t *keys)         /* (n,) out */
{
    uint64_t n_cells = (uint64_t)1 << bits;
    double max_cell = (double)(n_cells - 1);
    for (int64_t i = 0; i < n; ++i) {
        uint64_t c[3];
        for (int k = 0; k < 3; ++k) {
            double scaled = (pos[3 * i + k] - origin[k]) / size;
            if (!(scaled >= 0.0) || !(scaled <= 1.0))
                return -1; /* outside the cube (or NaN) */
            double cell = scaled * (double)n_cells;
            /* numpy: minimum(uint64(cell), n_cells - 1); the cast
             * truncates toward zero exactly like .astype(np.uint64) */
            if (cell > max_cell)
                cell = max_cell;
            c[k] = (uint64_t)cell;
            if (c[k] > n_cells - 1)
                c[k] = n_cells - 1;
        }
        keys[i] = (spread_bits(c[0]) << 2) | (spread_bits(c[1]) << 1)
                | spread_bits(c[2]);
    }
    return 0;
}

/* Stable LSD radix argsort of uint64 keys.  keys_in is clobbered (it
 * ends up holding the sorted keys, which are also copied to keys_out);
 * the permutation lands in perm_out.  tmp_* are scratch of length n.
 * Stability makes the permutation identical to numpy's
 * argsort(kind="stable"). */
void radix_argsort(
    uint64_t *keys_in,
    int64_t n,
    uint64_t *keys_out,
    int64_t *perm_out,
    uint64_t *tmp_keys,
    int64_t *tmp_perm)
{
    uint64_t *ka = keys_in, *kb = tmp_keys;
    int64_t *pa = perm_out, *pb = tmp_perm;
    for (int64_t i = 0; i < n; ++i)
        pa[i] = i;
    int64_t count[256];
    for (int pass = 0; pass < 8; ++pass) {
        int shift = pass * 8;
        for (int j = 0; j < 256; ++j)
            count[j] = 0;
        for (int64_t i = 0; i < n; ++i)
            count[(ka[i] >> shift) & 0xFF]++;
        int64_t total = 0;
        for (int j = 0; j < 256; ++j) {
            int64_t c = count[j];
            count[j] = total;
            total += c;
        }
        for (int64_t i = 0; i < n; ++i) {
            int64_t dst = count[(ka[i] >> shift) & 0xFF]++;
            kb[dst] = ka[i];
            pb[dst] = pa[i];
        }
        uint64_t *kt = ka; ka = kb; kb = kt;
        int64_t *pt = pa; pa = pb; pb = pt;
    }
    /* eight passes = even number of swaps: the result is back in
     * keys_in / perm_out */
    for (int64_t i = 0; i < n; ++i)
        keys_out[i] = keys_in[i];
}

/* Level-synchronous octree build over sorted keys.
 *
 * Nodes are written in BFS order: node i is processed when reached
 * sequentially (all nodes at shallower depths precede it), children
 * appended at the tail in octant order.  Returns the node count, or
 * -1 when cap is too small (overflow nodes would need storage to keep
 * counting exactly; the caller retries with a larger allocation).
 */
int64_t octree_build(
    const uint64_t *keys,    /* (n,) sorted */
    int64_t n,
    int64_t leaf_size,
    int64_t max_depth,
    const double *root_center, /* (3,) origin + size/2 */
    double root_half,          /* size / 2 */
    int64_t cap,
    double *node_center,     /* (cap, 3) */
    double *node_half,       /* (cap,) */
    int64_t *node_lo,
    int64_t *node_hi,
    int64_t *node_depth,
    uint8_t *node_is_leaf,
    int64_t *node_children)  /* (cap, 8) */
{
    if (cap < 1)
        return -1;
    int64_t count = 1;
    node_center[0] = root_center[0];
    node_center[1] = root_center[1];
    node_center[2] = root_center[2];
    node_half[0] = root_half;
    node_lo[0] = 0;
    node_hi[0] = n;
    node_depth[0] = 0;
    node_is_leaf[0] = 1;
    for (int c = 0; c < 8; ++c)
        node_children[c] = -1;
    for (int64_t i = 0; i < count; ++i) {
        int64_t lo = node_lo[i];
        int64_t hi = node_hi[i];
        int64_t depth = node_depth[i];
        double ph = node_half[i];
        double pc0 = node_center[3 * i];
        double pc1 = node_center[3 * i + 1];
        double pc2 = node_center[3 * i + 2];
        if (hi - lo <= leaf_size || depth >= max_depth)
            continue;
        int shift = (int)(3 * (max_depth - depth - 1));
        uint64_t parent_pref = (keys[lo] >> shift) >> 3;
        /* child boundaries: binary search for each prefix target,
         * identical integers to numpy searchsorted (left) */
        int64_t bounds[9];
        bounds[0] = lo;
        for (int c = 1; c < 9; ++c) {
            uint64_t target = parent_pref * 8 + (uint64_t)c;
            int64_t a = lo, b = hi;
            while (a < b) {
                int64_t mid = a + ((b - a) >> 1);
                if ((keys[mid] >> shift) < target)
                    a = mid + 1;
                else
                    b = mid;
            }
            bounds[c] = a;
        }
        node_is_leaf[i] = 0;
        for (int c = 0; c < 8; ++c) {
            int64_t clo = bounds[c], chi = bounds[c + 1];
            if (chi == clo)
                continue;
            int64_t idx = count++;
            if (idx >= cap)
                return -1;
            double off0 = (c & 4) ? 1.0 : -1.0;
            double off1 = (c & 2) ? 1.0 : -1.0;
            double off2 = (c & 1) ? 1.0 : -1.0;
            node_center[3 * idx] = pc0 + (off0 * ph) / 2.0;
            node_center[3 * idx + 1] = pc1 + (off1 * ph) / 2.0;
            node_center[3 * idx + 2] = pc2 + (off2 * ph) / 2.0;
            node_half[idx] = ph / 2.0;
            node_lo[idx] = clo;
            node_hi[idx] = chi;
            node_depth[idx] = depth + 1;
            node_is_leaf[idx] = 1;
            for (int k = 0; k < 8; ++k)
                node_children[8 * idx + k] = -1;
            node_children[8 * i + c] = idx;
        }
    }
    return count;
}

/* Bounding box of each node's particles.  Nodes are numbered
 * breadth-first, so every child has a larger id than its parent: one
 * pass from the last node to the root fills a leaf from its particles
 * and an internal node from its (already filled) children.  Stored as
 * x + 0.0, so a box never holds -0.0 (numpy's reductions may pick
 * either zero). */
void node_bounds(
    const double *pos,            /* (n, 3) Morton-sorted */
    int64_t n_nodes,
    const int64_t *node_lo,
    const int64_t *node_hi,
    const uint8_t *node_is_leaf,
    const int64_t *node_children, /* (n_nodes, 8) */
    double *bmin,                 /* (n_nodes, 3) out */
    double *bmax)                 /* (n_nodes, 3) out */
{
    /* widen the box (x0..x1, y0..y1, z0..z1) to hold [lo, hi] */
#define WIDEN(lo, hi)                              \
    do {                                           \
        x0 = (lo)[0] < x0 ? (lo)[0] : x0;          \
        y0 = (lo)[1] < y0 ? (lo)[1] : y0;          \
        z0 = (lo)[2] < z0 ? (lo)[2] : z0;          \
        x1 = (hi)[0] > x1 ? (hi)[0] : x1;          \
        y1 = (hi)[1] > y1 ? (hi)[1] : y1;          \
        z1 = (hi)[2] > z1 ? (hi)[2] : z1;          \
    } while (0)
    for (int64_t i = n_nodes - 1; i >= 0; --i) {
        double x0 = INFINITY, y0 = INFINITY, z0 = INFINITY;
        double x1 = -INFINITY, y1 = -INFINITY, z1 = -INFINITY;
        if (node_is_leaf[i]) {
            for (int64_t p = node_lo[i]; p < node_hi[i]; ++p)
                WIDEN(pos + 3 * p, pos + 3 * p);
        } else {
            for (int c = 0; c < 8; ++c) {
                int64_t kid = node_children[8 * i + c];
                if (kid >= 0)
                    WIDEN(bmin + 3 * kid, bmax + 3 * kid);
            }
        }
        bmin[3 * i] = x0 + 0.0;
        bmin[3 * i + 1] = y0 + 0.0;
        bmin[3 * i + 2] = z0 + 0.0;
        bmax[3 * i] = x1 + 0.0;
        bmax[3 * i + 1] = y1 + 0.0;
        bmax[3 * i + 2] = z1 + 0.0;
    }
#undef WIDEN
}

/* Barnes group selection: the shallowest nodes holding at most
 * group_size particles, in the exact emission order of the Python
 * stack walk (pop from the tail, children pushed in octant order).
 * Returns the group count, or -(needed) when cap is too small. */
int64_t group_nodes(
    const int64_t *node_lo,
    const int64_t *node_hi,
    const int64_t *node_children, /* (n_nodes, 8) */
    const uint8_t *node_is_leaf,
    int64_t n_nodes,
    int64_t group_size,
    int64_t cap,
    int64_t *out,
    int64_t *stack) /* scratch, length >= n_nodes + 8 */
{
    int64_t top = 0;
    int64_t count = 0;
    stack[top++] = 0;
    while (top > 0) {
        int64_t i = stack[--top];
        if (node_hi[i] - node_lo[i] <= group_size || node_is_leaf[i]) {
            if (count < cap)
                out[count] = i;
            count++;
        } else {
            for (int c = 0; c < 8; ++c) {
                int64_t k = node_children[8 * i + c];
                if (k >= 0)
                    stack[top++] = k;
            }
        }
    }
    if (count > cap)
        return -count;
    return count;
}
