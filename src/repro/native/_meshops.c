/* Native PM mesh kernels: scatter (mass assignment), gather
 * (interpolation), gradient-gather (four-/two-point differences of the
 * potential taken at the gather) and the slab-conversion block loops.
 *
 * Python computes the per-axis stencil indices and weights (identical
 * in both paths), so these kernels replace only the hot accumulation
 * loops.  Bitwise contract with repro.mesh.assignment:
 *
 *   - scatter keeps the reference loop nesting — stencil offsets
 *     (a, b, c) outer, particles inner — because np.add.at accumulates
 *     strictly sequentially in index order, one offset at a time;
 *   - gather runs particle-outer, which leaves each output element's
 *     accumulation sequence (the (a, b, c) order) unchanged;
 *   - the per-deposit value is ((mass * (wx * wy)) * wz), matching the
 *     numpy expression tree exactly, with -ffp-contract=off;
 *   - gradient-gather is gather applied to a force block it never
 *     stores: at each stencil cell it forms, per axis,
 *     (8.0 * (p1 - m1) - (p2 - m2)) / den   (four-point) or
 *     (p1 - m1) / den                       (two-point)
 *     from the +-1/+-2 neighbours of phi — the expression tree of
 *     repro.mesh.differentiate.gradient_block, each operation rounded on
 *     its own — and accumulates w * g with w = (wx * wy) * wz in the
 *     same (a, b, c) order.  den (12.0 * h resp. 2.0 * h) is computed
 *     by the caller so the divisor is the very double numpy divides
 *     by; the sign flip to a force stays with the caller, after the
 *     gather, where the solvers have always applied it.
 *
 * And with repro.meshcomm.convert:
 *
 *   - block-add walks the incoming block in C order, which is the
 *     order np.add.at visits a broadcast (x, y, z) index triple, so
 *     cells hit more than once (wrapped ghost planes alias interior
 *     ones when a region exceeds the mesh) receive their addends in the
 *     same sequence;
 *   - block-take is a pure copy.
 *
 * Indices arrive already folded into range by the caller (periodic mod
 * for the global mesh, validated local offsets for the ghosted one,
 * range-checked wrapped indices for the slab conversions).
 */

#include <stdint.h>

void mesh_scatter(
    int64_t n,            /* particles */
    int64_t s,            /* stencil size per axis (1 / 2 / 3) */
    const int64_t *ix,    /* (n, s) first-axis indices, in [0, d0) */
    const int64_t *iy,    /* (n, s) */
    const int64_t *iz,    /* (n, s) */
    const double *wx,     /* (n, s) weights */
    const double *wy,
    const double *wz,
    const double *mass,   /* (n,) */
    int64_t d1,           /* mesh dims (d0 is implicit) */
    int64_t d2,
    double *out)          /* (d0, d1, d2), accumulated into */
{
    for (int64_t a = 0; a < s; ++a) {
        for (int64_t b = 0; b < s; ++b) {
            for (int64_t c = 0; c < s; ++c) {
                for (int64_t i = 0; i < n; ++i) {
                    int64_t cell =
                        (ix[i * s + a] * d1 + iy[i * s + b]) * d2
                        + iz[i * s + c];
                    out[cell] +=
                        (mass[i] * (wx[i * s + a] * wy[i * s + b]))
                        * wz[i * s + c];
                }
            }
        }
    }
}

void mesh_gather(
    int64_t n,
    int64_t s,
    const int64_t *ix,
    const int64_t *iy,
    const int64_t *iz,
    const double *wx,
    const double *wy,
    const double *wz,
    int64_t d1,
    int64_t d2,
    int64_t ncomp,        /* trailing components per mesh cell */
    const double *mesh,   /* (d0, d1, d2, ncomp) */
    double *out)          /* (n, ncomp), zero-initialized by caller */
{
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t a = 0; a < s; ++a) {
            for (int64_t b = 0; b < s; ++b) {
                double wab = wx[i * s + a] * wy[i * s + b];
                for (int64_t c = 0; c < s; ++c) {
                    double w = wab * wz[i * s + c];
                    int64_t cell =
                        (ix[i * s + a] * d1 + iy[i * s + b]) * d2
                        + iz[i * s + c];
                    const double *src = mesh + cell * ncomp;
                    double *dst = out + i * ncomp;
                    for (int64_t k = 0; k < ncomp; ++k)
                        dst[k] += w * src[k];
                }
            }
        }
    }
}


void mesh_gather_gradient(
    int64_t n,
    int64_t s,
    const int64_t *ix,    /* (n, s) indices into the trimmed block */
    const int64_t *iy,
    const int64_t *iz,
    const double *wx,
    const double *wy,
    const double *wz,
    int64_t d1,           /* dims of phi (untrimmed; d0 is implicit) */
    int64_t d2,
    int64_t trim,         /* cells cut from every face of phi */
    int64_t four_point,   /* 0 = two-point differences */
    double den,           /* 12.0 * h (four-point) or 2.0 * h */
    const double *phi,    /* (d0, d1, d2) */
    double *out)          /* (n, 3), zero-initialized by caller */
{
    const int64_t stride[3] = {d1 * d2, d2, 1};
    for (int64_t i = 0; i < n; ++i) {
        double *dst = out + i * 3;
        for (int64_t a = 0; a < s; ++a) {
            for (int64_t b = 0; b < s; ++b) {
                double wab = wx[i * s + a] * wy[i * s + b];
                for (int64_t c = 0; c < s; ++c) {
                    double w = wab * wz[i * s + c];
                    const double *p = phi
                        + ((ix[i * s + a] + trim) * d1
                           + (iy[i * s + b] + trim)) * d2
                        + (iz[i * s + c] + trim);
                    for (int k = 0; k < 3; ++k) {
                        int64_t st = stride[k];
                        double d = p[st] - p[-st];
                        if (four_point)
                            d = 8.0 * d - (p[2 * st] - p[-2 * st]);
                        dst[k] += w * (d / den);
                    }
                }
            }
        }
    }
}

void mesh_block_add(
    int64_t nx,           /* block dims */
    int64_t ny,
    int64_t nz,
    int64_t x0,           /* first slab plane the block lands on */
    const int64_t *y_idx, /* (ny,) slab indices, duplicates allowed */
    const int64_t *z_idx, /* (nz,) */
    int64_t d1,           /* slab dims (d0 is implicit) */
    int64_t d2,
    double *slab,         /* (d0, d1, d2), accumulated into */
    const double *block)  /* (nx, ny, nz) */
{
    for (int64_t a = 0; a < nx; ++a) {
        for (int64_t b = 0; b < ny; ++b) {
            double *row = slab + ((x0 + a) * d1 + y_idx[b]) * d2;
            const double *src = block + (a * ny + b) * nz;
            for (int64_t c = 0; c < nz; ++c)
                row[z_idx[c]] += src[c];
        }
    }
}

void mesh_block_take(
    int64_t nx,
    int64_t ny,
    int64_t nz,
    int64_t x0,
    const int64_t *y_idx,
    const int64_t *z_idx,
    int64_t d1,
    int64_t d2,
    const double *slab,   /* (d0, d1, d2) */
    double *block)        /* (nx, ny, nz), overwritten */
{
    for (int64_t a = 0; a < nx; ++a) {
        for (int64_t b = 0; b < ny; ++b) {
            const double *row = slab + ((x0 + a) * d1 + y_idx[b]) * d2;
            double *dst = block + (a * ny + b) * nz;
            for (int64_t c = 0; c < nz; ++c)
                dst[c] = row[z_idx[c]];
        }
    }
}
