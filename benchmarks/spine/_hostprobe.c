/* Host roofline microkernels, built through repro.native.build.load_library.
 *
 * fma_chains: LANES independent multiply-add chains.  With FMA contraction
 * on and the host ISA enabled the compiler keeps them in vector registers,
 * so the loop runs at the floating-point issue limit of one core.
 * triad:      a[i] = b[i] + s * c[i] over arrays the caller sizes well
 * beyond the last-level cache (the STREAM triad).
 */
#include <stdint.h>

#define LANES 48

double fma_chains(int64_t iters, double x, double y)
{
    double acc[LANES];
    for (int k = 0; k < LANES; k++) acc[k] = 1.0 + 1e-3 * k;
    for (int64_t i = 0; i < iters; i++)
        for (int k = 0; k < LANES; k++) acc[k] = acc[k] * x + y;
    double sum = 0.0;
    for (int k = 0; k < LANES; k++) sum += acc[k];
    return sum;
}

int64_t fma_lanes(void) { return LANES; }

void triad(int64_t n, double *a, const double *b, const double *c, double s)
{
    for (int64_t i = 0; i < n; i++) a[i] = b[i] + s * c[i];
}
