/* Lane macros and load-time width dispatch of the laned kernels.
 *
 * A laned kernel (_plansweep.c, _traverse.c) writes its body once over
 * the V_* macros below and includes itself to instantiate that body at
 * LANES = 1 (plain C, every host) and, on x86-64, at LANES = 4 (256-bit
 * AVX2 vectors, target attribute on those functions only).  The
 * translation unit is compiled for the baseline architecture with
 * -ffp-contract=off, so neither width contracts or reassociates
 * anything, and sqrt, divide and rint are the hardware-rounded
 * instructions in both (_mm256_round_pd in the current rounding mode is
 * rint).  Lane masks are all ones or zero per lane.
 *
 * The kernel file includes this header three times:
 *
 *   - from its translation-unit half (LANES undefined), after defining
 *       LANES_SELF    its own file name, as a string;
 *       LANES_KERNEL  the stem of its laned function: FN(stem) is stem1
 *                     or stem4;
 *       LANES_EXPORT  the exported int(void) that reports the width.
 *     This instantiates the body at both widths and defines
 *     `dispatched`, the instantiation this CPU runs, picked once by a
 *     constructor when the library is loaded, and LANES_EXPORT();
 *   - at the top of its body (LANES defined): defines vd, vm and V_*;
 *   - at the bottom of its body: undefines them for the next width.
 */

#ifndef LANES
/* ---- instantiation and dispatch ----------------------------------------- */

#include <math.h>
#include <stdint.h>

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)
#define FN(name) CAT(name, LANES)

#define LANES 1
#include LANES_SELF
#undef LANES

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LANES 4
#include LANES_SELF
#undef LANES
#define HAVE_W4 1
#endif

static __typeof__(CAT(LANES_KERNEL, 1)) *dispatched = CAT(LANES_KERNEL, 1);
static int dispatched_lanes = 1;

#ifdef HAVE_W4
__attribute__((constructor)) static void pick_lanes(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
        dispatched = CAT(LANES_KERNEL, 4);
        dispatched_lanes = 4;
    }
}
#endif

/* Lane width of the dispatched instantiation (for logs and telemetry). */
int LANES_EXPORT(void)
{
    return dispatched_lanes;
}

#elif !defined(V_ATTR)
/* ---- the lane macros, opened at the top of a body ------------------------ */

#if LANES == 1
typedef double FN(vd_w);
typedef int64_t FN(vm_w);
#define V_ATTR
#define V_SET1(x) (x)
#define V_LOAD(p) ((p)[0])
#define V_STORE(p, v) ((p)[0] = (v))
#define V_LANE(v, l) (v)
#define V_SQRT(x) sqrt(x)
#define V_RINT(x) rint(x)
#define V_MAX(a, b) ((a) > (b) ? (a) : (b))
#define V_MIN(a, b) ((a) < (b) ? (a) : (b))
#define V_NE(a, b) (-(int64_t)((a) != (b)))
#define V_GT(a, b) (-(int64_t)((a) > (b)))
#define V_GE(a, b) (-(int64_t)((a) >= (b)))
#define V_LT(a, b) (-(int64_t)((a) < (b)))
#define V_LE(a, b) (-(int64_t)((a) <= (b)))
#define V_ANY(m) ((m) != 0)
#define V_BITS(m) ((int)((m) & 1)) /* one bit per lane */
#define V_KEEP(m, x) ((m) ? (x) : 0.0)
#else
typedef double FN(vd_w) __attribute__((vector_size(8 * LANES)));
typedef int64_t FN(vm_w) __attribute__((vector_size(8 * LANES)));
#define V_ATTR __attribute__((target("avx2")))
#define V_SET1(x) ((vd)_mm256_set1_pd(x))
#define V_LOAD(p) ((vd)_mm256_loadu_pd(p))
#define V_STORE(p, v) _mm256_storeu_pd(p, (__m256d)(v))
#define V_LANE(v, l) ((v)[l])
#define V_SQRT(x) ((vd)_mm256_sqrt_pd((__m256d)(x)))
#define V_RINT(x) ((vd)_mm256_round_pd((__m256d)(x), _MM_FROUND_CUR_DIRECTION))
/* maxpd/minpd return the second operand unless the first compares
 * greater/less: the one-lane ternaries exactly */
#define V_MAX(a, b) ((vd)_mm256_max_pd((__m256d)(a), (__m256d)(b)))
#define V_MIN(a, b) ((vd)_mm256_min_pd((__m256d)(a), (__m256d)(b)))
#define V_NE(a, b) ((a) != (b))
#define V_GT(a, b) ((a) > (b))
#define V_GE(a, b) ((a) >= (b))
#define V_LT(a, b) ((a) < (b))
#define V_LE(a, b) ((a) <= (b))
#define V_ANY(m) (_mm256_movemask_pd((__m256d)(m)) != 0)
#define V_BITS(m) _mm256_movemask_pd((__m256d)(m))
#define V_KEEP(m, x) ((vd)((vm)(x) & (m)))
#endif
#define vd FN(vd_w)
#define vm FN(vm_w)

#else
/* ---- closed again at the bottom of a body -------------------------------- */

#undef vd
#undef vm
#undef V_ATTR
#undef V_SET1
#undef V_LOAD
#undef V_STORE
#undef V_LANE
#undef V_SQRT
#undef V_RINT
#undef V_MAX
#undef V_MIN
#undef V_NE
#undef V_GT
#undef V_GE
#undef V_LT
#undef V_LE
#undef V_ANY
#undef V_BITS
#undef V_KEEP

#endif
