/* Fused copy and CRC-32 of a shared-memory frame.
 *
 * crc32_copy(dst, src, n, crc) returns zlib's crc32(src[0:n], crc) (the
 * reflected IEEE 802.3 polynomial, pre- and post-inverted) and copies
 * src to dst in the same pass unless dst is NULL.  The bulk is folded
 * with carry-less multiplies (Gopal et al., Intel 2009): four 128-bit
 * accumulators advanced 64 bytes at a time by x^(512+-32) mod P, merged
 * and advanced 16 bytes at a time by x^(128+-32) mod P.  What is left
 * is 16 message bytes behind a zero CRC state, so the byte table
 * finishes it and the tail; the table alone runs without PCLMULQDQ.
 */

#include <stdint.h>

static uint32_t table[256];

static uint32_t bytes(uint8_t *dst, const uint8_t *src, int64_t n, uint32_t c)
{
    for (int64_t i = 0; i < n; ++i) {
        if (dst) dst[i] = src[i];
        c = table[(c ^ src[i]) & 0xff] ^ (c >> 8);
    }
    return c;
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HAVE_FOLD 1

static int use_fold;

static inline __m128i take(uint8_t *dst, const uint8_t *src, int64_t i)
{
    __m128i v = _mm_loadu_si128((const __m128i *)(src + i));
    if (dst) _mm_storeu_si128((__m128i *)(dst + i), v);
    return v;
}

#define FOLD(x, k, y) _mm_xor_si128(_mm_xor_si128(y, \
    _mm_clmulepi64_si128(x, k, 0x00)), _mm_clmulepi64_si128(x, k, 0x11))

__attribute__((target("pclmul")))  /* n >= 64 */
static uint32_t fold(uint8_t *dst, const uint8_t *src, int64_t n, uint32_t c)
{
    const __m128i k512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    __m128i a = _mm_xor_si128(take(dst, src, 0), _mm_cvtsi32_si128((int)c));
    __m128i b = take(dst, src, 16), d = take(dst, src, 32), e = take(dst, src, 48);
    int64_t i = 64;
    for (; i + 64 <= n; i += 64) {
        a = FOLD(a, k512, take(dst, src, i));
        b = FOLD(b, k512, take(dst, src, i + 16));
        d = FOLD(d, k512, take(dst, src, i + 32));
        e = FOLD(e, k512, take(dst, src, i + 48));
    }
    a = FOLD(FOLD(FOLD(a, k128, b), k128, d), k128, e);
    for (; i + 16 <= n; i += 16) a = FOLD(a, k128, take(dst, src, i));
    uint8_t rest[16];
    _mm_storeu_si128((__m128i *)rest, a);
    return bytes(dst ? dst + i : 0, src + i, n - i, bytes(0, rest, 16, 0));
}
#endif

__attribute__((constructor)) static void init(void)
{
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & -(c & 1));
        table[i] = c;
    }
#ifdef HAVE_FOLD
    __builtin_cpu_init();
    use_fold = __builtin_cpu_supports("pclmul");
#endif
}

uint32_t crc32_copy(uint8_t *dst, const uint8_t *src, int64_t n, uint32_t crc)
{
#ifdef HAVE_FOLD
    if (use_fold && n >= 64) return ~fold(dst, src, n, ~crc);
#endif
    return ~bytes(dst, src, n, ~crc);
}
