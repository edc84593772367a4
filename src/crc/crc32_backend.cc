#include "crc/crc32_backend.hh"

#include <cstring>

#include "common/logging.hh"
#include "crc/crc32.hh"

#if defined(REGPU_HAVE_CLMUL)
#include <immintrin.h>
#endif
#if defined(REGPU_HAVE_ARM_CRC)
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#endif

namespace regpu
{

namespace
{

/** Portable bulk append: the same slice-by-8 + byte-tail stepping as
 *  Crc32Stream's inline small-message path, shared by every hardware
 *  backend for sub-block tails and final reduction. */
u32
appendPortable(u32 crc, const u8 *p, std::size_t n)
{
    const CrcTables &tables = CrcTables::instance();
    while (n >= 8) {
        u64 block = 0;
        for (int i = 0; i < 8; i++)
            block = (block << 8) | p[i];
        crc = tables.appendBlock64(crc, block);
        p += 8;
        n -= 8;
    }
    while (n > 0) {
        crc = tables.appendByte(crc, *p++);
        n--;
    }
    return crc;
}

#if defined(REGPU_HAVE_CLMUL)

/**
 * PCLMULQDQ 128-bit folding for the non-reflected generator.
 *
 * State register S holds a polynomial with bit i = coefficient of x^i;
 * blocks are loaded with a full 16-byte reversal (PSHUFB) so the first
 * message byte's MSB lands at bit 127 = x^127, matching the MSB-first
 * message polynomial. The invariant after each fold is
 *
 *     S == (bytes consumed so far)(x)  mod G
 *
 * maintained by S' = S_hi*(x^192 mod G) ^ S_lo*(x^128 mod G) ^ D,
 * since S*x^128 = S_hi*x^192 + S_lo*x^128. The incoming running CRC
 * (which is prefix*x^32 mod G) is folded into the first block as
 * crc*x^96: after k blocks it has accumulated the factor x^(128k-32),
 * so the final *x^32 reduction turns it into crc*x^(8*16k) - exactly
 * the Algorithm-1 shift for the consumed byte count. The reduction
 * S*x^32 mod G itself is 16 bytes through the table engine, as is the
 * sub-block tail.
 */
__attribute__((target("pclmul,sse4.1"))) u32
appendClmul(u32 crc, const u8 *p, std::size_t n)
{
    if (n < 16)
        return appendPortable(crc, p, n);

    // Fold constants, derived (not hardcoded) from the generator.
    static const u32 k1 = gf2PowXMod(192);
    static const u32 k2 = gf2PowXMod(128);
    const __m128i fold = _mm_set_epi64x(static_cast<i64>(k2),
                                        static_cast<i64>(k1));
    const __m128i byteReverse =
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                     15);

    __m128i s = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)),
        byteReverse);
    s = _mm_xor_si128(s, _mm_set_epi32(static_cast<int>(crc), 0, 0, 0));
    p += 16;
    n -= 16;

    while (n >= 16) {
        const __m128i d = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)),
            byteReverse);
        const __m128i hi = _mm_clmulepi64_si128(s, fold, 0x01); // S_hi*k1
        const __m128i lo = _mm_clmulepi64_si128(s, fold, 0x10); // S_lo*k2
        s = _mm_xor_si128(_mm_xor_si128(hi, lo), d);
        p += 16;
        n -= 16;
    }

    u8 residue[16];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(residue),
                     _mm_shuffle_epi8(s, byteReverse));
    return appendPortable(appendPortable(0, residue, 16), p, n);
}

bool
clmulSupported()
{
    return __builtin_cpu_supports("pclmul")
        && __builtin_cpu_supports("sse4.1");
}

#endif // REGPU_HAVE_CLMUL

#if defined(REGPU_HAVE_ARM_CRC)

/**
 * ARMv8 CRC32 extension via the reflection isomorphism: crc32x/crc32b
 * implement the reflected engine for rev32(G) = 0xEDB88320, and
 *
 *     rev32(F_nonrefl(crc, bytes))
 *         == F_refl(rev32(crc), rev8-each-byte(bytes))
 *
 * with the reflected engine consuming its 64-bit operand LSByte-first
 * (message order preserved). From a little-endian load, per-byte bit
 * reversal without reordering is rbit64(bswap64(x)).
 */
__attribute__((target("+crc"))) u32
appendArm(u32 crc, const u8 *p, std::size_t n)
{
    u32 state = __rbit(crc);
    while (n >= 8) {
        u64 x;
        std::memcpy(&x, p, 8);
        state = __crc32d(state, __rbitll(__builtin_bswap64(x)));
        p += 8;
        n -= 8;
    }
    while (n > 0) {
        state = __crc32b(state,
                         static_cast<u8>(__rbit(static_cast<u32>(*p))
                                         >> 24));
        p++;
        n--;
    }
    return __rbit(state);
}

bool
armCrcSupported()
{
#if defined(__linux__) && defined(HWCAP_CRC32)
    return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#elif defined(__ARM_FEATURE_CRC32)
    return true;
#else
    return false;
#endif
}

#endif // REGPU_HAVE_ARM_CRC

CrcBackend
resolveBackend()
{
#if defined(REGPU_HAVE_CLMUL)
    if (clmulSupported())
        return CrcBackend::Clmul;
#endif
#if defined(REGPU_HAVE_ARM_CRC)
    if (armCrcSupported())
        return CrcBackend::ArmCrc;
#endif
    return CrcBackend::Portable;
}

} // namespace

const char *
crcBackendName(CrcBackend backend)
{
    switch (backend) {
      case CrcBackend::Portable:
        return "portable";
      case CrcBackend::Clmul:
        return "clmul";
      case CrcBackend::ArmCrc:
        return "arm";
    }
    return "?";
}

bool
crcBackendAvailable(CrcBackend backend)
{
    switch (backend) {
      case CrcBackend::Portable:
        return true;
      case CrcBackend::Clmul:
#if defined(REGPU_HAVE_CLMUL)
        return clmulSupported();
#else
        return false;
#endif
      case CrcBackend::ArmCrc:
#if defined(REGPU_HAVE_ARM_CRC)
        return armCrcSupported();
#else
        return false;
#endif
    }
    return false;
}

CrcBackend
crcActiveBackend()
{
    // Resolved exactly once per process; thread-safe magic static,
    // same idiom as CrcTables::instance().
    static const CrcBackend backend = resolveBackend();
    return backend;
}

u32
crc32AppendWith(CrcBackend backend, u32 crc, const u8 *data,
                std::size_t n)
{
    switch (backend) {
      case CrcBackend::Portable:
        return appendPortable(crc, data, n);
      case CrcBackend::Clmul:
#if defined(REGPU_HAVE_CLMUL)
        REGPU_ASSERT(clmulSupported());
        return appendClmul(crc, data, n);
#else
        break;
#endif
      case CrcBackend::ArmCrc:
#if defined(REGPU_HAVE_ARM_CRC)
        REGPU_ASSERT(armCrcSupported());
        return appendArm(crc, data, n);
#else
        break;
#endif
    }
    fatal("CRC backend ", crcBackendName(backend),
          " not available in this build");
}

u32
crc32AppendBulk(u32 crc, const u8 *data, std::size_t n)
{
    return crc32AppendWith(crcActiveBackend(), crc, data, n);
}

} // namespace regpu
