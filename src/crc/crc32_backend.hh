/**
 * @file
 * Runtime-dispatched hardware backends for the bulk CRC append path.
 *
 * The repo-wide CRC convention (crc32.hh) is the paper's *non-
 * reflected* CRC-32: F(M) = M(x) * x^32 mod G, G = 0x04C11DB7, zero
 * init, no final XOR, MSB-first bit order. That rules the x86 `crc32`
 * instruction out entirely - it hardwires the *reflected* Castagnoli
 * polynomial and no pre/post bit-shuffle can map it onto a different
 * generator. The hardware paths that *can* produce our F bit-exactly:
 *
 *  - x86: PCLMULQDQ folding. 16-byte blocks are carry-less-multiplied
 *    against x^192 mod G and x^128 mod G (derived at runtime from
 *    gf2PowXMod - no magic constants) and XOR-folded, exactly the
 *    Intel "CRC computation using PCLMULQDQ" scheme instantiated for
 *    our non-reflected generator.
 *  - ARMv8: the `crc32x` instruction implements the *reflection* of
 *    our generator (0xEDB88320 = rev32(0x04C11DB7)), so the standard
 *    reflection isomorphism applies: rev the state and the data bits,
 *    run the reflected engine, rev the result back.
 *
 * Both are validated against crc32Reference / the slice-by-8 portable
 * path by property tests for every byte length; the dispatcher
 * picks the fastest available engine once per process (thread-safe
 * magic static, the same pattern as CrcTables::instance()).
 * crc32AppendWith() pins a single engine for tests and benchmarks.
 */

#ifndef REGPU_CRC_CRC32_BACKEND_HH
#define REGPU_CRC_CRC32_BACKEND_HH

#include <cstddef>

#include "common/types.hh"

namespace regpu
{

/** The bulk-append engines the dispatcher can select. */
enum class CrcBackend : u8
{
    Portable, //!< slice-by-8 LUT path (CrcTables), always available
    Clmul,    //!< x86 PCLMULQDQ 128-bit folding
    ArmCrc,   //!< ARMv8 CRC32 extension via the reflection isomorphism
};

/** Human-readable backend name ("portable", "clmul", "arm"). */
const char *crcBackendName(CrcBackend backend);

/** Whether @p backend is usable on this machine (compiled in AND the
 *  CPU advertises the ISA). Portable is always true. */
bool crcBackendAvailable(CrcBackend backend);

/** The backend the dispatcher resolved for this process: the fastest
 *  available one. */
CrcBackend crcActiveBackend();

/**
 * Append @p n message bytes to a running CRC on a *specific* backend
 * (tests and micro_crc pin each engine individually; production code
 * calls crc32AppendBulk from crc32.hh instead). Requesting an
 * unavailable backend is a fatal error.
 */
u32 crc32AppendWith(CrcBackend backend, u32 crc, const u8 *data,
                    std::size_t n);

} // namespace regpu

#endif // REGPU_CRC_CRC32_BACKEND_HH
