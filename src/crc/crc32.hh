/**
 * @file
 * CRC-32 polynomial arithmetic over GF(2).
 *
 * Convention used throughout the Rendering Elimination signature path:
 *
 *     F(M) = M(x) * x^32 mod G(x)
 *
 * with the non-reflected CRC-32 generator G = 0x04C11DB7, zero initial
 * value and no final XOR. Under this convention concatenation obeys
 *
 *     F(A || B) = F(A) * x^(8*|B|)  xor  F(B)      (paper Algorithm 1)
 *
 * with |B| in bytes, so a message can be signed incrementally from
 * sub-messages of a priori unknown count, which is exactly what the
 * Signature Unit requires: the primitives overlapping a tile only
 * become known as the Polygon List Builder sorts the frame's geometry.
 *
 * Every function here is length-exact: F of a 3-byte message is the
 * CRC of those 3 bytes, not of the message zero-padded to a 64-bit
 * boundary. (An earlier revision padded the tail, which made messages
 * differing only in trailing zero bytes alias; the contract now is
 * bitwise equality with crc32Reference for every byte length.)
 *
 * Multiplication by x^k is implemented with small per-byte LUTs,
 * mirroring the parallel table-based hardware of Sun & Kim that the
 * paper adopts (Figs. 10 and 11); the sub-64-bit tail factors reuse
 * the same sign LUTs one byte at a time.
 */

#ifndef REGPU_CRC_CRC32_HH
#define REGPU_CRC_CRC32_HH

#include <array>
#include <cstddef>
#include <cstring>
#include <span>

#include "common/types.hh"

namespace regpu
{

/** The CRC-32 generator polynomial (x^32 implied leading term). */
constexpr u32 crcPolynomial = 0x04C11DB7u;

/**
 * Append a 32-bit value to any byte stream (anything with
 * update(span<const u8>)) in little-endian order - the layout every
 * serializer in the pipeline uses. Single definition shared by
 * Crc32Stream and HashStream so their wire formats cannot diverge.
 */
template <typename Stream>
inline void
streamPutU32(Stream &stream, u32 v)
{
    u8 b[4] = {static_cast<u8>(v), static_cast<u8>(v >> 8),
               static_cast<u8>(v >> 16), static_cast<u8>(v >> 24)};
    stream.update({b, 4});
}

/** Append a float's exact bit pattern (little-endian). */
template <typename Stream>
inline void
streamPutF32(Stream &stream, float f)
{
    u32 bits;
    std::memcpy(&bits, &f, 4);
    streamPutU32(stream, bits);
}

/**
 * Multiply two polynomials modulo G (carry-less multiply + reduce).
 * Operands are degree-<32 polynomials represented MSB-first.
 */
u32 gf2MulMod(u32 a, u32 b);

/**
 * Compute x^n mod G by square-and-multiply. Used to build shift LUTs
 * and by tests as an independent reference for the shift units.
 */
u32 gf2PowXMod(u64 n);

/**
 * Bitwise (slow, obviously-correct) reference implementation of
 * F(M) = M * x^32 mod G for an arbitrary byte message.
 */
u32 crc32Reference(std::span<const u8> message);

/** Bitwise reference for a 64-bit block (big-endian byte order). */
u32 crc32ReferenceBlock64(u64 block);

/**
 * Shared, lazily-built LUT set for the table-based units.
 *
 * signLut[i][b]  = F(b placed as byte i of an 8-byte message)
 *                = b(x) * x^(8*(7-i)) * x^32 mod G
 * shiftLut[i][b] = (b placed as byte i of a 32-bit CRC) * x^64 mod G
 *                = b(x) * x^(8*(3-i)) * x^64 mod G
 *
 * Eight 1 KB sign LUTs and four 1 KB shift LUTs: the storage the paper
 * budgets in Section III-G.
 */
class CrcTables
{
  public:
    /** Access the process-wide table set (built on first use). */
    static const CrcTables &instance();

    std::array<std::array<u32, 256>, 8> signLut{};
    std::array<std::array<u32, 256>, 4> shiftLut{};

    /**
     * F of one 64-bit block: eight parallel LUT reads XOR-combined
     * (the Sign subunit, Fig. 10).
     */
    u32
    signBlock64(u64 block) const
    {
        u32 crc = 0;
        for (int i = 0; i < 8; i++) {
            u8 byte = static_cast<u8>(block >> (8 * (7 - i)));
            crc ^= signLut[i][byte];
        }
        return crc;
    }

    /**
     * Slice-by-8 fast path: one step of appending a full 64-bit block
     * to a running CRC. Because the sign LUTs are linear over XOR and
     * crc * x^64 equals F(crc placed in the block's leading 4 bytes),
     *
     *     shift64(crc) ^ signBlock64(block)
     *         == signBlock64(block ^ (crc << 32))
     *
     * which folds the running CRC into the sign lookups for free:
     * 8 LUT reads per 8 bytes instead of 12.
     */
    u32
    appendBlock64(u32 crc, u64 block) const
    {
        return signBlock64(block ^ (static_cast<u64>(crc) << 32));
    }

    /**
     * Append one byte to a running CRC (the standard MSB-first
     * table-driven step): crc * x^8 ^ b * x^32, both factors served by
     * signLut[7] (whose entries are exactly t(x) * x^32 mod G).
     */
    u32
    appendByte(u32 crc, u8 byte) const
    {
        return (crc << 8)
            ^ signLut[7][static_cast<u8>((crc >> 24) ^ byte)];
    }

    /**
     * crc * x^64 mod G: four parallel LUT reads XOR-combined
     * (the Shift subunit, Fig. 11).
     */
    u32
    shift64(u32 crc) const
    {
        u32 out = 0;
        for (int i = 0; i < 4; i++) {
            u8 byte = static_cast<u8>(crc >> (8 * (3 - i)));
            out ^= shiftLut[i][byte];
        }
        return out;
    }

    /**
     * crc * x^(8*bytes) mod G for an arbitrary byte count: whole
     * 64-bit shifts through the Shift subunit, then per-byte position
     * factors for the sub-block tail (appendByte with a zero byte is
     * exactly multiplication by x^8).
     */
    u32
    shiftBytes(u32 crc, u64 bytes) const
    {
        for (u64 k = 0; k < bytes / 8; k++)
            crc = shift64(crc);
        for (u64 k = 0; k < bytes % 8; k++)
            crc = appendByte(crc, 0);
        return crc;
    }

    /** Total LUT storage in bytes (area accounting). */
    static constexpr u64
    storageBytes()
    {
        return (8 + 4) * 256 * sizeof(u32);
    }

  private:
    CrcTables();
};

/**
 * Append @p n message bytes to a running CRC through the fastest
 * hashing engine available on this machine: PCLMULQDQ folding on x86,
 * the CRC32 extension on ARMv8, the slice-by-8 tables everywhere else
 * (runtime-dispatched once per process - see crc32_backend.hh).
 * Bit-identical to the portable path for every byte length and every
 * seed; Crc32Stream routes large update() calls here.
 */
u32 crc32AppendBulk(u32 crc, const u8 *data, std::size_t n);

/**
 * Incremental CRC-32 over a byte stream: init / update / value, no
 * heap allocation, no internal buffering. Any segmentation of the
 * message into update() calls yields the same CRC as one shot, and
 * the result is bitwise equal to crc32Reference for every length.
 *
 * Full 64-bit groups go through the slice-by-8 fast path (8 LUT reads
 * per 8 bytes); sub-block tails fall back to the byte-serial step.
 */
class Crc32Stream
{
  public:
    Crc32Stream() : tables(CrcTables::instance()) {}

    void
    reset()
    {
        crc_ = 0;
        length_ = 0;
    }

    /** Messages at least this long go through the runtime-dispatched
     *  hardware bulk path; shorter ones stay on the inline LUT steps
     *  (the Signature Unit's putU32-sized appends would only pay the
     *  dispatch call for no folding benefit). */
    static constexpr std::size_t bulkDispatchBytes = 64;

    /** Append @p bytes to the message. */
    void
    update(std::span<const u8> bytes)
    {
        const u8 *p = bytes.data();
        std::size_t n = bytes.size();
        length_ += n;
        if (n >= bulkDispatchBytes) {
            crc_ = crc32AppendBulk(crc_, p, n);
            return;
        }
        while (n >= 8) {
            u64 block = 0;
            for (int i = 0; i < 8; i++)
                block = (block << 8) | p[i];
            crc_ = tables.appendBlock64(crc_, block);
            p += 8;
            n -= 8;
        }
        while (n > 0) {
            crc_ = tables.appendByte(crc_, *p++);
            n--;
        }
    }

    /** Append a 32-bit value, little-endian byte order. */
    void putU32(u32 v) { streamPutU32(*this, v); }

    /** Append a float's exact bit pattern. */
    void putF32(float f) { streamPutF32(*this, f); }

    /** The CRC of everything streamed so far (== crc32Reference). */
    u32 value() const { return crc_; }

    /** Message length streamed so far, in bytes. */
    u64 lengthBytes() const { return length_; }

  private:
    const CrcTables &tables;
    u32 crc_ = 0;
    u64 length_ = 0;
};

/**
 * One-shot F over an arbitrary-length byte message using the
 * table-based units. Length-exact: equals crc32Reference for every
 * byte length (no tail padding).
 */
u32 crc32Tabular(std::span<const u8> message);

/**
 * Combine per Algorithm 1: signature of (A || B) given F(A), F(B) and
 * |B| in **bytes** (byte-exact; B need not be 64-bit aligned).
 */
u32 crc32Combine(u32 crcA, u32 crcB, u64 bytesOfB);

} // namespace regpu

#endif // REGPU_CRC_CRC32_HH
