#include "crc/crc32.hh"

#include "common/logging.hh"

namespace regpu
{

u32
gf2MulMod(u32 a, u32 b)
{
    // Carry-less multiply-accumulate with modular reduction folded in:
    // process b MSB-first; at each step acc = acc*x mod G, and add a
    // when the current bit of b is set.
    u32 acc = 0;
    for (int i = 31; i >= 0; i--) {
        u32 top = acc & 0x80000000u;
        acc <<= 1;
        if (top)
            acc ^= crcPolynomial;
        if (b & (1u << i))
            acc ^= a;
    }
    return acc;
}

u32
gf2PowXMod(u64 n)
{
    // Square-and-multiply on the exponent of x.
    u32 result = 1u; // x^0, the polynomial "1"
    u32 base = 2u;   // x^1
    while (n > 0) {
        if (n & 1)
            result = gf2MulMod(result, base);
        base = gf2MulMod(base, base);
        n >>= 1;
    }
    return result;
}

u32
crc32Reference(std::span<const u8> message)
{
    // F(M) = M * x^32 mod G: shift each message bit in MSB-first, then
    // the x^32 factor is realised by the standard "inject at bit 31"
    // formulation.
    u32 crc = 0;
    for (u8 byte : message) {
        crc ^= static_cast<u32>(byte) << 24;
        for (int bit = 0; bit < 8; bit++) {
            if (crc & 0x80000000u)
                crc = (crc << 1) ^ crcPolynomial;
            else
                crc <<= 1;
        }
    }
    return crc;
}

u32
crc32ReferenceBlock64(u64 block)
{
    u8 bytes[8];
    for (int i = 0; i < 8; i++)
        bytes[i] = static_cast<u8>(block >> (8 * (7 - i)));
    return crc32Reference({bytes, 8});
}

CrcTables::CrcTables()
{
    // signLut[i][b]: byte b contributes b(x) * x^(8*(7-i)) to the 64-bit
    // block polynomial; the whole block is then multiplied by x^32.
    for (int i = 0; i < 8; i++) {
        u32 positionFactor = gf2PowXMod(8ull * (7 - i) + 32);
        for (u32 b = 0; b < 256; b++)
            signLut[i][b] = gf2MulMod(b, positionFactor);
    }
    // shiftLut[i][b]: byte b of a 32-bit residue contributes
    // b(x) * x^(8*(3-i)); the residue is then multiplied by x^64.
    for (int i = 0; i < 4; i++) {
        u32 positionFactor = gf2PowXMod(8ull * (3 - i) + 64);
        for (u32 b = 0; b < 256; b++)
            shiftLut[i][b] = gf2MulMod(b, positionFactor);
    }
}

const CrcTables &
CrcTables::instance()
{
    static CrcTables tables;
    return tables;
}

u32
crc32Tabular(std::span<const u8> message)
{
    Crc32Stream stream;
    stream.update(message);
    return stream.value();
}

u32
crc32Combine(u32 crcA, u32 crcB, u64 bytesOfB)
{
    return CrcTables::instance().shiftBytes(crcA, bytesOfB) ^ crcB;
}

} // namespace regpu
