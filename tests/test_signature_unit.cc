/**
 * @file
 * Signature Unit tests: the incremental per-tile signatures it builds
 * must equal the direct CRC of the paper's §III-E "tile inputs
 * bitstream" (constants once per drawcall per tile, then attribute
 * blocks of every overlapping primitive, in order).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "crc/crc32.hh"
#include "re/signature_unit.hh"

using namespace regpu;

namespace
{

struct SigFixture : ::testing::Test
{
    GpuConfig config;
    std::unique_ptr<SignatureBuffer> buffer;
    std::unique_ptr<SignatureUnit> unit;
    Rng rng{77};

    SigFixture()
    {
        config.scaleResolution(64, 64); // 4x4 = 16 tiles
        buffer = std::make_unique<SignatureBuffer>(config.numTiles(), 2);
        unit = std::make_unique<SignatureUnit>(config, *buffer);
        buffer->rotate();
        unit->frameBegin();
    }

    std::vector<u8>
    randomBlock(std::size_t blocks64)
    {
        return randomBytes(blocks64 * 8);
    }

    std::vector<u8>
    randomBytes(std::size_t n)
    {
        std::vector<u8> v(n);
        for (auto &b : v)
            b = static_cast<u8>(rng.nextBounded(256));
        return v;
    }
};

} // namespace

TEST_F(SigFixture, SingleConstantsSinglePrimitive)
{
    auto constants = randomBlock(8);  // 64 B
    auto attrs = randomBlock(18);     // 144 B

    unit->onConstants(constants);
    unit->onPrimitive(attrs, {5}, 100);

    // Expected: CRC(constants || attrs).
    std::vector<u8> stream = constants;
    stream.insert(stream.end(), attrs.begin(), attrs.end());
    EXPECT_EQ(buffer->peek(5), crc32Tabular(stream));
}

TEST_F(SigFixture, ConstantsFoldedOncePerTile)
{
    // Two primitives of the same drawcall overlapping the same tile:
    // the constants block must appear exactly once in the stream
    // (Fig. 6's Tile 1/3 example).
    auto constants = randomBlock(8);
    auto primA = randomBlock(18);
    auto primB = randomBlock(18);

    unit->onConstants(constants);
    unit->onPrimitive(primA, {1}, 100);
    unit->onPrimitive(primB, {1}, 100);

    std::vector<u8> stream = constants;
    stream.insert(stream.end(), primA.begin(), primA.end());
    stream.insert(stream.end(), primB.begin(), primB.end());
    EXPECT_EQ(buffer->peek(1), crc32Tabular(stream));
}

TEST_F(SigFixture, NewDrawcallConstantsRefolded)
{
    // Fig. 6's Tile 2: primitive C of drawcall F then primitive A of
    // drawcall S -> constants F, attrs C, constants S, attrs A.
    auto constF = randomBlock(8);
    auto attrsC = randomBlock(18);
    auto constS = randomBlock(8);
    auto attrsA = randomBlock(18);

    unit->onConstants(constF);
    unit->onPrimitive(attrsC, {2}, 100);
    unit->onConstants(constS);
    unit->onPrimitive(attrsA, {2}, 100);

    std::vector<u8> stream;
    for (auto *part : {&constF, &attrsC, &constS, &attrsA})
        stream.insert(stream.end(), part->begin(), part->end());
    EXPECT_EQ(buffer->peek(2), crc32Tabular(stream));
}

TEST_F(SigFixture, UnalignedBlockLengthsAreByteExact)
{
    // The real pipeline feeds unaligned blocks (70-byte constants:
    // 64 B of uniforms plus 6 state bytes). The accumulated tile
    // signature must equal the bitwise-reference CRC of the exact
    // concatenated byte stream - under the old zero-padding datapath
    // this failed for every non-multiple-of-8 block.
    auto constants = randomBytes(70);
    auto primA = randomBytes(144);
    auto primB = randomBytes(20);

    unit->onConstants(constants);
    unit->onPrimitive(primA, {4}, 100);
    unit->onPrimitive(primB, {4}, 100);

    std::vector<u8> stream = constants;
    stream.insert(stream.end(), primA.begin(), primA.end());
    stream.insert(stream.end(), primB.begin(), primB.end());
    EXPECT_EQ(buffer->peek(4), crc32Reference(stream));
}

TEST_F(SigFixture, TrailingZeroBlockBytesChangeTheSignature)
{
    // Two primitives whose attribute blocks differ only by trailing
    // zero bytes must produce different tile signatures (the aliasing
    // class the length-aware subsystem eliminates). Same constants,
    // same fold sequence, two consecutive frames.
    auto constants = randomBytes(70);
    auto attrs = randomBytes(20);
    auto attrsPadded = attrs;
    attrsPadded.resize(24, 0);

    unit->onConstants(constants);
    unit->onPrimitive(attrs, {1}, 100);
    u32 sigShort = buffer->peek(1);

    buffer->rotate();
    unit->frameBegin();
    unit->onConstants(constants);
    unit->onPrimitive(attrsPadded, {1}, 100);
    EXPECT_NE(buffer->peek(1), sigShort);
}

TEST_F(SigFixture, TilesAccumulateIndependently)
{
    // One primitive overlapping tiles {1,2}; another only tile {2}.
    auto constants = randomBlock(8);
    auto primA = randomBlock(12);
    auto primB = randomBlock(6);

    unit->onConstants(constants);
    unit->onPrimitive(primA, {1, 2}, 100);
    unit->onPrimitive(primB, {2}, 100);

    std::vector<u8> s1 = constants;
    s1.insert(s1.end(), primA.begin(), primA.end());
    std::vector<u8> s2 = s1;
    s2.insert(s2.end(), primB.begin(), primB.end());
    EXPECT_EQ(buffer->peek(1), crc32Tabular(s1));
    EXPECT_EQ(buffer->peek(2), crc32Tabular(s2));
    EXPECT_EQ(buffer->peek(3), 0u); // untouched tile
}

TEST_F(SigFixture, IdenticalInputStreamsGiveIdenticalSignatures)
{
    auto constants = randomBlock(8);
    auto attrs = randomBlock(18);

    unit->onConstants(constants);
    unit->onPrimitive(attrs, {0}, 100);
    u32 sigFrame0 = buffer->peek(0);

    buffer->rotate();
    unit->frameBegin();
    unit->onConstants(constants);
    unit->onPrimitive(attrs, {0}, 100);
    EXPECT_EQ(buffer->peek(0), sigFrame0);
}

TEST_F(SigFixture, AnyInputBitChangeChangesSignature)
{
    auto constants = randomBlock(8);
    auto attrs = randomBlock(18);
    unit->onConstants(constants);
    unit->onPrimitive(attrs, {0}, 100);
    u32 orig = buffer->peek(0);

    buffer->rotate();
    unit->frameBegin();
    auto attrs2 = attrs;
    attrs2[100] ^= 0x01;
    unit->onConstants(constants);
    unit->onPrimitive(attrs2, {0}, 100);
    EXPECT_NE(buffer->peek(0), orig);
}

TEST_F(SigFixture, PrimitiveOrderMatters)
{
    auto constants = randomBlock(8);
    auto a = randomBlock(18);
    auto b = randomBlock(18);
    unit->onConstants(constants);
    unit->onPrimitive(a, {0}, 100);
    unit->onPrimitive(b, {0}, 100);
    u32 ab = buffer->peek(0);

    buffer->rotate();
    unit->frameBegin();
    unit->onConstants(constants);
    unit->onPrimitive(b, {0}, 100);
    unit->onPrimitive(a, {0}, 100);
    EXPECT_NE(buffer->peek(0), ab);
}

TEST_F(SigFixture, ActivityAccountsComputeAndAccumulate)
{
    auto constants = randomBlock(8);  // 8 sub-blocks
    auto attrs = randomBlock(18);     // 18 sub-blocks
    unit->onConstants(constants);
    unit->onPrimitive(attrs, {0, 1, 2}, 1000);
    const SignatureUnitActivity &a = unit->activity();
    // Compute: 8 (constants) + 18 (primitive) cycles.
    EXPECT_EQ(a.computeCycles, 26u);
    // Accumulate: per tile, constants fold (8) + primitive fold (18).
    EXPECT_EQ(a.accumulateCycles, 3u * 26);
    EXPECT_EQ(a.otPushes, 3u);
    EXPECT_EQ(a.sigBufferAccesses, 6u); // read+write per tile
}

TEST_F(SigFixture, PartialSubBlockCostsAFullCycle)
{
    // A 12 B block is one 64-bit sub-block plus a 4 B tail, and the
    // tail still takes a datapath cycle: 2 Compute CRC cycles to sign
    // it, 2 Accumulate CRC cycles to fold it into each tile. No
    // constants arrived, so no tile folds a constants block.
    unit->onPrimitive(randomBytes(12), {0, 1, 2}, 1000);
    const SignatureUnitActivity &a = unit->activity();
    EXPECT_EQ(a.computeCycles, 2u);
    EXPECT_EQ(a.accumulateCycles, 3u * 2);
}

TEST_F(SigFixture, LutAccessesPerComputeAndAccumulateCycle)
{
    // 12 LUT reads per Compute CRC cycle (8 Sign + 4 Shift) and 4 per
    // Accumulate CRC cycle (Shift), over unaligned blocks, two
    // constants sets and tiles revisited under each.
    unit->onConstants(randomBytes(70));
    unit->onPrimitive(randomBytes(144), {0, 1, 2}, 1000);
    unit->onPrimitive(randomBytes(20), {1, 3}, 1000);
    unit->onConstants(randomBytes(64));
    unit->onPrimitive(randomBytes(36), {1, 2}, 1000);
    const SignatureUnitActivity &a = unit->activity();
    // Compute: 9 + 18 + 3 + 8 + 5 sub-blocks.
    EXPECT_EQ(a.computeCycles, 43u);
    // Accumulate: 3 x (9 + 18), 1 x 3 + 1 x (9 + 3), 2 x (8 + 5).
    EXPECT_EQ(a.accumulateCycles, 81u + 15 + 26);
    EXPECT_EQ(a.lutAccesses,
              12 * a.computeCycles + 4 * a.accumulateCycles);
}

TEST_F(SigFixture, LargeTileCountOverflowsOtQueueAndStalls)
{
    // A primitive covering far more tiles than the PLB work plus the
    // 16-entry queue can hide must stall geometry (paper: 0.64% avg).
    auto attrs = randomBlock(18);
    std::vector<TileId> many;
    for (TileId t = 0; t < 16; t++)
        many.push_back(t);
    unit->onConstants(randomBlock(8));
    // Tiny plbCycles: nothing to hide behind.
    unit->onPrimitive(attrs, many, 1);
    EXPECT_GT(unit->activity().stallCycles, 0u);
}

TEST_F(SigFixture, SmallPrimitivesDontStall)
{
    auto attrs = randomBlock(18);
    unit->onConstants(randomBlock(8));
    unit->onPrimitive(attrs, {0}, 200);
    EXPECT_EQ(unit->activity().stallCycles, 0u);
}

TEST_F(SigFixture, WeakHashStillDeterministic)
{
    SignatureUnit weak(config, *buffer, HashKind::XorFold);
    buffer->rotate();
    weak.frameBegin();
    auto constants = randomBlock(8);
    auto attrs = randomBlock(18);
    weak.onConstants(constants);
    weak.onPrimitive(attrs, {0}, 100);
    u32 first = buffer->peek(0);

    buffer->rotate();
    weak.frameBegin();
    weak.onConstants(constants);
    weak.onPrimitive(attrs, {0}, 100);
    EXPECT_EQ(buffer->peek(0), first);
}
