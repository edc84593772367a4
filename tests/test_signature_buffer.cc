/**
 * @file
 * Signature Buffer tests: rotation, validity, frame-span comparison.
 */

#include <gtest/gtest.h>

#include "re/signature_buffer.hh"

using namespace regpu;

TEST(SignatureBuffer, ReadAfterWrite)
{
    SignatureBuffer sb(16, 2);
    sb.rotate();
    sb.write(3, 0xabcd1234);
    EXPECT_EQ(sb.read(3), 0xabcd1234u);
}

TEST(SignatureBuffer, FreshSlotReadsZero)
{
    SignatureBuffer sb(16, 2);
    sb.rotate();
    EXPECT_EQ(sb.read(5), 0u);
}

TEST(SignatureBuffer, FirstFrameHasNoComparison)
{
    SignatureBuffer sb(16, 2);
    sb.rotate();
    sb.write(0, 42);
    bool matched = true;
    EXPECT_FALSE(sb.compare(0, matched));
    EXPECT_FALSE(matched);
}

TEST(SignatureBuffer, SpanTwoComparesAgainstPreviousFrame)
{
    SignatureBuffer sb(16, 2);
    sb.rotate();             // frame 0
    sb.write(7, 100);
    sb.rotate();             // frame 1
    sb.write(7, 100);
    bool matched = false;
    EXPECT_TRUE(sb.compare(7, matched));
    EXPECT_TRUE(matched);
}

TEST(SignatureBuffer, SpanTwoDetectsMismatch)
{
    SignatureBuffer sb(16, 2);
    sb.rotate();
    sb.write(7, 100);
    sb.rotate();
    sb.write(7, 101);
    bool matched = true;
    EXPECT_TRUE(sb.compare(7, matched));
    EXPECT_FALSE(matched);
}

TEST(SignatureBuffer, SpanThreeComparesTwoFramesBack)
{
    // Double buffering: frame N compares with N-2.
    SignatureBuffer sb(16, 3);
    sb.rotate();             // frame 0
    sb.write(2, 0xAAAA);
    sb.rotate();             // frame 1
    sb.write(2, 0xBBBB);
    sb.rotate();             // frame 2
    sb.write(2, 0xAAAA);
    bool matched = false;
    EXPECT_TRUE(sb.compare(2, matched));
    EXPECT_TRUE(matched);    // matches frame 0, not frame 1
}

TEST(SignatureBuffer, SpanThreeMismatchAgainstOlder)
{
    SignatureBuffer sb(16, 3);
    sb.rotate();
    sb.write(2, 0xAAAA);
    sb.rotate();
    sb.write(2, 0xBBBB);
    sb.rotate();
    sb.write(2, 0xBBBB);     // equals frame 1, but compare is frame 0
    bool matched = true;
    EXPECT_TRUE(sb.compare(2, matched));
    EXPECT_FALSE(matched);
}

TEST(SignatureBuffer, RotateClearsNewSlot)
{
    SignatureBuffer sb(8, 2);
    sb.rotate();
    sb.write(1, 99);
    sb.rotate();
    sb.rotate();             // back to the first slot
    EXPECT_EQ(sb.read(1), 0u);
}

TEST(SignatureBuffer, SetAllValidEnablesEmptyTileComparison)
{
    // Tiles with no geometry keep signature 0; they must still compare
    // equal across frames once marked valid.
    SignatureBuffer sb(8, 2);
    sb.rotate();
    sb.setAllValid(true);
    sb.rotate();
    sb.setAllValid(true);
    bool matched = false;
    EXPECT_TRUE(sb.compare(4, matched));
    EXPECT_TRUE(matched);
}

TEST(SignatureBuffer, DisabledFrameBlocksItsOwnAndNextComparison)
{
    SignatureBuffer sb(8, 2);
    sb.rotate();
    sb.setAllValid(true);    // frame 0 valid
    sb.rotate();
    sb.setAllValid(false);   // frame 1: RE disabled
    bool matched = true;
    EXPECT_FALSE(sb.compare(0, matched));
    // Next frame compares against frame 1 (invalid) -> blocked too.
    sb.rotate();
    sb.setAllValid(true);
    EXPECT_FALSE(sb.compare(0, matched));
}

TEST(SignatureBuffer, SizeMatchesConfiguredSpan)
{
    SignatureBuffer sb(3600, 2);
    EXPECT_EQ(sb.sizeBytes(), 2u * 3600 * 4);
}

TEST(SignatureBuffer, AccessCountingForEnergyModel)
{
    SignatureBuffer sb(8, 2);
    sb.rotate();
    u64 before = sb.accesses();
    sb.write(0, 1);
    sb.read(0);
    EXPECT_GT(sb.accesses(), before);
}

TEST(SignatureBuffer, RotatePreservesAccessCounter)
{
    // Regression: rotate() used to clobber reads_ with writes_,
    // corrupting accesses() (a write would count double forever
    // after, and reads since the last rotation vanished).
    SignatureBuffer sb(8, 2);
    sb.rotate();
    sb.write(0, 1);   // 1 access
    sb.read(0);       // 2
    sb.read(1);       // 3
    EXPECT_EQ(sb.accesses(), 3u);
    sb.rotate();
    EXPECT_EQ(sb.accesses(), 3u); // rotation is not an SRAM access
    sb.write(0, 2);
    EXPECT_EQ(sb.accesses(), 4u);
}

TEST(SignatureBuffer, ReadComparisonReturnsComparisonSlot)
{
    SignatureBuffer sb(8, 2);
    sb.rotate();
    sb.write(3, 0x1111);
    sb.rotate();
    sb.write(3, 0x2222);
    u32 sig = 0;
    EXPECT_TRUE(sb.readComparison(3, sig));
    EXPECT_EQ(sig, 0x1111u);
    // The current slot is untouched by the read.
    EXPECT_EQ(sb.peek(3), 0x2222u);
}

TEST(SignatureBuffer, ReadComparisonFailsOnInvalidEntry)
{
    SignatureBuffer sb(8, 2);
    sb.rotate();              // comparison slot never written/validated
    u32 sig = 0xdead;
    EXPECT_FALSE(sb.readComparison(0, sig));
    EXPECT_EQ(sig, 0xdeadu);  // out-param untouched on failure
}

TEST(SignatureBuffer, ReadComparisonCountsOneAccess)
{
    SignatureBuffer sb(8, 2);
    sb.rotate();
    sb.write(0, 7);
    sb.rotate();
    u64 before = sb.accesses();
    u32 sig = 0;
    sb.readComparison(0, sig);
    EXPECT_EQ(sb.accesses(), before + 1);
}

TEST(SignatureBuffer, ReadComparisonSpanThreeReadsTwoFramesBack)
{
    SignatureBuffer sb(8, 3);
    sb.rotate();
    sb.write(1, 0xAAAA);      // frame 0
    sb.rotate();
    sb.write(1, 0xBBBB);      // frame 1
    sb.rotate();              // frame 2: comparison is frame 0
    u32 sig = 0;
    EXPECT_TRUE(sb.readComparison(1, sig));
    EXPECT_EQ(sig, 0xAAAAu);
}
