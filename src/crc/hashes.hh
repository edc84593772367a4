/**
 * @file
 * Alternative (weaker) signature functions for the Section V ablation:
 * the paper states CRC32 outperforms XOR-based schemes; these are the
 * straw-man schemes used to quantify that claim.
 *
 * Each hash supports the same incremental interface the Signature Unit
 * needs: stream a block (HashStream), then fold it into a tile's
 * running signature (hashCombine). All schemes are byte-serial with
 * message-global positions, so streaming in any segmentation equals
 * the one-shot hash.
 */

#ifndef REGPU_CRC_HASHES_HH
#define REGPU_CRC_HASHES_HH

#include <span>
#include <string>

#include "crc/crc32.hh"

namespace regpu
{

/** Kinds of signature function available to the Signature Unit. */
enum class HashKind
{
    Crc32,    //!< paper's choice
    XorFold,  //!< XOR of 32-bit words (order- and position-insensitive)
    AddFold,  //!< 32-bit additive checksum
    Fnv1a,    //!< byte-serial FNV-1a (strong-ish, but serial in hardware)
    /**
     * Degenerate truncation: only the first 4 bytes of a block
     * participate. Collides constantly by construction - used for
     * failure injection, verifying that the simulator's ground-truth
     * machinery detects (rather than masks) wrong tile skips.
     */
    Trunc4,
};

/** Printable name. */
const char *hashKindName(HashKind kind);

/** One-line list of the CLI-parseable kind names (Trunc4 is a
 *  deliberately-weak ablation baseline, bench-only and unlisted), for
 *  usage/error text. Single source of truth for parseHashArg()
 *  diagnostics. */
const char *hashKindUsage();

/**
 * Incremental signature over a byte stream for any HashKind:
 * init (constructor/reset), update, finalize. Allocation-free; any
 * segmentation of the message into update() calls yields the same
 * value as hashBlock over the concatenation.
 */
class HashStream
{
  public:
    explicit HashStream(HashKind kind = HashKind::Crc32) : kind_(kind)
    {
        reset();
    }

    /** Restart as an empty message. */
    void reset();

    /** Append @p bytes to the message. */
    void update(std::span<const u8> bytes);

    /** Append a 32-bit value, little-endian byte order. */
    void putU32(u32 v) { streamPutU32(*this, v); }

    /** Append a float's exact bit pattern. */
    void putF32(float f) { streamPutF32(*this, f); }

    /** The signature of everything streamed so far. */
    u32 finalize() const;

    /** Message length streamed so far, in bytes. */
    u64
    lengthBytes() const
    {
        return kind_ == HashKind::Crc32 ? crc_.lengthBytes() : length_;
    }

  private:
    HashKind kind_;
    Crc32Stream crc_; //!< state for HashKind::Crc32
    u32 acc_ = 0;     //!< state for the weak schemes
    u64 length_ = 0;  //!< message position for the weak schemes
};

/**
 * One-shot signature of a standalone block with the chosen function
 * (HashStream init + update + finalize).
 */
u32 hashBlock(HashKind kind, std::span<const u8> block);

/**
 * Fold a block signature into a running tile signature.
 * For CRC32 this is the Algorithm 1 combine and needs the block
 * length in **bytes** (byte-exact); the weak schemes ignore the
 * length.
 */
u32 hashCombine(HashKind kind, u32 tileSig, u32 blockSig,
                u64 blockLengthBytes);

} // namespace regpu

#endif // REGPU_CRC_HASHES_HH
