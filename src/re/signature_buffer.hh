/**
 * @file
 * The Signature Buffer: an on-chip SRAM holding one 32-bit signature
 * per tile for the frames spanned by the swap chain (two with double
 * buffering, paper §IV-C).
 *
 * Slot-rotation / validity protocol
 * ---------------------------------
 * The buffer holds `frameSpan` slots in a ring. Exactly one, the
 * "current" slot, accumulates signatures while the Geometry Pipeline
 * bins the frame; the "comparison" slot - the next one in ring order,
 * i.e. the slot that will be recycled last, `frameSpan - 1` rotations
 * ago - holds the frame the Back Buffer's contents were rendered from.
 *
 * Per frame, a controller must:
 *  1. rotate()        - recycle the oldest slot as the new current one
 *                       (its signatures and validity are cleared);
 *  2. setAllValid(v)  - publish the frame's validity wholesale: true
 *                       when the technique is active (tiles with no
 *                       geometry keep the defined signature 0 and must
 *                       still compare equal), false when the frame is
 *                       untrustworthy (RE disabled for the frame).
 *  3. write()/read()  - accumulate per-tile running signatures;
 *  4. compare()/readComparison() - consult the comparison slot. Both
 *                       fail (return false) when either side is
 *                       invalid, so frames after a disabled or
 *                       invalidated frame can never match against it.
 */

#ifndef REGPU_RE_SIGNATURE_BUFFER_HH
#define REGPU_RE_SIGNATURE_BUFFER_HH

#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace regpu
{

/**
 * Multi-frame tile-signature storage with validity tracking (the
 * first frame, or a frame after an RE-disable, has no valid previous
 * signature to compare with).
 */
class SignatureBuffer
{
  public:
    /**
     * Slots RE and TE rotate: while frame N accumulates, the buffer
     * still holds frame N-1 (frame N+1 compares against it) and frame
     * N-2 (the Back Buffer frame N compares against under double
     * buffering). The hardware cost the paper reports (2 frames of
     * signatures) corresponds to the steady-state live sets.
     */
    static constexpr u32 swapChainSlots = 3;

    /**
     * @param numTiles tiles per frame
     * @param frameSpan number of frame slots
     */
    SignatureBuffer(u32 numTiles, u32 frameSpan)
        : numTiles_(numTiles), span(frameSpan),
          slots(frameSpan, Slot{std::vector<u32>(numTiles, 0),
                                std::vector<u8>(numTiles, 0)})
    {}

    /** Begin accumulating a new frame: rotate to the oldest slot and
     *  clear it. @return index of the now-current slot. */
    u32
    rotate()
    {
        current = (current + 1) % span;
        auto &slot = slots[current];
        std::fill(slot.sig.begin(), slot.sig.end(), 0u);
        std::fill(slot.valid.begin(), slot.valid.end(), u8{0});
        return current;
    }

    /** Read the current frame's running signature for a tile. */
    u32
    read(TileId tile)
    {
        reads_++;
        return slots[current].sig[tile];
    }

    /** Write back a tile's updated running signature. */
    void
    write(TileId tile, u32 sig)
    {
        writes_++;
        slots[current].sig[tile] = sig;
        slots[current].valid[tile] = 1;
    }

    /** Mark every tile of the current frame valid/invalid wholesale
     *  (tiles with no geometry still have a defined signature: 0). */
    void
    setAllValid(bool v)
    {
        std::fill(slots[current].valid.begin(),
                  slots[current].valid.end(), v ? u8{1} : u8{0});
    }

    /**
     * Compare the current frame's signature with the comparison
     * frame's (the slot `span-1` rotations ago, i.e. the Back Buffer
     * frame under double buffering).
     *
     * @param tile tile id
     * @param matched out: signatures equal and both valid
     * @return true when a valid comparison was possible
     */
    bool
    compare(TileId tile, bool &matched)
    {
        reads_ += 2;
        const u32 prev = (current + 1) % span;
        const Slot &cur = slots[current];
        const Slot &old = slots[prev];
        if (!cur.valid[tile] || !old.valid[tile]) {
            matched = false;
            return false;
        }
        matched = cur.sig[tile] == old.sig[tile];
        return true;
    }

    /**
     * Read the comparison slot's signature for @p tile without
     * touching the current slot (one SRAM read). Lets a consumer that
     * computes its own candidate signature - Transaction Elimination
     * hashing a tile's output colors - compare and then write() the
     * new signature exactly once.
     *
     * @param sig out: the comparison slot's signature (valid entries)
     * @return true when the comparison slot's entry is valid
     */
    bool
    readComparison(TileId tile, u32 &sig)
    {
        reads_++;
        const Slot &old = slots[(current + 1) % span];
        if (!old.valid[tile])
            return false;
        sig = old.sig[tile];
        return true;
    }

    u32 numTiles() const { return numTiles_; }
    u64 accesses() const { return reads_ + writes_; }
    u64 sizeBytes() const { return static_cast<u64>(span) * numTiles_ * 4; }

    /** Raw signature of the current slot (tests/debug). */
    u32 peek(TileId tile) const { return slots[current].sig[tile]; }

  private:
    struct Slot
    {
        std::vector<u32> sig;
        std::vector<u8> valid;
    };

    u32 numTiles_;
    u32 span;
    std::vector<Slot> slots;
    u32 current = 0;
    u64 reads_ = 0;
    u64 writes_ = 0;
};

} // namespace regpu

#endif // REGPU_RE_SIGNATURE_BUFFER_HH
