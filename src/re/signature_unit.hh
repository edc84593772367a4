/**
 * @file
 * The Signature Unit (paper Fig. 7): on-the-fly, incremental
 * computation of per-tile input signatures during binning.
 *
 * Data path per paper §III-F:
 *  - constants blocks arrive from the Command Processor, are signed by
 *    the Compute CRC unit into the Constants CRC register (with their
 *    length in Shift Amount C), and the per-tile constants bitmap is
 *    cleared;
 *  - primitive attribute blocks arrive from the Polygon List Builder,
 *    are signed into the Primitive CRC register (length in Shift
 *    Amount P) while the PLB pushes the overlapped-tile ids into the
 *    OT Queue;
 *  - the unit then drains the OT Queue: for each tile it reads the
 *    running CRC from the Signature Buffer, folds in the constants CRC
 *    first if this tile has not yet seen this drawcall's constants
 *    (bitmap check), then folds in the primitive CRC, and writes the
 *    result back.
 *
 * Cost model of the two CRC units (Figs. 8-9, Algorithms 2-3): the
 * Compute CRC unit signs a block one 64-bit sub-block per cycle with
 * 12 LUT reads (8 Sign + 4 Shift); the Accumulate CRC unit re-aligns
 * a tile's running CRC past a block, x^(8 * length), one Shift step of
 * 4 LUT reads per sub-block. A partial final sub-block still takes a
 * full cycle in both, and is folded byte-exact (never zero-padded).
 */

#ifndef REGPU_RE_SIGNATURE_UNIT_HH
#define REGPU_RE_SIGNATURE_UNIT_HH

#include <span>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "crc/hashes.hh"
#include "re/signature_buffer.hh"

namespace regpu
{

/** Result of signing one data block. */
struct BlockSignature
{
    u32 crc = 0;         //!< F(block), byte-exact
    u64 lengthBytes = 0; //!< block length in bytes

    /** Datapath occupancy: 64-bit sub-blocks, tail included. */
    u32
    subBlocks() const
    {
        return static_cast<u32>((lengthBytes + 7) / 8);
    }
};

/** Cycle/energy activity of the Signature Unit for one frame. */
struct SignatureUnitActivity
{
    Cycles computeCycles = 0;    //!< Compute CRC unit busy cycles
    Cycles accumulateCycles = 0; //!< Accumulate CRC unit busy cycles
    Cycles stallCycles = 0;      //!< geometry stalls from OT overflow
    u64 lutAccesses = 0;
    u64 sigBufferAccesses = 0;
    u64 otPushes = 0;
    u64 bitmapAccesses = 0;
};

/**
 * Functional + overhead model of the Signature Unit.
 *
 * The hash function is pluggable (HashKind) so the Section V ablation
 * can swap CRC32 for weaker XOR/ADD schemes; cycle accounting always
 * follows the CRC datapath shape (64-bit sub-block per cycle).
 */
class SignatureUnit
{
  public:
    SignatureUnit(const GpuConfig &_config, SignatureBuffer &_buffer,
                  HashKind hashKind = HashKind::Crc32)
        : config(_config), buffer(_buffer), kind(hashKind)
    {}

    /** Frame start: reset per-frame activity. */
    void
    frameBegin()
    {
        activity_ = SignatureUnitActivity{};
        bitmap.assign(config.numTiles(), 0);
        constants = {};
        suBusy = 0;
        geomBusy = 0;
    }

    /**
     * Command Processor path: a drawcall's constants arrive.
     * Signs the serialized constants and clears the bitmap.
     */
    void
    onConstants(std::span<const u8> constantBytes)
    {
        constants = signBlock(constantBytes);
        std::fill(bitmap.begin(), bitmap.end(), u8{0});
        activity_.bitmapAccesses += 1; // flash clear
    }

    /**
     * Polygon List Builder path: a primitive and its overlapped tiles.
     *
     * Overhead model: the Signature Unit runs decoupled behind the
     * 16-entry OT Queue. Each primitive adds work (compute cycles +
     * one accumulate pass per overlapped tile); the Geometry Pipeline
     * meanwhile advances by the primitive's inter-arrival time (vertex
     * shading / PLB bound, whichever is slower - passed by the
     * caller). The queue lets the SU lag by up to its capacity worth
     * of tile updates; only backlog beyond that stalls geometry
     * (paper Section V: overflow happens for primitives covering a
     * large amount of tiles).
     *
     * @param attributeBytes serialized vertex attributes (3 vertices)
     * @param tiles          overlapped tile ids
     * @param interArrival   cycles the Geometry Pipeline takes to
     *                       deliver this primitive to the PLB
     */
    void
    onPrimitive(std::span<const u8> attributeBytes,
                const std::vector<TileId> &tiles, Cycles interArrival)
    {
        // Compute CRC unit signs the attribute block (Algorithm 2).
        BlockSignature prim = signBlock(attributeBytes);
        const u32 primSub = prim.subBlocks();
        const u32 constSub = constants.subBlocks();
        Cycles work = primSub; // compute pipeline slot

        activity_.otPushes += tiles.size();

        for (TileId t : tiles) {
            u32 running = buffer.read(t);
            activity_.sigBufferAccesses++;

            // Constants folded once per tile per constants-set.
            activity_.bitmapAccesses++;
            if (!bitmap[t]) {
                bitmap[t] = 1;
                activity_.bitmapAccesses++;
                running = hashCombine(kind, running, constants.crc,
                                      constants.lengthBytes);
                work += constSub; // Accumulate unit iterations
                activity_.accumulateCycles += constSub;
                activity_.lutAccesses += 4ull * constSub;
            }

            // Fold the primitive CRC (Accumulate + XOR, Algorithm 1).
            running = hashCombine(kind, running, prim.crc,
                                  prim.lengthBytes);
            work += primSub;
            activity_.accumulateCycles += primSub;
            activity_.lutAccesses += 4ull * primSub;

            buffer.write(t, running);
            activity_.sigBufferAccesses++;
        }

        // Decoupled-queue timing: geometry advances, SU accumulates.
        suBusy += work;
        geomBusy += interArrival;
        const Cycles slack = otQueueSlackCycles();
        if (suBusy > geomBusy + slack) {
            Cycles stall = suBusy - geomBusy - slack;
            activity_.stallCycles += stall;
            geomBusy += stall; // the PLB waited
        }
    }

    /** Per-frame activity (cycles, accesses) for timing/energy. */
    const SignatureUnitActivity &activity() const { return activity_; }

  private:
    /** Sign a block through the Compute CRC unit model (byte-exact). */
    BlockSignature
    signBlock(std::span<const u8> bytes)
    {
        const BlockSignature sig{hashBlock(kind, bytes), bytes.size()};
        activity_.computeCycles += sig.subBlocks();
        activity_.lutAccesses += 12ull * sig.subBlocks();
        return sig;
    }

    /** Lag the OT queue can absorb: its entries times the typical
     *  accumulate pass of one tile update (~16 cycles). */
    Cycles
    otQueueSlackCycles() const
    {
        return config.otQueueEntries * 16ull;
    }

    const GpuConfig &config;
    SignatureBuffer &buffer;
    HashKind kind;
    std::vector<u8> bitmap;
    BlockSignature constants; //!< the current drawcall's constants
    Cycles suBusy = 0;
    Cycles geomBusy = 0;
    SignatureUnitActivity activity_;
};

} // namespace regpu

#endif // REGPU_RE_SIGNATURE_UNIT_HH
