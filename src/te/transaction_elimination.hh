/**
 * @file
 * Transaction Elimination (ARM Mali, modelled per paper §IV-C): after
 * a tile finishes rendering, its Color Buffer contents are hashed; if
 * the signature equals the one recorded for the same tile in the
 * comparison frame (the Back Buffer frame under double buffering), the
 * flush to the Frame Buffer is elided.
 *
 * Per the paper's evaluation methodology, the energy of the Signature
 * Buffer and Compute CRC unit is charged but the signature computation
 * is assumed to take zero execution cycles (an idealised TE).
 */

#ifndef REGPU_TE_TRANSACTION_ELIMINATION_HH
#define REGPU_TE_TRANSACTION_ELIMINATION_HH

#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "crc/crc32.hh"
#include "gpu/pipeline.hh"
#include "obs/obs.hh"
#include "re/signature_buffer.hh"

namespace regpu
{

/**
 * PipelineHooks implementation for Transaction Elimination.
 */
class TransactionElimination : public PipelineHooks
{
  public:
    TransactionElimination(const GpuConfig &_config, StatRegistry &_stats)
        : stats(_stats),
          buffer(_config.numTiles(), SignatureBuffer::swapChainSlots)
    {}

    void
    frameBegin(u64 /*frameIndex*/, bool /*reSafe*/) override
    {
        buffer.rotate();
        // TE hashes *output* colors, so global-state changes do not
        // need to disable it; signatures stay valid.
        buffer.setAllValid(true);
        lutAccessesThisFrame = 0;
    }

    /** Phase-1 (worker-side, thread-safe): hash the tile's colors.
     *  CRC32 streamed straight over the Color Buffer's storage (no
     *  per-tile heap message, no staging copy). Color is four u8s
     *  {r,g,b,a}, identical to the packed little-endian RGBA byte
     *  order the signature is defined over. */
    u32
    prepareFlushTile(TileId tile, const std::vector<Color> &colors) override
    {
        // Per-tile detail: one signature-hash span per rendered tile.
        std::optional<ObsScope> span;
        if (obsTileDetail())
            span.emplace("te", "signature", "tile",
                         static_cast<i64>(tile));
        static_assert(sizeof(Color) == 4);
        Crc32Stream stream;
        stream.update({reinterpret_cast<const u8 *>(colors.data()),
                       colors.size() * 4});
        return stream.value();
    }

    /** Merge phase (serial, in tile order): charge the Compute CRC
     *  unit for the hash the worker did, then the counted compare +
     *  single signature write - identical accounting, in identical
     *  order, to the serial pipeline. */
    bool
    shouldFlushTilePre(TileId tile, const std::vector<Color> &colors,
                       u32 sig) override
    {
        // Compute CRC unit energy: 12 LUT reads per 64-bit sub-block
        // (message length is exactly the tile's color bytes).
        lutAccessesThisFrame += 12ull * ((colors.size() * 4 + 7) / 8);

        // Compare against the recorded signature, then store exactly
        // one signature write for this tile.
        u32 prevSig = 0;
        const bool comparable = buffer.readComparison(tile, prevSig);
        buffer.write(tile, sig);

        signatureCompares++;
        if (comparable && prevSig == sig) {
            flushesEliminated++;
            return false;
        }
        return true;
    }

    bool
    shouldFlushTile(TileId tile, const std::vector<Color> &colors) override
    {
        // Single-call form: hash + decide in one step (direct callers
        // and tests; the pipeline calls the two halves separately).
        return shouldFlushTilePre(tile, colors,
                                  prepareFlushTile(tile, colors));
    }

    void
    frameEnd() override
    {
        stats.inc("te.lutAccesses", lutAccessesThisFrame);
        // Charge only this frame's Signature Buffer activity;
        // buffer.accesses() is a cumulative lifetime counter.
        const u64 total = buffer.accesses();
        stats.inc("te.sigBufferAccesses", total - accessesCharged);
        accessesCharged = total;
        // As per-tile charges would have left them: a counter exists
        // once something was counted.
        if (signatureCompares)
            stats.inc("te.signatureCompares", signatureCompares);
        if (flushesEliminated)
            stats.inc("te.flushesEliminated", flushesEliminated);
        signatureCompares = flushesEliminated = 0;
    }

  private:
    StatRegistry &stats;
    SignatureBuffer buffer;
    u64 lutAccessesThisFrame = 0;
    u64 accessesCharged = 0;
    // This frame's per-tile counts, charged in frameEnd.
    u64 signatureCompares = 0;
    u64 flushesEliminated = 0;
};

} // namespace regpu

#endif // REGPU_TE_TRANSACTION_ELIMINATION_HH
