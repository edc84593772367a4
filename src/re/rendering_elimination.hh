/**
 * @file
 * Rendering Elimination controller: wires the Signature Unit and
 * Signature Buffer into the pipeline hook points and decides, per
 * tile, whether the Raster Pipeline can be bypassed.
 *
 * Driver-visible behaviour per paper §III-E:
 *  - RE is disabled for a frame when shaders/textures were uploaded
 *    (glShaderSource / glTexImage2D class API calls);
 *  - RE can be disabled one frame out of every refreshPeriodFrames to
 *    guarantee Frame Buffer refresh;
 *  - a disabled frame also invalidates its own signatures so later
 *    frames never match against it.
 */

#ifndef REGPU_RE_RENDERING_ELIMINATION_HH
#define REGPU_RE_RENDERING_ELIMINATION_HH

#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "gpu/pipeline.hh"
#include "obs/obs.hh"
#include "re/signature_buffer.hh"
#include "re/signature_unit.hh"

namespace regpu
{

/**
 * PipelineHooks implementation for Rendering Elimination.
 */
class RenderingElimination : public PipelineHooks
{
  public:
    RenderingElimination(const GpuConfig &_config, StatRegistry &_stats,
                         HashKind hashKind = HashKind::Crc32)
        : config(_config), stats(_stats),
          buffer(_config.numTiles(), SignatureBuffer::swapChainSlots),
          unit(_config, buffer, hashKind)
    {}

    // ---- PipelineHooks ---------------------------------------------------

    void
    frameBegin(u64 frameIndex, bool reSafe) override
    {
        // Slot-rotation/validity protocol (see signature_buffer.hh):
        // rotate() clears the oldest slot for this frame's accumulation;
        // setAllValid() then marks the whole frame valid (RE enabled,
        // empty tiles compare equal by their defined 0 signature) or
        // invalid (RE disabled: this frame's tiles render under
        // potentially new global state, so later frames must never
        // match against it).
        buffer.rotate();
        unit.frameBegin();
        enabled = reSafe;
        if (config.refreshPeriodFrames
            && frameIndex % config.refreshPeriodFrames
               == config.refreshPeriodFrames - 1)
            enabled = false;
        if (!enabled)
            stats.inc("re.framesDisabled");
        buffer.setAllValid(enabled);
    }

    void
    onDrawcallConstants(u32 drawIndex, const DrawCall &draw) override
    {
        if (!enabled)
            return;
        ObsScope span("re", "constants", "draw",
                      static_cast<i64>(drawIndex));
        // Shader kind, texture binding and blend state are part of the
        // tile's rendering inputs even though the paper keeps shader
        // *code* and texture *contents* out of the signature: binding
        // a different texture/shader must change the signature. The
        // texture id is serialized at its full 32-bit width (the +1
        // maps the -1 "no texture" sentinel to 0, matching the
        // rasterizer's input-signature encoding): a 16-bit truncation
        // would alias ids differing only above bit 15 — and wrap
        // id 0xFFFF onto the no-texture encoding — producing
        // signature false-matches for genuinely different bindings.
        constexpr std::size_t stateBytes = 8;
        u8 bytes[UniformSet::maxSerializedBytes + stateBytes];
        std::size_t len = draw.state.uniforms.serializeInto(
            {bytes, UniformSet::maxSerializedBytes});
        const u32 texEncoding =
            static_cast<u32>(draw.state.textureId + 1);
        bytes[len++] = static_cast<u8>(draw.state.shader);
        bytes[len++] = static_cast<u8>(draw.state.blendMode);
        bytes[len++] = static_cast<u8>(texEncoding);
        bytes[len++] = static_cast<u8>(texEncoding >> 8);
        bytes[len++] = static_cast<u8>(texEncoding >> 16);
        bytes[len++] = static_cast<u8>(texEncoding >> 24);
        bytes[len++] = draw.state.depthTest ? 1 : 0;
        bytes[len++] = draw.state.depthWrite ? 1 : 0;
        REGPU_ASSERT(len <= sizeof(bytes));
        unit.onConstants({bytes, len});
        stats.inc("re.constantBlocksSigned");
    }

    void
    onPrimitiveBinned(const Primitive &prim, const DrawCall &draw,
                      const std::vector<TileId> &tiles) override
    {
        if (!enabled)
            return;
        u8 attrs[maxTriangleAttributeBytes];
        const std::size_t attrLen =
            serializeTriangleAttributesInto(draw, prim.firstVertex,
                                            attrs);
        // Inter-arrival of primitives at the PLB: the slowest of the
        // PLB's own sorting work and the upstream vertex-shading rate
        // (3 vertices per triangle through the vertex processors).
        Cycles plbCycles = tiles.size() * 2 + (attrLen + 16) / 16;
        Cycles shadeCycles = 3ull
            * vertexShaderInstructions(draw.state.shader)
            / config.numVertexProcessors;
        unit.onPrimitive({attrs, attrLen}, tiles,
                         std::max(plbCycles, shadeCycles));
        stats.inc("re.primitiveBlocksSigned");
    }

    /**
     * Tile-pool opt-in: during the raster phase RE's state is
     * read-only (signatures were accumulated at geometry time), the
     * query below is pure, and RE attaches no memo client.
     */
    bool tileWorkersSafe() const override { return true; }

    /** Phase-1 prediction: compare()'s answer without its counted
     *  SRAM reads or stats - those stay with shouldRenderTile in the
     *  serial merge phase, so stats match the serial pipeline
     *  bit-for-bit under any --tile-jobs. */
    bool
    queryRenderTile(TileId tile) override
    {
        if (!enabled)
            return true;
        bool matched = false;
        const bool comparable = buffer.peekCompare(tile, matched);
        return !(comparable && matched);
    }

    bool
    shouldRenderTile(TileId tile) override
    {
        if (!enabled)
            return true;
        bool matched = false;
        bool comparable = buffer.compare(tile, matched);
        stats.inc("re.signatureCompares");
        if (comparable && matched) {
            stats.inc("re.tilesSkipped");
            if (obsTileDetail())
                obsInstant("re", "tileSkipped", "tile",
                           static_cast<i64>(tile));
            return false;
        }
        return true;
    }

    void
    frameEnd() override
    {
        const SignatureUnitActivity &a = unit.activity();
        stats.inc("re.computeCycles", a.computeCycles);
        stats.inc("re.accumulateCycles", a.accumulateCycles);
        stats.inc("re.stallCycles", a.stallCycles);
        stats.inc("re.lutAccesses", a.lutAccesses);
        stats.inc("re.sigBufferAccesses", a.sigBufferAccesses);
        stats.inc("re.otPushes", a.otPushes);
        stats.inc("re.bitmapAccesses", a.bitmapAccesses);
    }

    /** Geometry-stall cycles of the current frame (timing model). */
    Cycles frameStallCycles() const { return unit.activity().stallCycles; }

    SignatureBuffer &signatureBuffer() { return buffer; }

  private:
    const GpuConfig &config;
    StatRegistry &stats;
    SignatureBuffer buffer;
    SignatureUnit unit;
    bool enabled = true;
};

} // namespace regpu

#endif // REGPU_RE_RENDERING_ELIMINATION_HH
