#include "gpu/binning.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "gpu/memiface.hh"

namespace regpu
{

namespace
{

constexpr Addr parameterBufferBase = 0x2'0000'0000ull;

/**
 * Conservative triangle-vs-rectangle overlap: true when the rectangle
 * is not strictly outside any triangle edge and the boxes intersect.
 * Degenerate (zero-area) triangles never got here (culled earlier).
 */
bool
triangleOverlapsRect(const Primitive &p, float rx0, float ry0,
                     float rx1, float ry1)
{
    // The bbox pre-test is done by the caller; here run the three
    // edge tests. A point q is inside edge (a -> b) when the edge
    // function f(q) = (b-a) x (q-a), multiplied by the triangle's
    // winding sign, is >= 0. The rectangle is entirely outside the
    // edge iff even its most-inside corner (the one maximising
    // sign * f) is outside.
    float area2 = p.signedArea2();
    float sign = area2 >= 0 ? 1.0f : -1.0f;
    for (int e = 0; e < 3; e++) {
        const ShadedVertex &a = p.v[e];
        const ShadedVertex &b = p.v[(e + 1) % 3];
        float ex = b.x - a.x, ey = b.y - a.y;
        // f(q) = (b-a) x (q-a) = ex*(qy-ay) - ey*(qx-ax); the third
        // vertex gives f = area2, so inside means sign*f >= 0.
        // d(sign*f)/dqx = -sign*ey and d(sign*f)/dqy = sign*ex pick
        // the corner maximising sign*f.
        float cx = (sign * ey > 0) ? rx0 : rx1;
        float cy = (sign * ex > 0) ? ry1 : ry0;
        float f = ex * (cy - a.y) - ey * (cx - a.x);
        if (sign * f < 0)
            return false; // whole rectangle outside this edge
    }
    return true;
}

} // namespace

void
PolygonListBuilder::beginFrame(BinnedFrame &frame)
{
    frame.primitives.clear();
    frame.tileLists.assign(config.numTiles(), {});
    frame.parameterBytes = 0;
    pbCursor = parameterBufferBase;
}

std::vector<TileId>
PolygonListBuilder::overlappedTiles(const Primitive &prim) const
{
    std::vector<TileId> tiles;
    float minX, minY, maxX, maxY;
    prim.bounds(minX, minY, maxX, maxY);

    // Clamp to the screen, in float before converting: a far-off
    // vertex (trace input, near-plane clipping's tiny w) would
    // overflow the int conversion. Clamping to [0, screen size] leaves
    // every on-screen tile range as it was. NaN bounds fail every
    // comparison here and count as off screen.
    if (!(maxX >= 0 && maxY >= 0 && minX < config.screenWidth
          && minY < config.screenHeight))
        return tiles;
    minX = std::max(minX, 0.0f);
    minY = std::max(minY, 0.0f);
    maxX = std::min(maxX, static_cast<float>(config.screenWidth));
    maxY = std::min(maxY, static_cast<float>(config.screenHeight));

    const i32 tx0 =
        static_cast<i32>(std::floor(minX)) / static_cast<i32>(config.tileWidth);
    const i32 ty0 =
        static_cast<i32>(std::floor(minY)) / static_cast<i32>(config.tileHeight);
    const i32 tx1 = std::min<i32>(config.tilesX() - 1,
        static_cast<i32>(std::floor(maxX)) / static_cast<i32>(config.tileWidth));
    const i32 ty1 = std::min<i32>(config.tilesY() - 1,
        static_cast<i32>(std::floor(maxY)) / static_cast<i32>(config.tileHeight));

    for (i32 ty = ty0; ty <= ty1; ty++) {
        for (i32 tx = tx0; tx <= tx1; tx++) {
            float rx0 = tx * static_cast<float>(config.tileWidth);
            float ry0 = ty * static_cast<float>(config.tileHeight);
            float rx1 = rx0 + config.tileWidth;
            float ry1 = ry0 + config.tileHeight;
            if (triangleOverlapsRect(prim, rx0, ry0, rx1, ry1))
                tiles.push_back(ty * config.tilesX() + tx);
        }
    }
    return tiles;
}

void
PolygonListBuilder::binDrawcall(const DrawCall &draw,
                                const std::vector<Primitive> &prims,
                                BinnedFrame &frame)
{
    for (const Primitive &prim : prims) {
        std::vector<TileId> tiles = overlappedTiles(prim);
        if (tiles.empty()) {
            stats.inc("binning.primitivesOffscreen");
            continue;
        }

        // Store the primitive's attributes in the Parameter Buffer:
        // shaded vertices (position+varyings) in a raster-friendly
        // layout, plus a per-tile list entry (8 B pointer each).
        const u32 attrBytes = draw.layout.attributeCount() * 3 * 16;
        const u32 payload = attrBytes + 16; // header: state + edge eqns
        const Addr addr = pbCursor;
        pbCursor += payload;
        frame.parameterBytes += payload + 8ull * tiles.size();
        if (mem) {
            mem->parameterWrite(addr, payload);
            for (TileId t : tiles)
                mem->parameterWrite(addr + payload + t % 64, 8);
        }

        const u32 primIndex = static_cast<u32>(frame.primitives.size());
        frame.primitives.push_back(prim);
        for (TileId t : tiles)
            frame.tileLists[t].push_back({primIndex, addr, payload});

        stats.inc("binning.primitivesBinned");
        stats.inc("binning.tileOverlaps", tiles.size());

        if (observer)
            observer(prim, draw, tiles);
    }
}

} // namespace regpu
