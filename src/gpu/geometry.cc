#include "gpu/geometry.hh"

#include <array>
#include <cmath>

#include "common/logging.hh"
#include "gpu/memiface.hh"

namespace regpu
{

namespace
{

/** A vertex in clip space carrying its varyings, used during clipping. */
struct ClipVertex
{
    Vec4 clip;
    Vec4 color;
    Vec2 texcoord;
    float diffuse = 1;
};

ClipVertex
lerpClip(const ClipVertex &a, const ClipVertex &b, float t)
{
    ClipVertex r;
    r.clip = lerp(a.clip, b.clip, t);
    r.color = lerp(a.color, b.color, t);
    r.texcoord = lerp(a.texcoord, b.texcoord, t);
    r.diffuse = lerp(a.diffuse, b.diffuse, t);
    return r;
}

/**
 * Clip a polygon against the near plane (w >= epsilon, which in clip
 * space also bounds z >= -w for our projection matrices well enough
 * for the synthetic scenes; full-frustum rejection is done separately
 * with a conservative outcode test).
 */
std::vector<ClipVertex>
clipNear(const std::vector<ClipVertex> &poly)
{
    constexpr float wEps = 1e-5f;
    std::vector<ClipVertex> out;
    const std::size_t n = poly.size();
    for (std::size_t i = 0; i < n; i++) {
        const ClipVertex &cur = poly[i];
        const ClipVertex &nxt = poly[(i + 1) % n];
        bool curIn = cur.clip.w >= wEps;
        bool nxtIn = nxt.clip.w >= wEps;
        if (curIn)
            out.push_back(cur);
        if (curIn != nxtIn) {
            float t = (wEps - cur.clip.w) / (nxt.clip.w - cur.clip.w);
            out.push_back(lerpClip(cur, nxt, t));
        }
    }
    return out;
}

/** Conservative all-outside test against one frustum plane. */
bool
allOutside(const std::array<ClipVertex, 3> &tri, int axis, float sign)
{
    for (const auto &v : tri) {
        float coord = axis == 0 ? v.clip.x : axis == 1 ? v.clip.y
                                                       : v.clip.z;
        if (sign * coord <= v.clip.w)
            return false;
    }
    return true;
}

} // namespace

ShadedVertex
GeometryPipeline::shadeVertex(const DrawCall &draw, const Vertex &in) const
{
    // This functional step mirrors what GeometryOutput-level code does;
    // the real transform happens in process() where clipping needs clip
    // space. Kept for API completeness (used by tests).
    const UniformSet &u = draw.state.uniforms;
    Vec4 clip = u.mvp * Vec4(in.position, 1.0f);
    ShadedVertex sv;
    float invW = clip.w != 0 ? 1.0f / clip.w : 0.0f;
    sv.x = (clip.x * invW * 0.5f + 0.5f) * config.screenWidth;
    sv.y = (clip.y * invW * 0.5f + 0.5f) * config.screenHeight;
    sv.z = clip.z * invW * 0.5f + 0.5f;
    sv.invW = invW;
    sv.color = in.color;
    sv.texcoord = in.texcoord;
    return sv;
}

GeometryOutput
GeometryPipeline::process(const DrawCall &draw)
{
    GeometryOutput out;
    const UniformSet &u = draw.state.uniforms;
    const u32 triangles = draw.triangleCount();
    out.trianglesIn = triangles;

    const float halfW = config.screenWidth * 0.5f;
    const float halfH = config.screenHeight * 0.5f;

    for (u32 t = 0; t < triangles; t++) {
        std::array<ClipVertex, 3> tri;
        for (u32 k = 0; k < 3; k++) {
            const u32 idx = t * 3 + k;
            const Vertex &vin = draw.vertices[idx];
            // Vertex Fetcher: read the attribute bytes through the
            // vertex cache.
            if (mem) {
                mem->vertexFetch(draw.vertexAddr(idx),
                                 draw.layout.strideBytes());
            }
            out.verticesFetched++;
            // Vertex Processor: transform + varying setup.
            ClipVertex cv;
            cv.clip = u.mvp * Vec4(vin.position, 1.0f);
            cv.color = vin.color;
            cv.texcoord = {vin.texcoord.x + u.uvOffsetS,
                           vin.texcoord.y + u.uvOffsetT};
            if (draw.state.shader == ShaderKind::TexLit) {
                Vec3 n = vin.normal.normalized();
                float d = std::max(0.0f, n.dot(u.lightDir.normalized()));
                cv.diffuse = 0.25f + 0.75f * d;
            }
            tri[k] = cv;
            out.verticesShaded++;
        }

        // Trivial frustum rejection (x, y, z outcodes).
        bool rejected = false;
        for (int axis = 0; axis < 3 && !rejected; axis++) {
            if (allOutside(tri, axis, 1.0f) || allOutside(tri, axis, -1.0f))
                rejected = true;
        }
        if (rejected) {
            out.trianglesCulled++;
            continue;
        }

        // Near-plane clip when any vertex has w below threshold.
        std::vector<ClipVertex> poly{tri[0], tri[1], tri[2]};
        bool needsClip = tri[0].clip.w < 1e-5f || tri[1].clip.w < 1e-5f
            || tri[2].clip.w < 1e-5f;
        if (needsClip) {
            poly = clipNear(poly);
            out.trianglesClipped++;
            if (poly.size() < 3) {
                out.trianglesCulled++;
                continue;
            }
        }

        // Viewport transform + fan triangulation of the clipped poly.
        auto toShaded = [&](const ClipVertex &cv) {
            ShadedVertex sv;
            float invW = 1.0f / cv.clip.w;
            sv.x = (cv.clip.x * invW + 1.0f) * halfW;
            sv.y = (cv.clip.y * invW + 1.0f) * halfH;
            sv.z = clampf(cv.clip.z * invW * 0.5f + 0.5f, 0.0f, 1.0f);
            sv.invW = invW;
            sv.color = cv.color;
            sv.texcoord = cv.texcoord;
            sv.diffuse = cv.diffuse;
            return sv;
        };

        for (std::size_t f = 1; f + 1 < poly.size(); f++) {
            Primitive prim;
            prim.v[0] = toShaded(poly[0]);
            prim.v[1] = toShaded(poly[f]);
            prim.v[2] = toShaded(poly[f + 1]);
            prim.drawIndex = 0; // caller fills in
            prim.firstVertex = t * 3;

            // Back-face culling (counter-clockwise front faces). 2D
            // workloads disable depth testing and draw CCW quads, so
            // this only removes genuinely back-facing 3D geometry.
            float area2 = prim.signedArea2();
            if (area2 == 0 || (draw.state.depthTest && area2 < 0)) {
                out.trianglesCulled++;
                continue;
            }
            out.primitives.push_back(prim);
        }
    }

    // As per-vertex charges would have left it: the counter exists
    // once a vertex was shaded.
    if (out.verticesShaded)
        stats.inc("geometry.vertexShaderInstrs",
                  out.verticesShaded
                      * vertexShaderInstructions(draw.state.shader));
    stats.inc("geometry.verticesFetched", out.verticesFetched);
    stats.inc("geometry.verticesShaded", out.verticesShaded);
    stats.inc("geometry.trianglesIn", out.trianglesIn);
    stats.inc("geometry.trianglesCulled", out.trianglesCulled);
    stats.inc("geometry.primitivesOut", out.primitives.size());
    return out;
}

} // namespace regpu
