/**
 * @file
 * Geometry Pipeline tests: transform, clipping, culling, viewport.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "gpu/geometry.hh"
#include "gpu/memiface.hh"
#include "gpu/shader.hh"

using namespace regpu;

namespace
{

/** A drawcall with one triangle at the given object-space positions. */
DrawCall
triangleDraw(Vec3 a, Vec3 b, Vec3 c, Mat4 mvp = Mat4::identity())
{
    DrawCall d;
    d.layout.hasTexcoord = true;
    Vertex va, vb, vc;
    va.position = a;
    vb.position = b;
    vc.position = c;
    d.vertices = {va, vb, vc};
    d.state.uniforms.mvp = mvp;
    return d;
}

struct GeoFixture : ::testing::Test
{
    GpuConfig config;
    StatRegistry stats;
    NullMemSink mem;

    GeoFixture()
    {
        config.scaleResolution(320, 240);
    }

    GeometryOutput
    run(const DrawCall &d)
    {
        GeometryPipeline geo(config, stats, &mem);
        return geo.process(d);
    }
};

} // namespace

TEST_F(GeoFixture, FullScreenTriangleSurvives)
{
    // NDC-space triangle covering the viewport (identity mvp).
    DrawCall d = triangleDraw({-1, -1, 0}, {3, -1, 0}, {-1, 3, 0});
    GeometryOutput out = run(d);
    ASSERT_EQ(out.primitives.size(), 1u);
    EXPECT_EQ(out.verticesShaded, 3u);
}

TEST_F(GeoFixture, ViewportTransformMapsNdcToPixels)
{
    DrawCall d = triangleDraw({-1, -1, 0}, {1, -1, 0}, {-1, 1, 0});
    GeometryOutput out = run(d);
    ASSERT_EQ(out.primitives.size(), 1u);
    const Primitive &p = out.primitives[0];
    EXPECT_NEAR(p.v[0].x, 0, 1e-3);
    EXPECT_NEAR(p.v[0].y, 0, 1e-3);
    EXPECT_NEAR(p.v[1].x, 320, 1e-3);
    EXPECT_NEAR(p.v[2].y, 240, 1e-3);
}

TEST_F(GeoFixture, OffscreenTriangleRejected)
{
    DrawCall d = triangleDraw({3, 3, 0}, {4, 3, 0}, {3, 4, 0});
    GeometryOutput out = run(d);
    EXPECT_TRUE(out.primitives.empty());
    EXPECT_EQ(out.trianglesCulled, 1u);
}

TEST_F(GeoFixture, BackFacingTriangleCulledWhenDepthTested)
{
    // Clockwise winding (swapped b/c), depth test on -> culled.
    DrawCall d = triangleDraw({-1, -1, 0}, {-1, 1, 0}, {1, -1, 0});
    d.state.depthTest = true;
    GeometryOutput out = run(d);
    EXPECT_TRUE(out.primitives.empty());
}

TEST_F(GeoFixture, BackFacingKeptFor2dDraws)
{
    // 2D sprite paths disable depth testing; winding must not cull.
    DrawCall d = triangleDraw({-1, -1, 0}, {-1, 1, 0}, {1, -1, 0});
    d.state.depthTest = false;
    GeometryOutput out = run(d);
    EXPECT_EQ(out.primitives.size(), 1u);
}

TEST_F(GeoFixture, DegenerateTriangleCulled)
{
    DrawCall d = triangleDraw({0, 0, 0}, {0.5, 0.5, 0}, {1, 1, 0});
    GeometryOutput out = run(d);
    EXPECT_TRUE(out.primitives.empty());
}

TEST_F(GeoFixture, NearPlaneClippingSplitsTriangle)
{
    // Perspective camera; one vertex behind the eye forces a clip.
    Mat4 proj = Mat4::perspective(1.0f, 4.0f / 3.0f, 0.5f, 100.0f);
    DrawCall d = triangleDraw({-2, -1, -5}, {2, -1, -5}, {0, 1, 2}, proj);
    GeometryOutput out = run(d);
    EXPECT_GE(out.trianglesClipped, 1u);
    // The visible part survives as one or more primitives.
    EXPECT_GE(out.primitives.size(), 1u);
    // All produced vertices must be in front of the near plane.
    for (const Primitive &p : out.primitives)
        for (int i = 0; i < 3; i++)
            EXPECT_GT(p.v[i].invW, 0.0f);
}

TEST_F(GeoFixture, FullyBehindCameraRejected)
{
    Mat4 proj = Mat4::perspective(1.0f, 1.0f, 0.5f, 100.0f);
    DrawCall d = triangleDraw({-1, -1, 5}, {1, -1, 5}, {0, 1, 5}, proj);
    GeometryOutput out = run(d);
    EXPECT_TRUE(out.primitives.empty());
}

TEST_F(GeoFixture, DepthMappedIntoUnitRange)
{
    Mat4 proj = Mat4::perspective(1.0f, 1.0f, 1.0f, 10.0f);
    DrawCall d = triangleDraw({-1, -1, -5}, {1, -1, -5}, {0, 1, -5}, proj);
    GeometryOutput out = run(d);
    ASSERT_EQ(out.primitives.size(), 1u);
    for (int i = 0; i < 3; i++) {
        EXPECT_GE(out.primitives[0].v[i].z, 0.0f);
        EXPECT_LE(out.primitives[0].v[i].z, 1.0f);
    }
}

TEST_F(GeoFixture, VaryingsCarriedThrough)
{
    DrawCall d = triangleDraw({-1, -1, 0}, {1, -1, 0}, {-1, 1, 0});
    d.layout.hasColor = true;
    d.vertices[0].color = {1, 0, 0, 1};
    d.vertices[1].color = {0, 1, 0, 1};
    d.vertices[2].texcoord = {0.25f, 0.75f};
    GeometryOutput out = run(d);
    ASSERT_EQ(out.primitives.size(), 1u);
    EXPECT_EQ(out.primitives[0].v[0].color, (Vec4{1, 0, 0, 1}));
    EXPECT_EQ(out.primitives[0].v[1].color, (Vec4{0, 1, 0, 1}));
    EXPECT_EQ(out.primitives[0].v[2].texcoord, (Vec2{0.25f, 0.75f}));
}

TEST_F(GeoFixture, UvScrollAppliedAtVertexStage)
{
    DrawCall d = triangleDraw({-1, -1, 0}, {1, -1, 0}, {-1, 1, 0});
    d.state.uniforms.uvOffsetS = 0.5f;
    d.state.uniforms.uvOffsetT = 0.25f;
    GeometryOutput out = run(d);
    ASSERT_EQ(out.primitives.size(), 1u);
    EXPECT_FLOAT_EQ(out.primitives[0].v[0].texcoord.x, 0.5f);
    EXPECT_FLOAT_EQ(out.primitives[0].v[0].texcoord.y, 0.25f);
}

TEST_F(GeoFixture, StatsCountVerticesAndTriangles)
{
    DrawCall d = triangleDraw({-1, -1, 0}, {1, -1, 0}, {-1, 1, 0});
    run(d);
    EXPECT_EQ(stats.counter("geometry.verticesShaded"), 3u);
    EXPECT_EQ(stats.counter("geometry.trianglesIn"), 1u);
}

TEST_F(GeoFixture, VertexShaderInstrsAreEachDrawsShadedVertices)
{
    // Charged once per draw: its shaded vertices times its shader's
    // instruction count, culled and offscreen triangles included. A
    // draw that shades no vertex leaves the counter uncreated.
    run(DrawCall{});
    EXPECT_FALSE(
        stats.allCounters().contains("geometry.vertexShaderInstrs"));
    const DrawCall offscreen =
        triangleDraw({3, 3, 0}, {4, 3, 0}, {3, 4, 0});
    u64 want = 0;
    for (ShaderKind kind :
         {ShaderKind::Flat, ShaderKind::VertexColor, ShaderKind::Textured,
          ShaderKind::TexModulate, ShaderKind::TexLit}) {
        DrawCall d = triangleDraw({-1, -1, 0}, {1, -1, 0}, {-1, 1, 0});
        d.vertices.insert(d.vertices.end(), offscreen.vertices.begin(),
                          offscreen.vertices.end());
        d.state.shader = kind;
        const GeometryOutput out = run(d);
        EXPECT_EQ(out.verticesShaded, 6u);
        want += out.verticesShaded * vertexShaderInstructions(kind);
        EXPECT_EQ(stats.counter("geometry.vertexShaderInstrs"), want);
    }
}

TEST(TriangleSerialize, LayoutSizesMatchPaperAccounting)
{
    // 3 attributes (position + color + texcoord) x 3 vertices x 16 B
    // = 144 B = 18 sub-blocks: the paper's "average primitive".
    DrawCall d;
    d.layout.hasColor = true;
    d.layout.hasTexcoord = true;
    d.vertices.resize(3);
    auto bytes = serializeTriangleAttributes(d, 0);
    EXPECT_EQ(bytes.size(), 144u);
}

TEST(TriangleSerialize, ByteStableForEqualInputs)
{
    DrawCall d;
    d.layout.hasTexcoord = true;
    d.vertices.resize(6);
    d.vertices[0].position = {1, 2, 3};
    d.vertices[3].position = {1, 2, 3};
    auto a = serializeTriangleAttributes(d, 0);
    auto b = serializeTriangleAttributes(d, 0);
    EXPECT_EQ(a, b);
}

TEST(TriangleSerialize, SensitiveToAnyAttributeChange)
{
    DrawCall d;
    d.layout.hasTexcoord = true;
    d.vertices.resize(3);
    auto before = serializeTriangleAttributes(d, 0);
    d.vertices[2].texcoord.y += 1e-6f;
    auto after = serializeTriangleAttributes(d, 0);
    EXPECT_NE(before, after);
}
