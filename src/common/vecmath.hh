/**
 * @file
 * Small fixed-size vector/matrix math used by the functional pipeline.
 */

#ifndef REGPU_COMMON_VECMATH_HH
#define REGPU_COMMON_VECMATH_HH

#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"

namespace regpu
{

/** 2-component float vector. */
struct Vec2
{
    float x = 0, y = 0;

    constexpr Vec2() = default;
    constexpr Vec2(float x_, float y_) : x(x_), y(y_) {}

    constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
    constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
    constexpr Vec2 operator*(float s) const { return {x * s, y * s}; }
    constexpr bool operator==(const Vec2 &) const = default;
};

/** 3-component float vector. */
struct Vec3
{
    float x = 0, y = 0, z = 0;

    constexpr Vec3() = default;
    constexpr Vec3(float x_, float y_, float z_) : x(x_), y(y_), z(z_) {}

    constexpr Vec3 operator+(Vec3 o) const
    { return {x + o.x, y + o.y, z + o.z}; }
    constexpr Vec3 operator-(Vec3 o) const
    { return {x - o.x, y - o.y, z - o.z}; }
    constexpr Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
    constexpr bool operator==(const Vec3 &) const = default;

    constexpr float dot(Vec3 o) const { return x*o.x + y*o.y + z*o.z; }

    constexpr Vec3
    cross(Vec3 o) const
    {
        return {y*o.z - z*o.y, z*o.x - x*o.z, x*o.y - y*o.x};
    }

    float length() const { return std::sqrt(dot(*this)); }

    Vec3
    normalized() const
    {
        float len = length();
        return len > 0 ? *this * (1.0f / len) : Vec3{};
    }
};

/** 4-component float vector (homogeneous position / RGBA color). */
struct Vec4
{
    float x = 0, y = 0, z = 0, w = 0;

    constexpr Vec4() = default;
    constexpr Vec4(float x_, float y_, float z_, float w_)
        : x(x_), y(y_), z(z_), w(w_) {}
    constexpr Vec4(Vec3 v, float w_) : x(v.x), y(v.y), z(v.z), w(w_) {}

    constexpr Vec4 operator+(Vec4 o) const
    { return {x + o.x, y + o.y, z + o.z, w + o.w}; }
    constexpr Vec4 operator-(Vec4 o) const
    { return {x - o.x, y - o.y, z - o.z, w - o.w}; }
    constexpr Vec4 operator*(float s) const
    { return {x * s, y * s, z * s, w * s}; }
    constexpr bool operator==(const Vec4 &) const = default;

    constexpr float dot(Vec4 o) const
    { return x*o.x + y*o.y + z*o.z + w*o.w; }

    constexpr Vec3 xyz() const { return {x, y, z}; }

    constexpr float
    operator[](int i) const
    {
        return i == 0 ? x : i == 1 ? y : i == 2 ? z : w;
    }
};

/**
 * Four float lanes in one SIMD register (GCC/Clang vector extension).
 * Each operator performs, lane by lane, the IEEE operation the scalar
 * Vec4 code performs on that component, so as long as an expression
 * keeps the scalar code's operation order, its lanes equal the scalar
 * results bit for bit (the build pins -ffp-contract=off, so neither
 * side is fused into an FMA). A scalar operand is broadcast.
 */
using Lanes4 = float __attribute__((vector_size(16)));

/** Integer lanes matching Lanes4, for __builtin_convertvector. A
 *  Lanes4 comparison yields these: -1 where it holds, else 0. */
using I32Lanes4 = i32 __attribute__((vector_size(16)));

/** Unsigned lanes matching Lanes4: wrapping u32 index arithmetic. */
using U32Lanes4 = u32 __attribute__((vector_size(16)));

/** Linear interpolation. */
constexpr float lerp(float a, float b, float t) { return a + (b - a) * t; }
constexpr Vec2 lerp(Vec2 a, Vec2 b, float t) { return a + (b - a) * t; }
constexpr Vec3 lerp(Vec3 a, Vec3 b, float t) { return a + (b - a) * t; }
constexpr Vec4 lerp(Vec4 a, Vec4 b, float t) { return a + (b - a) * t; }
inline Lanes4 lerp(Lanes4 a, Lanes4 b, Lanes4 t) { return a + (b - a) * t; }

/** Clamp helper. */
constexpr float
clampf(float v, float lo, float hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

/**
 * Column-major 4x4 matrix (OpenGL convention): m[col][row].
 */
struct Mat4
{
    float m[4][4] = {};

    /** Identity matrix. */
    static constexpr Mat4
    identity()
    {
        Mat4 r;
        for (int i = 0; i < 4; i++)
            r.m[i][i] = 1.0f;
        return r;
    }

    /** Uniform/non-uniform scale. */
    static constexpr Mat4
    scale(float sx, float sy, float sz)
    {
        Mat4 r;
        r.m[0][0] = sx;
        r.m[1][1] = sy;
        r.m[2][2] = sz;
        r.m[3][3] = 1.0f;
        return r;
    }

    /** Translation. */
    static constexpr Mat4
    translate(float tx, float ty, float tz)
    {
        Mat4 r = identity();
        r.m[3][0] = tx;
        r.m[3][1] = ty;
        r.m[3][2] = tz;
        return r;
    }

    /** Rotation about Z (radians). */
    static Mat4
    rotateZ(float rad)
    {
        Mat4 r = identity();
        float c = std::cos(rad), s = std::sin(rad);
        r.m[0][0] = c; r.m[0][1] = s;
        r.m[1][0] = -s; r.m[1][1] = c;
        return r;
    }

    /** Rotation about Y (radians). */
    static Mat4
    rotateY(float rad)
    {
        Mat4 r = identity();
        float c = std::cos(rad), s = std::sin(rad);
        r.m[0][0] = c; r.m[0][2] = -s;
        r.m[2][0] = s; r.m[2][2] = c;
        return r;
    }

    /** Right-handed perspective projection (like gluPerspective). */
    static Mat4
    perspective(float fovyRad, float aspect, float zNear, float zFar)
    {
        REGPU_ASSERT(zFar > zNear && zNear > 0);
        Mat4 r;
        float f = 1.0f / std::tan(fovyRad / 2.0f);
        r.m[0][0] = f / aspect;
        r.m[1][1] = f;
        r.m[2][2] = (zFar + zNear) / (zNear - zFar);
        r.m[2][3] = -1.0f;
        r.m[3][2] = 2.0f * zFar * zNear / (zNear - zFar);
        return r;
    }

    /** Orthographic projection (like glOrtho). */
    static Mat4
    ortho(float l, float r_, float b, float t, float n, float f)
    {
        Mat4 r;
        r.m[0][0] = 2.0f / (r_ - l);
        r.m[1][1] = 2.0f / (t - b);
        r.m[2][2] = -2.0f / (f - n);
        r.m[3][0] = -(r_ + l) / (r_ - l);
        r.m[3][1] = -(t + b) / (t - b);
        r.m[3][2] = -(f + n) / (f - n);
        r.m[3][3] = 1.0f;
        return r;
    }

    /** Camera look-at view matrix. */
    static Mat4
    lookAt(Vec3 eye, Vec3 center, Vec3 up)
    {
        Vec3 fwd = (center - eye).normalized();
        Vec3 side = fwd.cross(up).normalized();
        Vec3 u = side.cross(fwd);
        Mat4 r = identity();
        r.m[0][0] = side.x; r.m[1][0] = side.y; r.m[2][0] = side.z;
        r.m[0][1] = u.x;    r.m[1][1] = u.y;    r.m[2][1] = u.z;
        r.m[0][2] = -fwd.x; r.m[1][2] = -fwd.y; r.m[2][2] = -fwd.z;
        r.m[3][0] = -side.dot(eye);
        r.m[3][1] = -u.dot(eye);
        r.m[3][2] = fwd.dot(eye);
        return r;
    }

    /** Matrix product: this * o. */
    Mat4
    operator*(const Mat4 &o) const
    {
        Mat4 r;
        for (int c = 0; c < 4; c++) {
            for (int row = 0; row < 4; row++) {
                float acc = 0;
                for (int k = 0; k < 4; k++)
                    acc += m[k][row] * o.m[c][k];
                r.m[c][row] = acc;
            }
        }
        return r;
    }

    /** Matrix-vector product. */
    Vec4
    operator*(Vec4 v) const
    {
        Vec4 r;
        r.x = m[0][0]*v.x + m[1][0]*v.y + m[2][0]*v.z + m[3][0]*v.w;
        r.y = m[0][1]*v.x + m[1][1]*v.y + m[2][1]*v.z + m[3][1]*v.w;
        r.z = m[0][2]*v.x + m[1][2]*v.y + m[2][2]*v.z + m[3][2]*v.w;
        r.w = m[0][3]*v.x + m[1][3]*v.y + m[2][3]*v.z + m[3][3]*v.w;
        return r;
    }

    bool operator==(const Mat4 &) const = default;
};

} // namespace regpu

#endif // REGPU_COMMON_VECMATH_HH
