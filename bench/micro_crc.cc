/**
 * @file
 * Host-side microbenchmarks (google-benchmark) of the signature
 * datapath models: Sign/Shift subunits, Compute and Accumulate CRC
 * units, full-message tabular CRC, and the weak-hash alternatives.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "crc/crc32_backend.hh"
#include "crc/hashes.hh"
#include "crc/units.hh"

using namespace regpu;

namespace
{

std::vector<u8>
randomBytes(std::size_t n)
{
    Rng rng(n * 7919 + 1);
    std::vector<u8> v(n);
    for (auto &b : v)
        b = static_cast<u8>(rng.nextBounded(256));
    return v;
}

} // namespace

static void
BM_SignSubunit64(benchmark::State &state)
{
    const CrcTables &t = CrcTables::instance();
    u64 block = 0x0123456789abcdefull;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.signBlock64(block));
        block += 0x9e3779b97f4a7c15ull;
    }
}
BENCHMARK(BM_SignSubunit64);

static void
BM_ShiftSubunit(benchmark::State &state)
{
    const CrcTables &t = CrcTables::instance();
    u32 crc = 0xdeadbeef;
    for (auto _ : state) {
        crc = t.shift64(crc);
        benchmark::DoNotOptimize(crc);
    }
}
BENCHMARK(BM_ShiftSubunit);

static void
BM_ComputeCrcUnit(benchmark::State &state)
{
    auto msg = randomBytes(static_cast<std::size_t>(state.range(0)));
    ComputeCrcUnit unit;
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.sign(msg).crc);
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ComputeCrcUnit)->Arg(64)->Arg(144)->Arg(1024);

static void
BM_AccumulateCrcUnit(benchmark::State &state)
{
    AccumulateCrcUnit unit;
    u32 crc = 0x12345678;
    for (auto _ : state) {
        crc = unit.accumulate(crc, static_cast<u32>(state.range(0)));
        benchmark::DoNotOptimize(crc);
    }
}
BENCHMARK(BM_AccumulateCrcUnit)->Arg(8)->Arg(18);

static void
BM_Crc32Reference(benchmark::State &state)
{
    auto msg = randomBytes(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32Reference(msg));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32Reference)->Arg(144);

// One-shot tabular CRC through the slice-by-8 streaming core. The
// aligned sizes are directly comparable with the retired
// zero-padding implementation (same message, same block count); the
// unaligned sizes additionally exercise the byte-serial tail.
static void
BM_Crc32Tabular(benchmark::State &state)
{
    auto msg = randomBytes(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32Tabular(msg));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32Tabular)
    ->Arg(64)->Arg(144)->Arg(1024)        // 8-byte-multiple inputs
    ->Arg(20)->Arg(28)->Arg(70)->Arg(1001); // unaligned tails

// The fragment-signature shape: serialise ~28 bytes of shader inputs
// into a fixed stack buffer and hash once. This is the per-fragment
// hot path of the memoization comparison point.
static void
BM_Crc32FragmentShapeStackBuffer(benchmark::State &state)
{
    Rng rng(7);
    u32 words[7];
    for (auto &w : words)
        w = static_cast<u32>(rng.next());
    for (auto _ : state) {
        u8 buf[28];
        for (int i = 0; i < 7; i++) {
            std::memcpy(buf + 4 * i, &words[i], 4);
            words[i] += 0x9e3779b9u;
        }
        benchmark::DoNotOptimize(crc32Tabular({buf, 28}));
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 28);
}
BENCHMARK(BM_Crc32FragmentShapeStackBuffer);

// The retired shape of the same computation: build a throwaway
// std::vector<u8> message per signature. The delta against the
// stack-buffer variant is the per-signature allocation cost the
// streaming subsystem removed.
static void
BM_Crc32FragmentShapeHeapVector(benchmark::State &state)
{
    Rng rng(7);
    u32 words[7];
    for (auto &w : words)
        w = static_cast<u32>(rng.next());
    for (auto _ : state) {
        std::vector<u8> buf(28);
        for (int i = 0; i < 7; i++) {
            std::memcpy(buf.data() + 4 * i, &words[i], 4);
            words[i] += 0x9e3779b9u;
        }
        benchmark::DoNotOptimize(crc32Tabular(buf));
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 28);
}
BENCHMARK(BM_Crc32FragmentShapeHeapVector);

// Incremental streaming in small chunks (the TE tile-color path
// feeds 64-byte stack chunks).
static void
BM_Crc32StreamChunked(benchmark::State &state)
{
    auto msg = randomBytes(1024);
    const std::size_t chunk = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        Crc32Stream stream;
        std::size_t pos = 0;
        while (pos < msg.size()) {
            std::size_t take = std::min(chunk, msg.size() - pos);
            stream.update({msg.data() + pos, take});
            pos += take;
        }
        benchmark::DoNotOptimize(stream.value());
    }
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * 1024);
}
BENCHMARK(BM_Crc32StreamChunked)->Arg(64)->Arg(20);

// Byte-exact combine (Algorithm 1) at the Signature Unit's real block
// lengths: 70-byte constants, 144-byte primitive attributes.
static void
BM_Crc32CombineBytes(benchmark::State &state)
{
    u32 a = 0x12345678, b = 0x9abcdef0;
    const u64 lenB = static_cast<u64>(state.range(0));
    for (auto _ : state) {
        a = crc32Combine(a, b, lenB);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_Crc32CombineBytes)->Arg(70)->Arg(144);

// Bulk-append throughput per CRC backend (crc/crc32_backend.hh). Arg0
// selects the backend, Arg1 the message length; backends the build or
// CPU lacks are skipped, so the suite runs everywhere and reports
// exactly the paths this machine can take. The portable row is the
// slice-by-8 baseline every hardware path must beat for the runtime
// dispatch to be worth its branch.
static void
BM_Crc32BackendBulk(benchmark::State &state)
{
    const CrcBackend backend =
        static_cast<CrcBackend>(state.range(0));
    if (!crcBackendAvailable(backend)) {
        state.SkipWithError("backend not available on this machine");
        return;
    }
    auto msg = randomBytes(static_cast<std::size_t>(state.range(1)));
    u32 crc = 0;
    for (auto _ : state) {
        crc = crc32AppendWith(backend, crc, msg.data(), msg.size());
        benchmark::DoNotOptimize(crc);
    }
    state.SetLabel(crcBackendName(backend));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * state.range(1));
}
BENCHMARK(BM_Crc32BackendBulk)
    ->ArgsProduct({{static_cast<int>(CrcBackend::Portable),
                    static_cast<int>(CrcBackend::Clmul),
                    static_cast<int>(CrcBackend::ArmCrc)},
                   {64, 1024, 65536}});

// The dispatched path end-to-end: Crc32Stream::update() as the TE
// tile-signature loop calls it, which hands chunks of >= 64 bytes to
// the active backend (BM_Crc32BackendBulk/0 is the portable baseline
// for comparison).
static void
BM_Crc32StreamBulkDispatch(benchmark::State &state)
{
    auto msg = randomBytes(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        Crc32Stream stream;
        stream.update(msg);
        benchmark::DoNotOptimize(stream.value());
    }
    state.SetLabel(crcBackendName(crcActiveBackend()));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32StreamBulkDispatch)->Arg(1024)->Arg(65536);

static void
BM_HashBlock(benchmark::State &state)
{
    auto msg = randomBytes(144);
    HashKind kind = static_cast<HashKind>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(hashBlock(kind, msg));
    state.SetLabel(hashKindName(kind));
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations()) * 144);
}
BENCHMARK(BM_HashBlock)
    ->Arg(static_cast<int>(HashKind::Crc32))
    ->Arg(static_cast<int>(HashKind::XorFold))
    ->Arg(static_cast<int>(HashKind::AddFold))
    ->Arg(static_cast<int>(HashKind::Fnv1a));

BENCHMARK_MAIN();
