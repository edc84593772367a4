#include "layer_trace.hh"

#include <algorithm>
#include <atomic>

namespace perfbench
{

namespace
{

std::atomic<u64> nextGeneration{1};
thread_local ThreadAcc *tlsAcc = nullptr;
thread_local u64 tlsGeneration = 0;

} // namespace

LayerClock::LayerClock() : generation(nextGeneration++)
{
    callerAcc = &local();
}

ThreadAcc &
LayerClock::local()
{
    if (tlsGeneration != generation) {
        std::lock_guard<std::mutex> lock(mutex);
        tlsAcc = &accs.emplace_back();
        tlsGeneration = generation;
    }
    return *tlsAcc;
}

ThreadAcc
LayerClock::total() const
{
    std::lock_guard<std::mutex> lock(mutex);
    ThreadAcc sum;
    const ThreadAcc zero;
    for (const ThreadAcc &a : accs)
        sum.addDelta(a, zero);
    return sum;
}

ProbeCost
calibrateProbe()
{
    constexpr int batches = 15;
    constexpr int scopes = 20000;
    std::vector<double> in, out;
    LayerClock clock;
    ThreadAcc &acc = clock.local();
    for (int b = 0; b < batches; b++) {
        const u64 ns0 = acc.ns[Emit];
        const u64 t0 = nowNs();
        for (int i = 0; i < scopes; i++)
            Timed t(clock, Emit);
        const u64 t1 = nowNs();
        const double inside = static_cast<double>(acc.ns[Emit] - ns0);
        in.push_back(inside / scopes);
        out.push_back((static_cast<double>(t1 - t0) - inside) / scopes);
    }
    auto median = [](std::vector<double> &v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    };
    ProbeCost cost;
    cost.inNs = median(in);
    cost.outNs = median(out);

    // Decorator + recording cost per mem event, over a sink that does
    // nothing: wall time of the calls minus what the batch probes
    // account for (the replay, charged to Mem, and their own cost).
    regpu::NullMemSink null;
    TimedMemSink sink(null, clock, 64, 4);
    std::vector<double> record;
    for (int b = 0; b < batches; b++) {
        const ThreadAcc before = acc;
        const u64 t0 = nowNs();
        for (int i = 0; i < scopes; i++)
            sink.texelFetch(static_cast<u32>(i & 3),
                            static_cast<regpu::Addr>(i) * 16);
        sink.flush();
        const u64 t1 = nowNs();
        const double probed =
            static_cast<double>(acc.ns[Mem] - before.ns[Mem])
            + cost.outNs
                * static_cast<double>(acc.probes[Mem] - before.probes[Mem]);
        record.push_back((static_cast<double>(t1 - t0) - probed) / scopes);
    }
    cost.recordNs = median(record);
    return cost;
}

} // namespace perfbench
