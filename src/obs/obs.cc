#include "obs/obs.hh"

#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"

namespace regpu
{

namespace obs_detail
{

std::atomic<bool> enabledFlag{false};
std::atomic<bool> tileDetailFlag{false};

void
writeJsonString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeJsonDouble(std::ostream &os, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    os.write(buf, res.ptr - buf);
}

} // namespace obs_detail

u64
obsNowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

ObsSink &
ObsSink::instance()
{
    // Meyers singleton: thread-local ThreadCache destructors (any
    // thread, main included) are sequenced before static-duration
    // destruction, so releaseRing() never runs on a dead sink.
    static ObsSink sink;
    return sink;
}

void
ObsSink::enable(std::size_t eventsPerThread, bool tileDetail)
{
    MutexLock lock(mutex);
    ringEvents = eventsPerThread == 0 ? 1 : eventsPerThread;
    // Old rings are discarded wholesale; live ThreadCaches notice the
    // generation bump and re-attach, and releaseRing() ignores
    // pointers it no longer owns.
    rings.clear();
    internPool.clear();
    internIndex.clear();
    epochNs = obsNowNs();
    generation.fetch_add(1, std::memory_order_release);
    obs_detail::tileDetailFlag.store(tileDetail,
                                     std::memory_order_relaxed);
    obs_detail::enabledFlag.store(true, std::memory_order_relaxed);
}

void
ObsSink::disable()
{
    obs_detail::enabledFlag.store(false, std::memory_order_relaxed);
    obs_detail::tileDetailFlag.store(false, std::memory_order_relaxed);
}

ObsThreadRing *
ObsSink::ring()
{
    thread_local ThreadCache cache;
    if (cache.buf && cache.owner == this
        && cache.gen == generation.load(std::memory_order_acquire))
        return cache.buf;

    MutexLock lock(mutex);
    // Prefer a parked ring (its owner thread exited): worker pools
    // that come and go across a sweep reuse a bounded set of rings —
    // and of tids — instead of growing one ring per short-lived
    // thread. The successor appends after the predecessor's events
    // under the predecessor's tid, which is exactly OS-tid-reuse
    // semantics and keeps tids dense.
    ObsThreadRing *r = nullptr;
    for (auto &owned : rings) {
        if (owned->parked) {
            r = owned.get();
            break;
        }
    }
    if (r) {
        r->parked = false;
        if (r->events.size() != ringEvents)
            r->events.resize(ringEvents);
    } else {
        rings.push_back(std::make_unique<ObsThreadRing>(
            static_cast<u32>(rings.size()), ringEvents));
        r = rings.back().get();
    }
    cache.owner = this;
    cache.buf = r;
    cache.gen = generation.load(std::memory_order_relaxed);
    return r;
}

void
ObsSink::releaseRing(ObsThreadRing *r)
{
    MutexLock lock(mutex);
    // The cache may be stale: enable() rebuilds the ring set, so only
    // park pointers the sink still owns.
    for (auto &owned : rings) {
        if (owned.get() == r) {
            r->parked = true;
            return;
        }
    }
}

const char *
ObsSink::intern(std::string_view s)
{
    MutexLock lock(mutex);
    auto it = internIndex.find(s);
    if (it != internIndex.end())
        return it->second;
    internPool.emplace_back(s);
    const char *stable = internPool.back().c_str();
    internIndex.emplace(std::string(s), stable);
    return stable;
}

u64
ObsSink::droppedEvents() const
{
    MutexLock lock(mutex);
    u64 total = 0;
    for (const auto &r : rings)
        total += r->dropped;
    return total;
}

std::size_t
ObsSink::threadCount() const
{
    MutexLock lock(mutex);
    return rings.size();
}

namespace
{

using obs_detail::writeJsonDouble;
using obs_detail::writeJsonString;

/** Trace-event timestamps are microseconds (double). */
double
toMicros(u64 ns)
{
    return static_cast<double>(ns) / 1000.0;
}

void
writeEventLine(std::ostream &os, const ObsEvent &e, u32 tid, u64 epochNs,
               bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    const u64 rel = e.tsNs >= epochNs ? e.tsNs - epochNs : 0;

    os << "{\"name\":";
    writeJsonString(os, e.name);
    os << ",\"cat\":";
    writeJsonString(os, e.cat);
    os << ",\"ph\":\"";
    switch (e.kind) {
      case ObsEvent::Kind::Span: os << 'X'; break;
      case ObsEvent::Kind::Counter: os << 'C'; break;
      case ObsEvent::Kind::Instant: os << 'i'; break;
    }
    os << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":";
    writeJsonDouble(os, toMicros(rel));
    if (e.kind == ObsEvent::Kind::Span) {
        os << ",\"dur\":";
        writeJsonDouble(os, toMicros(e.durNs));
    }
    if (e.kind == ObsEvent::Kind::Instant)
        os << ",\"s\":\"t\"";

    os << ",\"args\":{";
    if (e.kind == ObsEvent::Kind::Counter) {
        os << "\"value\":";
        writeJsonDouble(os, e.value);
    } else {
        bool firstArg = true;
        if (e.argName0) {
            writeJsonString(os, e.argName0);
            os << ":" << e.argVal0;
            firstArg = false;
        }
        if (e.argName1) {
            if (!firstArg)
                os << ",";
            writeJsonString(os, e.argName1);
            os << ":" << e.argVal1;
        }
    }
    os << "}}";
}

void
writeThreadMeta(std::ostream &os, u32 tid, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << tid << ",\"ts\":0,\"args\":{\"name\":\"obs-thread-" << tid
       << "\"}}";
}

} // namespace

void
ObsSink::writeTraceJson(std::ostream &os)
{
    MutexLock lock(mutex);

    u64 droppedTotal = 0;
    for (const auto &r : rings)
        droppedTotal += r->dropped;
    if (droppedTotal > 0)
        warn("obs: ", droppedTotal, " timeline events dropped on ring "
             "overflow; enable the sink with a larger per-thread "
             "capacity to capture everything");

    os << "{\n\"displayTimeUnit\":\"ms\",\n"
       << "\"otherData\":{\"tool\":\"regpu-obs\",\"droppedEvents\":\""
       << droppedTotal << "\",\"threads\":\"" << rings.size()
       << "\"},\n\"traceEvents\":[\n";

    bool first = true;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"tid\":0,\"ts\":0,\"args\":{\"name\":\"regpu\"}}";
    first = false;
    for (const auto &r : rings)
        writeThreadMeta(os, r->tid, first);
    for (const auto &r : rings) {
        for (std::size_t i = 0; i < r->count; i++)
            writeEventLine(os, r->events[i], r->tid, epochNs, first);
        r->count = 0;  // a second flush must not duplicate events
    }
    os << "\n]}\n";
}

bool
ObsSink::flushToFile(const std::string &path)
{
    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    writeTraceJson(out);
    return static_cast<bool>(out);
}

} // namespace regpu
