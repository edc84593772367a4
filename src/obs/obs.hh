/**
 * @file
 * Observability core: timeline tracing for the whole simulator.
 *
 * A process-wide ObsSink collects trace events — RAII ObsScope spans,
 * counter samples and instants — into preallocated per-thread rings
 * and flushes them as Chrome trace-event JSON (loadable in
 * chrome://tracing and Perfetto). The layer is always compiled and
 * near-free when disabled: every emit site starts with one relaxed
 * atomic load, and the recording path performs no allocations and
 * takes no locks (a thread locks the sink exactly once to attach its
 * ring, consistent with the PR 2 zero-alloc discipline).
 *
 * Observability never feeds back into simulation: events carry copies
 * of simulator state, so enabling the sink cannot perturb results —
 * CSV/JSON outputs stay bit-identical with tracing on or off, for any
 * worker count.
 *
 * Threading contract: enable(), disable() and flush members may only
 * be called while no instrumented work is running (worker pools
 * joined). Recording itself is thread-safe: each thread writes only
 * its own ring.
 */

#ifndef REGPU_OBS_OBS_HH
#define REGPU_OBS_OBS_HH

#include <atomic>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"

namespace regpu
{

namespace obs_detail
{
/** Process-wide recording gate; read with one relaxed load per emit
 *  site, written only by ObsSink::enable()/disable(). */
extern std::atomic<bool> enabledFlag;
/** Per-tile detail gate (tile spans / RE-skip instants): orders of
 *  magnitude more events than the coarse spans, so opt-in. */
extern std::atomic<bool> tileDetailFlag;

/** Minimal JSON string writer (quotes, backslashes, control chars)
 *  shared by the obs emitters and sim/report.cc's JSON writer. */
void writeJsonString(std::ostream &os, std::string_view s);

/** Write @p v as the shortest decimal that parses back to exactly the
 *  same double (std::to_chars), whatever the stream's format state.
 *  Non-finite values are written as 0: "inf" and "nan" are neither
 *  JSON nor CSV numbers. Shared with sim/report.cc's CSV and JSON. */
void writeJsonDouble(std::ostream &os, double v);
} // namespace obs_detail

/** True when the timeline sink is recording (the only cost every
 *  instrumented hot path pays when observability is off). */
inline bool
obsEnabled()
{
    return obs_detail::enabledFlag.load(std::memory_order_relaxed);
}

/** True when per-tile detail events (tile spans, RE skip instants)
 *  should be recorded; implies obsEnabled(). */
inline bool
obsTileDetail()
{
    return obs_detail::tileDetailFlag.load(std::memory_order_relaxed);
}

/** Monotonic wall-clock in nanoseconds (the one sanctioned clock
 *  read: scripts/lint.py's obs-scope rule keeps hand-rolled
 *  std::chrono pairs out of src/). Also used for host-side pacing
 *  such as ProgressTracker. */
u64 obsNowNs();

/** One recorded trace event (fixed-size POD; name/cat must be string
 *  literals or ObsSink::intern() results — the ring stores pointers,
 *  not copies). */
struct ObsEvent
{
    enum class Kind : u8 {
        Span,     //!< ph "X": tsNs..tsNs+durNs
        Counter,  //!< ph "C": value sampled at tsNs
        Instant,  //!< ph "i": thread-scoped point event
    };

    const char *cat = "";
    const char *name = "";
    u64 tsNs = 0;
    u64 durNs = 0;
    Kind kind = Kind::Span;
    double value = 0.0;           //!< Counter payload
    const char *argName0 = nullptr;
    const char *argName1 = nullptr;
    i64 argVal0 = 0;
    i64 argVal1 = 0;
};

/**
 * Preallocated single-producer event ring of one thread. Push is a
 * bounds check + copy; overflow drops the event and counts it.
 * Readers (flush) run only after the owning thread has quiesced — see
 * the file-top threading contract.
 */
class ObsThreadRing
{
  public:
    ObsThreadRing(u32 tid_, std::size_t capacity)
        : tid(tid_)
    {
        events.resize(capacity);
    }

    bool
    push(const ObsEvent &e)
    {
        if (count >= events.size()) {
            dropped++;
            return false;
        }
        events[count++] = e;
        return true;
    }

    u32 tid;
    std::vector<ObsEvent> events;
    std::size_t count = 0;
    u64 dropped = 0;
    bool parked = false;  //!< owning thread exited; reusable
};

/**
 * The process-wide timeline sink. Owns every thread ring, the interned
 * strings events may point at, and the trace-event JSON writer.
 *
 * Lock discipline (compile-enforced under clang -Wthread-safety): the
 * ring registry, intern pool and epoch are REGPU_GUARDED_BY(mutex);
 * every public member that touches them takes the lock itself and is
 * REGPU_EXCLUDES(mutex). The record path stays lock-free: it only
 * dereferences the thread-local cached ring pointer, and each ring is
 * single-producer (written by its owning thread alone).
 */
class ObsSink
{
  public:
    static ObsSink &instance();

    /**
     * Start recording. @p eventsPerThread sizes each thread's ring
     * (overflowing events are dropped and counted, never allocated);
     * @p tileDetail additionally records per-tile spans/instants.
     * Discards anything recorded by a previous enable() that was
     * never flushed.
     */
    void enable(std::size_t eventsPerThread = defaultRingEvents,
                bool tileDetail = false) REGPU_EXCLUDES(mutex);

    /** Stop recording (buffered events stay available for flush). */
    void disable();

    /** Record one event into the calling thread's ring. */
    void
    record(const ObsEvent &e) REGPU_EXCLUDES(mutex)
    {
        // ring() locks only on this thread's first visit per
        // generation; steady-state recording is lock-free.
        ring()->push(e);
    }

    /**
     * Copy @p s into sink-owned storage and return a stable pointer
     * usable as an event name/cat. Deduplicated; takes the sink lock,
     * so intern per chunky unit of work (e.g. once per job), not per
     * event.
     */
    const char *intern(std::string_view s) REGPU_EXCLUDES(mutex);

    /** Write everything recorded since enable() as trace-event JSON
     *  ("traceEvents" object form, one event per line). Clears the
     *  rings so a second flush does not duplicate events. */
    void writeTraceJson(std::ostream &os) REGPU_EXCLUDES(mutex);

    /** writeTraceJson into @p path (directories created); returns
     *  false when the file cannot be opened. */
    bool flushToFile(const std::string &path) REGPU_EXCLUDES(mutex);

    /** Events dropped on ring overflow since enable(). */
    u64 droppedEvents() const REGPU_EXCLUDES(mutex);

    /** Rings ever attached since enable() (== peak thread count). */
    std::size_t threadCount() const REGPU_EXCLUDES(mutex);

    static constexpr std::size_t defaultRingEvents = 1u << 15;

  private:
    ObsSink() = default;

    ObsThreadRing *ring() REGPU_EXCLUDES(mutex);
    void releaseRing(ObsThreadRing *r) REGPU_EXCLUDES(mutex);

    struct ThreadCache
    {
        ObsSink *owner = nullptr;
        ObsThreadRing *buf = nullptr;
        u64 gen = 0;
        ~ThreadCache()
        {
            if (owner && buf)
                owner->releaseRing(buf);
        }
    };

    mutable Mutex mutex;
    std::vector<std::unique_ptr<ObsThreadRing>> rings
        REGPU_GUARDED_BY(mutex);
    std::deque<std::string> internPool REGPU_GUARDED_BY(mutex);
    std::map<std::string, const char *, std::less<>> internIndex
        REGPU_GUARDED_BY(mutex);
    std::size_t ringEvents REGPU_GUARDED_BY(mutex) = defaultRingEvents;
    u64 epochNs REGPU_GUARDED_BY(mutex) = 0;
    std::atomic<u64> generation{0};
};

/**
 * RAII span: records one complete ("X") trace event covering its
 * lifetime. Near-free when the sink is disabled (one relaxed load in
 * the constructor; destructor checks a member bool). @p cat and
 * @p name must outlive the flush: string literals or intern() results.
 * Up to two integer args are attached (jobId / frame / technique...).
 */
class ObsScope
{
  public:
    ObsScope(const char *cat, const char *name,
             const char *argName0 = nullptr, i64 argVal0 = 0,
             const char *argName1 = nullptr, i64 argVal1 = 0)
    {
        if (!obsEnabled())
            return;
        armed = true;
        ev.cat = cat;
        ev.name = name;
        ev.argName0 = argName0;
        ev.argVal0 = argVal0;
        ev.argName1 = argName1;
        ev.argVal1 = argVal1;
        ev.tsNs = obsNowNs();
    }

    ObsScope(const ObsScope &) = delete;
    ObsScope &operator=(const ObsScope &) = delete;

    ~ObsScope()
    {
        if (!armed)
            return;
        ev.durNs = obsNowNs() - ev.tsNs;
        ObsSink::instance().record(ev);
    }

  private:
    ObsEvent ev;
    bool armed = false;
};

/** Record a counter sample (ph "C": Perfetto draws a counter track). */
inline void
obsCounter(const char *cat, const char *name, double value)
{
    if (!obsEnabled())
        return;
    ObsEvent ev;
    ev.kind = ObsEvent::Kind::Counter;
    ev.cat = cat;
    ev.name = name;
    ev.tsNs = obsNowNs();
    ev.value = value;
    ObsSink::instance().record(ev);
}

/** Record a thread-scoped instant event. */
inline void
obsInstant(const char *cat, const char *name,
           const char *argName0 = nullptr, i64 argVal0 = 0)
{
    if (!obsEnabled())
        return;
    ObsEvent ev;
    ev.kind = ObsEvent::Kind::Instant;
    ev.cat = cat;
    ev.name = name;
    ev.tsNs = obsNowNs();
    ev.argName0 = argName0;
    ev.argVal0 = argVal0;
    ObsSink::instance().record(ev);
}

} // namespace regpu

#endif // REGPU_OBS_OBS_HH
