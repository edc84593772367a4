#include "gpu/tile_pool.hh"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "obs/obs.hh"

namespace regpu
{

namespace
{

/** Shared pool state for one batch: per-index done flags published by
 *  workers, consumed in order by the merging caller, and first-exception
 *  capture. The condition variable pairs with the annotated mutex; it
 *  needs no capability annotation of its own (waiting releases/reacquires
 *  the mutex internally, invisible to — and safe under — the analysis). */
struct BatchState
{
    Mutex mutex;
    std::condition_variable_any ready;
    std::vector<u8> done REGPU_GUARDED_BY(mutex);
    std::exception_ptr firstError REGPU_GUARDED_BY(mutex);
};

} // namespace

void
runOrdered(std::size_t count, unsigned jobs,
           const std::function<void(std::size_t)> &step,
           const std::function<void(std::size_t)> &merge,
           const char *workerSpan)
{
    if (jobs > count)
        jobs = static_cast<unsigned>(count);
    if (jobs <= 1) {
        // The serial loop, definitionally: each step and its merge
        // back-to-back, ascending.
        for (std::size_t i = 0; i < count; i++) {
            step(i);
            merge(i);
        }
        return;
    }

    BatchState state;
    {
        MutexLock lock(state.mutex);
        state.done.assign(count, 0);
    }
    // Claim counter: the sanctioned lone-atomic pattern — claim order
    // is a race by design, and nothing downstream depends on it
    // because the merge below is order-fixed.
    std::atomic<std::size_t> next{0};

    auto workerLoop = [&](unsigned workerIndex) {
        std::optional<ObsScope> span;
        if (workerSpan)
            span.emplace("gpu", workerSpan, "worker",
                         static_cast<i64>(workerIndex), "tiles",
                         static_cast<i64>(count));
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            bool failed = false;
            try {
                step(i);
            } catch (...) {
                failed = true;
                MutexLock lock(state.mutex);
                if (!state.firstError)
                    state.firstError = std::current_exception();
            }
            {
                MutexLock lock(state.mutex);
                // A failed step still publishes "done" so the merging
                // caller wakes up and sees the error instead of
                // blocking on a result that will never come.
                state.done[i] = failed ? 2 : 1;
            }
            state.ready.notify_all();
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned w = 0; w < jobs; w++)
        workers.emplace_back(workerLoop, w);

    // Eager in-order merge: wait for index i, fold it, move on. A
    // merge callback that throws must still join the pool before the
    // exception propagates, so the loop records rather than throws.
    std::exception_ptr mergeError;
    for (std::size_t i = 0; i < count && !mergeError; i++) {
        bool stepFailed = false;
        {
            MutexLock lock(state.mutex);
            while (state.done[i] == 0 && !state.firstError)
                state.ready.wait(state.mutex);
            stepFailed = state.done[i] != 1
                || static_cast<bool>(state.firstError);
        }
        if (stepFailed)
            break;
        try {
            merge(i);
        } catch (...) {
            mergeError = std::current_exception();
        }
    }

    for (auto &worker : workers)
        worker.join();

    if (mergeError)
        std::rethrow_exception(mergeError);
    MutexLock lock(state.mutex);
    if (state.firstError)
        std::rethrow_exception(state.firstError);
}

} // namespace regpu
