/**
 * @file
 * Compile-time thread-safety annotations + the annotated Mutex types.
 *
 * Clang's `-Wthread-safety` analysis turns lock discipline into a
 * compile-time property: every piece of shared state declares the
 * capability (mutex) guarding it, every function declares what it
 * acquires/releases/requires, and a mismatched access is a build
 * error (`scripts/check.sh --tsa` runs the tree with
 * `-Werror=thread-safety`; the REGPU_THREAD_SAFETY CMake option).
 * Under gcc every macro expands to nothing and regpu::Mutex is a
 * plain std::mutex wrapper, so the annotations cost nothing where the
 * analysis is unavailable.
 *
 * Which annotation goes where:
 *
 *  - `REGPU_GUARDED_BY(m)` on the *data member or global* a mutex
 *    protects (reads and writes then require holding `m`);
 *  - `REGPU_REQUIRES(m)` on a *function* that must be called with `m`
 *    already held (private helpers of a locking class);
 *  - `REGPU_EXCLUDES(m)` on a *function* that takes `m` itself and
 *    must therefore not be entered with it held (the public API of a
 *    locking class — documents and enforces non-reentrancy);
 *  - `REGPU_ACQUIRE(m)` / `REGPU_RELEASE(m)` on functions that lock/
 *    unlock and leave that state behind (the Mutex/MutexLock members
 *    below; rarely needed elsewhere);
 *  - atomics (`std::atomic`) need no annotation — they are the other
 *    sanctioned shared-state pattern (the obs enable gate, warnOnce
 *    call-site flags). Everything shared must be one or the other.
 *
 * std::mutex itself carries no capability attribute under libstdc++,
 * so the analysis cannot track it; regpu code uses regpu::Mutex and
 * regpu::MutexLock instead (scripts/analyze.py's `raw-mutex` rule
 * keeps new std::mutex uses out of src/).
 */

#ifndef REGPU_COMMON_THREAD_ANNOTATIONS_HH
#define REGPU_COMMON_THREAD_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__)
#define REGPU_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define REGPU_THREAD_ANNOTATION__(x)  // no-op under gcc/others
#endif

/** Declares a class to be a lockable capability (mutexes). */
#define REGPU_CAPABILITY(x) REGPU_THREAD_ANNOTATION__(capability(x))

/** Declares an RAII class whose lifetime equals a critical section. */
#define REGPU_SCOPED_CAPABILITY REGPU_THREAD_ANNOTATION__(scoped_lockable)

/** Data member/global readable+writable only with @p x held. */
#define REGPU_GUARDED_BY(x) REGPU_THREAD_ANNOTATION__(guarded_by(x))

/** Pointer member whose *pointee* is protected by @p x. */
#define REGPU_PT_GUARDED_BY(x) REGPU_THREAD_ANNOTATION__(pt_guarded_by(x))

/** Function callable only with the given capabilities already held. */
#define REGPU_REQUIRES(...) \
    REGPU_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/** Function that acquires the given capabilities and keeps them. */
#define REGPU_ACQUIRE(...) \
    REGPU_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/** Function that releases the given capabilities. */
#define REGPU_RELEASE(...) \
    REGPU_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/** Function callable only with the given capabilities NOT held (the
 *  public entry points of self-locking classes). */
#define REGPU_EXCLUDES(...) \
    REGPU_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/** Return value is a reference to a @p x -guarded object. */
#define REGPU_RETURN_CAPABILITY(x) \
    REGPU_THREAD_ANNOTATION__(lock_returned(x))

/** Escape hatch: disables the analysis for one function. Every use
 *  needs a comment explaining why the discipline cannot be expressed. */
#define REGPU_NO_THREAD_SAFETY_ANALYSIS \
    REGPU_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace regpu
{

/**
 * std::mutex with the capability attribute the analysis needs.
 * Same semantics and cost; never copyable/movable (std::mutex is not).
 */
class REGPU_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;

    void lock() REGPU_ACQUIRE() { m.lock(); }
    void unlock() REGPU_RELEASE() { m.unlock(); }

  private:
    std::mutex m;
};

/**
 * RAII critical section over a regpu::Mutex (the std::lock_guard
 * shape, visible to the analysis). Non-copyable; the guarded region
 * is the guard's lexical scope.
 */
class REGPU_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &_mutex) REGPU_ACQUIRE(_mutex)
        : mutex(_mutex)
    {
        mutex.lock();
    }

    ~MutexLock() REGPU_RELEASE() { mutex.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex;
};

} // namespace regpu

#endif // REGPU_COMMON_THREAD_ANNOTATIONS_HH
