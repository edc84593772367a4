/**
 * @file
 * Process-wide cache of fully verified trace files.
 *
 * ParallelRunner pre-flights every replay job by verifying its trace
 * end-to-end on the caller thread: every chunk CRC and every payload,
 * parsed by TraceReader's own deserializers. The reader rejects
 * nothing that verifies, so TEXT/FRAM corruption can never fatal() on
 * a worker mid-pool. Verification walks the whole file, so the result
 * is cached per path for the life of the process:
 * ablation_hash_quality (one run() per hash kind) and trace_cli replay
 * (one per technique) verify each file once. Trace files are assumed
 * immutable while the process lives.
 *
 * The cache is hammered concurrently — several ParallelRunner::run()
 * calls on distinct threads race their first lookups (pinned by
 * tests/test_parallel_stress.cc under TSan) — so its lock discipline
 * is compile-enforced: the map is REGPU_GUARDED_BY the cache mutex
 * and the public API is REGPU_EXCLUDES of it.
 */

#ifndef REGPU_TRACE_VERIFIED_CACHE_HH
#define REGPU_TRACE_VERIFIED_CACHE_HH

#include <map>
#include <string>

#include "common/thread_annotations.hh"
#include "common/types.hh"

namespace regpu
{

/** Singleton path -> verified-frame-count cache. */
class VerifiedTraceCache
{
  public:
    static VerifiedTraceCache &instance();

    /**
     * Frame count of @p path, verifying the file end-to-end on first
     * sight; fatal() (on the calling thread) when verification fails.
     * First-time verification holds the cache lock, deliberately
     * serializing concurrent cold lookups — two threads must never
     * walk the same file twice, and cache hits are O(log paths).
     */
    u64 verifiedFrameCount(const std::string &path)
        REGPU_EXCLUDES(mutex);

  private:
    VerifiedTraceCache() = default;

    Mutex mutex;
    std::map<std::string, u64> frames REGPU_GUARDED_BY(mutex);
};

} // namespace regpu

#endif // REGPU_TRACE_VERIFIED_CACHE_HH
