/**
 * @file
 * Lightweight named-statistics registry.
 *
 * Components register counters under hierarchical names
 * ("raster.fragmentsShaded"); experiments snapshot and diff them.
 */

#ifndef REGPU_COMMON_STATS_HH
#define REGPU_COMMON_STATS_HH

#include <map>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace regpu
{

/**
 * A registry of named 64-bit counters.
 * Not a singleton: each simulator instance owns one so that parallel
 * experiments do not interfere.
 *
 * Lookups are heterogeneous (string_view against the transparent
 * std::less<> comparator), so updating an existing counter from a
 * string literal never materialises a temporary std::string: inc() on
 * the per-tile/per-primitive hot paths is allocation-free once a
 * counter exists.
 */
class StatRegistry
{
  public:
    /** Add to (creating if absent) a counter. */
    void
    inc(std::string_view name, u64 delta = 1)
    {
        auto it = counters.find(name);
        if (it == counters.end())
            counters.emplace(std::string(name), delta);
        else
            it->second += delta;
    }

    /** Read a counter (0 if absent). */
    u64
    counter(std::string_view name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    /** Reset everything to zero. */
    void
    reset()
    {
        counters.clear();
    }

    /**
     * Visit every counter in name order: fn(std::string_view, u64).
     * The read-only iteration surface exporters build on (the obs
     * frame time-series, result merging) — no friend access, no
     * full-map copies.
     */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        for (const auto &[name, val] : counters)
            fn(std::string_view(name), val);
    }

    const std::map<std::string, u64, std::less<>> &allCounters() const
    { return counters; }

  private:
    std::map<std::string, u64, std::less<>> counters;
};

} // namespace regpu

#endif // REGPU_COMMON_STATS_HH
