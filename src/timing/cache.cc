#include "timing/cache.hh"

#include "common/logging.hh"

namespace regpu
{

CacheModel::CacheModel(const CacheParams &params)
    : params_(params), numSets(validateCacheGeometry(params)),
      lineShift(static_cast<u32>(__builtin_ctz(params.lineBytes))),
      setShift(static_cast<u32>(__builtin_ctzll(numSets))),
      ways_(numSets * params.ways)
{}

void
CacheModel::linkNextLevel(CacheModel *next)
{
    REGPU_ASSERT(dram_ == nullptr,
                 "cache already linked to DRAM: ", params_.name);
    next_ = next;
}

void
CacheModel::linkDram(DramModel *dram)
{
    REGPU_ASSERT(next_ == nullptr,
                 "cache already linked to a next level: ", params_.name);
    dram_ = dram;
}

void
CacheModel::propagateWriteback(Addr lineAddr, TrafficClass cls)
{
    writebackBytes_[static_cast<u8>(cls)] += params_.lineBytes;
    if (next_)
        next_->accessRange(lineAddr, params_.lineBytes, true, cls);
    else if (dram_)
        dram_->access(lineAddr, params_.lineBytes, cls,
                      DramDir::Writeback);
}

Cycles
CacheModel::propagateFill(Addr lineAddr, TrafficClass cls)
{
    fills_++;
    fillBytes_[static_cast<u8>(cls)] += params_.lineBytes;
    if (next_)
        return next_->accessRange(lineAddr, params_.lineBytes, false,
                                  cls).latency;
    if (dram_)
        return dram_->access(lineAddr, params_.lineBytes, cls,
                             DramDir::Read);
    return 0;
}

std::span<CacheModel::Way>
CacheModel::setOf(Addr line)
{
    return {ways_.data() + (line & (numSets - 1)) * params_.ways,
            params_.ways};
}

CacheAccessResult
CacheModel::accessSet(Addr line, bool write, TrafficClass cls)
{
    const u64 setIdx = line & (numSets - 1);
    const Addr tag = line >> setShift;
    const std::span<Way> set = setOf(line);

    CacheAccessResult result;
    result.latency = params_.hitLatency;

    for (Way &w : set) {
        if (w.valid && w.tag == tag) {
            hits_++;
            w.lastUse = stamp;
            w.dirty |= write;
            mru[1] = mru[0];
            mru[0] = {line, static_cast<std::size_t>(&w - ways_.data())};
            result.hit = true;
            return result;
        }
    }

    // Miss: allocate over the LRU way.
    misses_++;
    Way *victim = &set[0];
    for (Way &w : set) {
        if (!w.valid) {
            victim = &w;
            break;
        }
        if (w.lastUse < victim->lastUse)
            victim = &w;
    }
    if (victim->valid && victim->dirty) {
        writebacks_++;
        result.writeback = true;
        // Reconstruct the victim's byte address from its tag: the
        // dirty data leaves at *its* address, not the requester's.
        const Addr victimLine = (victim->tag << setShift) | setIdx;
        result.writebackAddr = victimLine << lineShift;
        propagateWriteback(result.writebackAddr, victim->cls);
    }
    // Read misses fetch the line from the next level; write misses
    // allocate without a fetch (full-line write-combining - see the
    // file comment). Writes are posted, so only the fill adds
    // latency.
    if (!write)
        result.latency += propagateFill(line << lineShift, cls);
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lastUse = stamp;
    victim->cls = cls;
    const std::size_t victimWay =
        static_cast<std::size_t>(victim - ways_.data());
    mru[1] = mru[0].way == victimWay ? MruEntry{} : mru[0];
    mru[0] = {line, victimWay};
    return result;
}

CacheModel::RangeOutcome
CacheModel::accessRange(Addr addr, u32 bytes, bool write,
                        TrafficClass cls)
{
    RangeOutcome out;
    if (bytes == 0)
        return out; // zero-byte ranges touch nothing
    demandBytes_[static_cast<u8>(cls)] += bytes;
    const Addr first = addr >> lineShift;
    const Addr last = (addr + bytes - 1) >> lineShift;
    for (Addr line = first; line <= last; line++) {
        CacheAccessResult r = accessLine(line << lineShift, write, cls);
        if (!r.hit)
            out.missLines++;
        if (r.writeback)
            out.writebacks++;
        // Hits contribute their hit latency too: a downstream level
        // that absorbs a fill still charges its access time.
        out.latency += r.latency;
    }
    return out;
}

void
CacheModel::invalidateAll()
{
    for (u64 s = 0; s < numSets; s++) {
        for (Way &w : setOf(s)) { // line s lies in set s
            if (w.valid && w.dirty) {
                writebacks_++;
                const Addr victimLine = (w.tag << setShift) | s;
                propagateWriteback(victimLine << lineShift, w.cls);
            }
            w = Way{};
        }
    }
    mru[0] = mru[1] = MruEntry{};
}

} // namespace regpu
