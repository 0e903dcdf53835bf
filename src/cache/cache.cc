#include "cache/cache.hh"

#include "common/log.hh"

namespace banshee {

Cache::Cache(const CacheParams &params)
    : ways_(params.ways), statHits_(stats_.counter("hits")),
      statMisses_(stats_.counter("misses")),
      statEvictions_(stats_.counter("evictions")),
      statDirtyEvictions_(stats_.counter("dirtyEvictions"))
{
    sim_assert(params.ways > 0, "cache needs at least one way");
    const std::uint64_t numLines = params.sizeBytes / params.lineBytes;
    sim_assert(numLines % params.ways == 0, "lines not divisible by ways");
    sim_assert(numLines < (1ull << 32), "%s: too many lines for a slot",
               params.name.c_str());
    numSets_ = static_cast<std::uint32_t>(numLines / params.ways);
    sim_assert(isPow2(numSets_), "%s: number of sets must be a power of two",
               params.name.c_str());
    tags_.assign(numLines, kNoLine);
    stamps_.assign(numLines, 0);
    meta_.assign(numLines, 0);
    dirty_.assign(numLines, 0);
}

std::uint32_t
Cache::setBase(LineAddr line) const
{
    return static_cast<std::uint32_t>(line & (numSets_ - 1)) * ways_;
}

inline Cache::Slot
Cache::find(LineAddr line) const
{
    const std::uint32_t base = setBase(line);
    const LineAddr *set = &tags_[base];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w] == line)
            return Slot(base + w);
    }
    return Slot();
}

Cache::Slot
Cache::lookup(LineAddr line, bool isWrite)
{
    const Slot s = find(line);
    if (!s) {
        ++statMisses_;
        return s;
    }
    ++statHits_;
    stamps_[s.index()] = stampCounter_++;
    if (isWrite)
        dirty_[s.index()] = 1;
    return s;
}

Cache::Slot
Cache::contains(LineAddr line) const
{
    return find(line);
}

Cache::Placement
Cache::insert(LineAddr line, bool dirty, std::uint64_t meta)
{
    // One pass over the tags: the double-insert check and the first
    // free way.
    const std::uint32_t base = setBase(line);
    const LineAddr *set = &tags_[base];
    std::uint32_t way = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        sim_assert(set[w] != line, "double insert of line %llx",
                   static_cast<unsigned long long>(line));
        if (way == ways_ && set[w] == kNoLine)
            way = w;
    }

    Placement out;
    if (way == ways_) {
        // Set full: evict the least recently used way (smallest stamp).
        const std::uint64_t *stamps = &stamps_[base];
        way = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (stamps[w] < stamps[way])
                way = w;
        }
        const std::uint32_t v = base + way;
        out.victim.valid = true;
        out.victim.dirty = dirty_[v] != 0;
        out.victim.line = tags_[v];
        out.victim.meta = meta_[v];
        ++statEvictions_;
        if (dirty_[v])
            ++statDirtyEvictions_;
    }

    const std::uint32_t i = base + way;
    tags_[i] = line;
    dirty_[i] = dirty ? 1 : 0;
    meta_[i] = meta;
    stamps_[i] = stampCounter_++;
    out.slot = Slot(i);
    return out;
}

Cache::Victim
Cache::invalidate(LineAddr line)
{
    Victim out;
    const Slot s = find(line);
    if (!s)
        return out;
    const std::uint32_t i = s.index();
    out.valid = true;
    out.dirty = dirty_[i] != 0;
    out.line = line;
    out.meta = meta_[i];
    tags_[i] = kNoLine;
    dirty_[i] = 0;
    meta_[i] = 0;
    return out;
}

} // namespace banshee
