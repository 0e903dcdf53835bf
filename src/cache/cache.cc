#include "cache/cache.hh"

#include "common/log.hh"

namespace banshee {

Cache::Cache(const CacheParams &params)
    : ways_(params.ways), stats_(params.name),
      statHits_(stats_.counter("hits")),
      statMisses_(stats_.counter("misses")),
      statEvictions_(stats_.counter("evictions")),
      statDirtyEvictions_(stats_.counter("dirtyEvictions"))
{
    sim_assert(params.ways > 0, "cache needs at least one way");
    const std::uint64_t numLines = params.sizeBytes / params.lineBytes;
    sim_assert(numLines % params.ways == 0, "lines not divisible by ways");
    numSets_ = static_cast<std::uint32_t>(numLines / params.ways);
    sim_assert(isPow2(numSets_), "%s: number of sets must be a power of two",
               params.name.c_str());
    lines_.assign(numLines, Line{});
}

std::uint32_t
Cache::setIndex(LineAddr line) const
{
    return static_cast<std::uint32_t>(line & (numSets_ - 1));
}

Cache::Line *
Cache::findLine(LineAddr line)
{
    Line *set = &lines_[static_cast<std::uint64_t>(setIndex(line)) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == line)
            return &set[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(LineAddr line) const
{
    return const_cast<Cache *>(this)->findLine(line);
}

bool
Cache::lookup(LineAddr line, bool isWrite)
{
    Line *l = findLine(line);
    if (!l) {
        ++statMisses_;
        return false;
    }
    ++statHits_;
    l->stamp = stampCounter_++;
    if (isWrite)
        l->dirty = true;
    return true;
}

bool
Cache::contains(LineAddr line) const
{
    return findLine(line) != nullptr;
}

Cache::Victim
Cache::insert(LineAddr line, bool dirty, std::uint64_t meta)
{
    sim_assert(!findLine(line), "double insert of line %llx",
               static_cast<unsigned long long>(line));
    Line *set = &lines_[static_cast<std::uint64_t>(setIndex(line)) * ways_];

    Line *slot = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!set[w].valid) {
            slot = &set[w];
            break;
        }
    }

    Victim victim;
    if (!slot) {
        // Evict the least recently used way (smallest stamp).
        slot = &set[0];
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (set[w].stamp < slot->stamp)
                slot = &set[w];
        }
        victim.valid = true;
        victim.dirty = slot->dirty;
        victim.line = slot->tag;
        victim.meta = slot->meta;
        ++statEvictions_;
        if (slot->dirty)
            ++statDirtyEvictions_;
    }

    slot->tag = line;
    slot->valid = true;
    slot->dirty = dirty;
    slot->meta = meta;
    slot->stamp = stampCounter_++;
    return victim;
}

Cache::Victim
Cache::invalidate(LineAddr line)
{
    Victim out;
    Line *l = findLine(line);
    if (!l)
        return out;
    out.valid = true;
    out.dirty = l->dirty;
    out.line = l->tag;
    out.meta = l->meta;
    l->valid = false;
    l->dirty = false;
    l->meta = 0;
    return out;
}

void
Cache::setDirty(LineAddr line)
{
    Line *l = findLine(line);
    sim_assert(l, "setDirty on absent line %llx",
               static_cast<unsigned long long>(line));
    l->dirty = true;
}

std::uint64_t
Cache::meta(LineAddr line) const
{
    const Line *l = findLine(line);
    sim_assert(l, "meta on absent line");
    return l->meta;
}

void
Cache::setMeta(LineAddr line, std::uint64_t meta)
{
    Line *l = findLine(line);
    sim_assert(l, "setMeta on absent line");
    l->meta = meta;
}

} // namespace banshee
