#include "cache/cache.hh"

#include <algorithm>

#include "common/log.hh"

namespace banshee {

namespace {

constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;

/** Recency rank of @p way in the LRU order word @p order. */
inline unsigned
rankOf(std::uint64_t order, std::uint32_t way)
{
    // The lowest zero nibble of order ^ (way in every nibble). The
    // subtraction borrows only upward from a zero nibble, so the
    // lowest flagged nibble is exact.
    const std::uint64_t x = order ^ (way * kNibbleOnes);
    const std::uint64_t zero = (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
    return static_cast<unsigned>(__builtin_ctzll(zero)) >> 2;
}

/** @p order with the way at @p rank moved to rank 0 (the MRU end). */
inline std::uint64_t
toFront(std::uint64_t order, unsigned rank)
{
    // Nibbles 0..rank; at rank 15 the shift wraps to 0, so all ones.
    const std::uint64_t upTo = (0x10ull << (4 * rank)) - 1;
    const std::uint64_t way = (order >> (4 * rank)) & 0xf;
    return (order & ~upTo) | ((order & (upTo >> 4)) << 4) | way;
}

} // namespace

Cache::Cache(const CacheParams &params)
    : ways_(params.ways), statHits_(stats_.counter("hits")),
      statMisses_(stats_.counter("misses")),
      statEvictions_(stats_.counter("evictions")),
      statDirtyEvictions_(stats_.counter("dirtyEvictions"))
{
    sim_assert(isPow2(params.ways) && params.ways <= kMaxWays,
               "%s: ways must be a power of two in [1, %u], not %u",
               params.name.c_str(), kMaxWays, params.ways);
    const std::uint64_t numLines = params.sizeBytes / params.lineBytes;
    sim_assert(numLines % params.ways == 0, "lines not divisible by ways");
    sim_assert(numLines < (1ull << 32), "%s: too many lines for a slot",
               params.name.c_str());
    numSets_ = static_cast<std::uint32_t>(numLines / params.ways);
    sim_assert(isPow2(numSets_), "%s: number of sets must be a power of two",
               params.name.c_str());
    waysLog2_ = static_cast<std::uint32_t>(__builtin_ctz(ways_));
    tags_.assign(numLines, kNoLine);
    meta_.assign(numLines, 0);
    // Any permutation of the ways will do: a full set's ways were all
    // moved to the front when filled.
    SetState identity;
    for (std::uint32_t w = 0; w < ways_; ++w)
        identity.order |= static_cast<std::uint64_t>(w) << (4 * w);
    sets_.assign(numSets_, identity);
}

std::uint32_t
Cache::setIndex(LineAddr line) const
{
    return static_cast<std::uint32_t>(line & (numSets_ - 1));
}

inline Cache::Slot
Cache::find(LineAddr line) const
{
    const std::uint32_t base = setIndex(line) << waysLog2_;
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
    // Indexed by the line, not the slot, so the load need not wait for
    // the scan.
    SetState &set = sets_[setIndex(line)];
    set.order = toFront(set.order,
                        rankOf(set.order, s.index() & (ways_ - 1)));
    if (isWrite)
        set.dirty |= wayBit(s.index());
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
    const std::uint32_t setIdx = setIndex(line);
    const std::uint32_t base = setIdx << waysLog2_;
    SetState &set = sets_[setIdx];
    // The way a full set evicts: the one at the LRU end of the order.
    // Its metadata word is the load a victim waits on, so start it
    // before the scan; a set with a free way leaves it unused.
    const std::uint32_t lru =
        static_cast<std::uint32_t>(set.order >> (4 * (ways_ - 1))) & 0xf;
    __builtin_prefetch(&meta_[base + lru]);

    // One pass over the tags: the double-insert check and the first
    // free way.
    const LineAddr *tags = &tags_[base];
    std::uint32_t way = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        sim_assert(tags[w] != line, "double insert of line %llx",
                   static_cast<unsigned long long>(line));
        if (way == ways_ && tags[w] == kNoLine)
            way = w;
    }

    Placement out;
    unsigned rank;
    if (way == ways_) {
        rank = ways_ - 1;
        way = lru;
        const std::uint32_t v = base + way;
        out.victim.valid = true;
        out.victim.dirty = (set.dirty & wayBit(v)) != 0;
        out.victim.line = tags_[v];
        out.victim.meta = meta_[v];
        ++statEvictions_;
        if (out.victim.dirty)
            ++statDirtyEvictions_;
    } else {
        rank = rankOf(set.order, way);
    }

    const std::uint32_t i = base + way;
    tags_[i] = line;
    meta_[i] = meta;
    set.order = toFront(set.order, rank);
    if (dirty)
        set.dirty |= wayBit(i);
    else
        set.dirty &= static_cast<std::uint16_t>(~wayBit(i));
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
    SetState &set = sets_[setIndex(line)];
    out.valid = true;
    out.dirty = (set.dirty & wayBit(i)) != 0;
    out.line = line;
    out.meta = meta_[i];
    // The way keeps its rank: it is moved to the front when refilled,
    // before the set can be full again.
    tags_[i] = kNoLine;
    set.dirty &= static_cast<std::uint16_t>(~wayBit(i));
    meta_[i] = 0;
    return out;
}

void
Cache::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), kNoLine);
    std::fill(meta_.begin(), meta_.end(), 0);
    for (SetState &set : sets_)
        set.dirty = 0;
}

} // namespace banshee
