#include "core/tag_buffer.hh"

#include "common/log.hh"

namespace banshee {

TagBuffer::TagBuffer(const TagBufferParams &params)
    : params_(params), statHits_(stats_.counter("hits")),
      statMisses_(stats_.counter("misses"))
{
    sim_assert(params.entries % params.ways == 0,
               "tag buffer entries not divisible by ways");
    numSets_ = params.entries / params.ways;
    sim_assert(isPow2(numSets_), "tag buffer sets must be a power of two");
    entries_.assign(params.entries, Entry{});
}

TagBuffer::Entry *
TagBuffer::set(PageNum page)
{
    return &entries_[static_cast<std::uint64_t>(page & (numSets_ - 1)) *
                     params_.ways];
}

const TagBuffer::Entry *
TagBuffer::set(PageNum page) const
{
    return const_cast<TagBuffer *>(this)->set(page);
}

TagBuffer::Entry *
TagBuffer::find(PageNum page)
{
    Entry *s = set(page);
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (s[w].valid && s[w].page == page)
            return &s[w];
    }
    return nullptr;
}

std::optional<PageMapping>
TagBuffer::lookup(PageNum page)
{
    Entry *e = find(page);
    if (!e) {
        ++statMisses_;
        return std::nullopt;
    }
    ++statHits_;
    e->stamp = stampCounter_++;
    return e->mapping;
}

std::optional<PageMapping>
TagBuffer::pendingRemap(PageNum page) const
{
    const Entry *e = const_cast<TagBuffer *>(this)->find(page);
    if (e && e->remap)
        return e->mapping;
    return std::nullopt;
}

bool
TagBuffer::insertRemap(PageNum page, PageMapping mapping)
{
    Entry *e = find(page);
    if (e) {
        e->mapping = mapping;
        e->stamp = stampCounter_++;
        if (!e->remap) {
            e->remap = true;
            ++remapCount_;
        }
        return true;
    }
    if (!place(page, mapping, true))
        return false;
    ++remapCount_;
    return true;
}

void
TagBuffer::insertClean(PageNum page, PageMapping mapping)
{
    Entry *e = find(page);
    if (e) {
        // Never downgrade a remapped entry: its mapping is the only
        // up-to-date copy in the system.
        if (!e->remap)
            e->mapping = mapping;
        e->stamp = stampCounter_++;
        return;
    }
    // The clean copy is optional: a set full of remaps takes none.
    place(page, mapping, false);
}

bool
TagBuffer::place(PageNum page, PageMapping mapping, bool remap)
{
    Entry *s = set(page);
    Entry *victim = nullptr;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (!s[w].valid) {
            victim = &s[w];
            break;
        }
        if (!s[w].remap && (!victim || s[w].stamp < victim->stamp))
            victim = &s[w];
    }
    if (!victim)
        return false;
    victim->page = page;
    victim->mapping = mapping;
    victim->stamp = stampCounter_++;
    victim->valid = true;
    victim->remap = remap;
    return true;
}

bool
TagBuffer::canInsertRemapPair(PageNum a, bool hasB, PageNum b) const
{
    // Slots needed per set: an existing entry (clean or remapped)
    // upgrades in place; otherwise one displaceable slot is required.
    // Clean entries that already hold a or b are excluded from the
    // free pool: displacing them would invalidate the other page's
    // in-place upgrade (they upgrade, they do not free a slot).
    auto slotsFree = [this, a, hasB, b](const Entry *s) {
        std::uint32_t free = 0;
        for (std::uint32_t w = 0; w < params_.ways; ++w) {
            if (s[w].valid &&
                (s[w].remap || s[w].page == a || (hasB && s[w].page == b)))
                continue;
            ++free;
        }
        return free;
    };
    auto hasEntry = [this](const Entry *s, PageNum p) {
        for (std::uint32_t w = 0; w < params_.ways; ++w)
            if (s[w].valid && s[w].page == p)
                return true;
        return false;
    };

    const Entry *sa = set(a);
    const std::uint32_t needA = hasEntry(sa, a) ? 0 : 1;
    if (!hasB)
        return slotsFree(sa) >= needA;

    const Entry *sb = set(b);
    const std::uint32_t needB = hasEntry(sb, b) ? 0 : 1;
    if (sa == sb)
        return slotsFree(sa) >= needA + needB;
    return slotsFree(sa) >= needA && slotsFree(sb) >= needB;
}

bool
TagBuffer::canAcceptRemaps(std::uint32_t n) const
{
    // Conservative global check used before a replacement commits to
    // producing two remap entries: total remap population must leave
    // room (a per-set check would also be needed in hardware; the
    // per-set insert failure path covers that case).
    return remapCount_ + n <= params_.entries;
}

std::vector<PteUpdate>
TagBuffer::harvest()
{
    std::vector<PteUpdate> updates;
    updates.reserve(remapCount_);
    for (auto &e : entries_) {
        if (e.valid && e.remap) {
            updates.push_back(PteUpdate{e.page, e.mapping});
            e.remap = false;
        }
    }
    remapCount_ = 0;
    return updates;
}

} // namespace banshee
