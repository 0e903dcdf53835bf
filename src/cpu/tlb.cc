#include "cpu/tlb.hh"

namespace banshee {

namespace {

/** PTE bits as an entry's meta word: bit 0 cached, bits 8.. the way. */
std::uint64_t
packPte(const PageMapping &m)
{
    return (m.cached ? 1u : 0u) | static_cast<std::uint64_t>(m.way) << 8;
}

MappingInfo
unpackPte(std::uint64_t meta)
{
    MappingInfo info;
    info.valid = true;
    info.cached = (meta & 1) != 0;
    info.way = static_cast<std::uint8_t>(meta >> 8);
    return info;
}

} // namespace

Tlb::Tlb(const TlbParams &params, const PageTableManager &pageTable)
    : missLatency_(params.missLatency), pageTable_(pageTable),
      entries_(CacheParams{"tlb", std::uint64_t{params.entries} * kLineBytes,
                           params.ways})
{
}

Tlb::LookupResult
Tlb::lookup(PageNum page)
{
    if (const Cache::Slot s = entries_.lookup(page, false))
        return LookupResult{unpackPte(entries_.meta(s)), 0};

    // Miss: page walk reads the committed PTE.
    const std::uint64_t pte = packPte(pageTable_.committedMapping(page));
    entries_.insert(page, false, pte);
    return LookupResult{unpackPte(pte), missLatency_};
}

void
Tlb::flushAll()
{
    ++shootdowns_;
    entries_.invalidateAll();
}

void
Tlb::resetStats()
{
    entries_.stats().reset();
    shootdowns_ = 0;
}

} // namespace banshee
