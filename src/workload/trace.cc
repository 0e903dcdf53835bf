#include "workload/trace.hh"

#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>

#include "common/log.hh"

namespace banshee {

namespace {

constexpr char kMagic[8] = {'B', 'S', 'H', 'T', 'R', 'C', '0', '1'};

struct DiskRecord
{
    std::uint64_t addr;
    std::uint8_t flags;
    std::uint8_t nonMemBefore;
    std::uint16_t pad;
};
static_assert(sizeof(DiskRecord) == 16, "trace record must be 16 bytes");

} // namespace

bool
writeTrace(const std::string &path, const std::vector<TraceRecord> &records)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(kMagic, sizeof(kMagic), 1, f) == 1;
    const std::uint64_t n = records.size();
    ok = ok && std::fwrite(&n, sizeof(n), 1, f) == 1;
    for (const auto &r : records) {
        DiskRecord d{r.addr, r.flags, r.nonMemBefore, 0};
        ok = ok && std::fwrite(&d, sizeof(d), 1, f) == 1;
        if (!ok)
            break;
    }
    std::fclose(f);
    return ok;
}

std::vector<TraceRecord>
readTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open trace file '%s'", path.c_str());
    char magic[8];
    if (std::fread(magic, sizeof(magic), 1, f) != 1 ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        std::fclose(f);
        fatal("'%s' is not a Banshee trace file", path.c_str());
    }
    std::uint64_t n = 0;
    if (std::fread(&n, sizeof(n), 1, f) != 1) {
        std::fclose(f);
        fatal("trace '%s': truncated header", path.c_str());
    }
    std::vector<TraceRecord> records;
    records.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        DiskRecord d;
        if (std::fread(&d, sizeof(d), 1, f) != 1) {
            std::fclose(f);
            fatal("trace '%s': truncated at record %llu", path.c_str(),
                  static_cast<unsigned long long>(i));
        }
        records.push_back(TraceRecord{d.addr, d.flags, d.nonMemBefore});
    }
    std::fclose(f);
    return records;
}

TracePattern::TracePattern(Buffer records) : records_(std::move(records))
{
    sim_assert(records_ != nullptr && !records_->empty(), "empty trace");
}

namespace {

/** Process-wide cache of loaded trace buffers, keyed by path. The
 *  mutex covers only load and lookup: replay reads the immutable
 *  buffer lock-free. Entries are weak, so a buffer dies with its last
 *  pattern. */
std::mutex traceCacheMutex;
std::map<std::string, std::weak_ptr<const std::vector<TraceRecord>>>
    traceCache;

} // namespace

std::unique_ptr<TracePattern>
TracePattern::sharedFromFile(const std::string &path)
{
    std::lock_guard<std::mutex> lock(traceCacheMutex);
    std::weak_ptr<const std::vector<TraceRecord>> &cached = traceCache[path];
    Buffer records = cached.lock();
    if (!records) {
        records =
            std::make_shared<const std::vector<TraceRecord>>(readTrace(path));
        cached = records;
    }
    return std::make_unique<TracePattern>(std::move(records));
}

MemOp
TracePattern::next(Rng &)
{
    const TraceRecord &r = (*records_)[pos_];
    pos_ = (pos_ + 1) % records_->size();
    MemOp op;
    op.addr = r.addr;
    op.isWrite = r.flags & TraceRecord::kWrite;
    op.dependsOnPrev = r.flags & TraceRecord::kDependsOnPrev;
    op.nonMemBefore = r.nonMemBefore;
    return op;
}

} // namespace banshee
