#include "telemetry/span_trace.hh"

#include <algorithm>
#include <cstdio>

#include "common/log.hh"
#include "common/units.hh"

namespace banshee {

namespace {

constexpr std::uint32_t kPagesPid = 1;
constexpr std::uint32_t kChannelsPid = 2;
constexpr std::uint32_t kControlPid = 3;

std::string
hexPage(PageNum page)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(page));
    return buf;
}

std::string
fmtUs(double us)
{
    // Fixed sub-cycle precision keeps output deterministic and gives
    // the importer strictly ordered timestamps within a cycle.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", us);
    return buf;
}

} // namespace

PageJournal::PageJournal(const SpanTraceConfig &config,
                         std::uint32_t pageBits, std::uint64_t seed)
    : config_(config), pageBits_(pageBits), seed_(seed),
      writer_(resolveTracePath(config.path, config.runLabel))
{
    emitMeta(kPagesPid, 0, "process_name", "pages");
    emitMeta(kChannelsPid, 0, "process_name", "channels");
    emitMeta(kControlPid, 0, "process_name", "control");
    addControlTrack("run"); // kRunTrack
}

PageJournal::~PageJournal() { finish(lastCycle_); }

bool
PageJournal::sampled(PageNum page, std::uint64_t seed,
                     std::uint32_t shift)
{
    if (shift == 0)
        return true;
    // splitmix64 finalizer over the seeded page number: a pure
    // function, so the sampled set is identical across threads, call
    // sites and runs with the same seed.
    std::uint64_t x = page ^ (seed * 0x9e3779b97f4a7c15ull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return (x & ((1ull << shift) - 1)) == 0;
}

std::string
PageJournal::head(const char *name, const char *ph, std::uint32_t pid,
                  std::uint64_t tid, Cycle ts) const
{
    return std::string("{\"name\": \"") + jsonEscape(name) +
           "\", \"ph\": \"" + ph + "\", \"pid\": " + std::to_string(pid) +
           ", \"tid\": " + std::to_string(tid) +
           ", \"ts\": " + fmtUs(cyclesToUs(ts));
}

void
PageJournal::emit(std::string line,
                  std::initializer_list<TraceField> args)
{
    if (args.size() != 0) {
        line += ", \"args\": {";
        bool first = true;
        for (const TraceField &f : args) {
            if (!first)
                line += ", ";
            line += f.json();
            first = false;
        }
        line += "}";
    }
    line += "}";
    writer_.event(line);
}

void
PageJournal::emitMeta(std::uint32_t pid, std::uint64_t tid,
                      const char *metaName, const std::string &value)
{
    writer_.event(std::string("{\"name\": \"") + metaName +
                  "\", \"ph\": \"M\", \"pid\": " + std::to_string(pid) +
                  ", \"tid\": " + std::to_string(tid) +
                  ", \"args\": {\"name\": \"" + jsonEscape(value) +
                  "\"}}");
}

PageJournal::PageState &
PageJournal::ensurePage(PageNum page)
{
    auto it = pages_.find(page);
    if (it == pages_.end()) {
        PageState st;
        st.tid = nextPageTid_++;
        st.asyncCat = "page " + hexPage(page);
        it = pages_.emplace(page, std::move(st)).first;
        emitMeta(kPagesPid, it->second.tid, "thread_name",
                 it->second.asyncCat);
    }
    return it->second;
}

void
PageJournal::epochSample(Cycle now, const std::string &gauges,
                         const std::string &epochArgs)
{
    lastCycle_ = std::max(lastCycle_, now);
    writer_.event(head("metrics", "C", kControlPid, kRunTrack, now) +
                  ", \"args\": {" + gauges + "}}");
    writer_.event(head("epoch", "i", kControlPid, kRunTrack, now) +
                  ", \"s\": \"t\", \"args\": {" + epochArgs + "}}");
}

void
PageJournal::pageInstant(PageNum page, const char *name, Cycle now,
                         std::initializer_list<TraceField> args)
{
    PageState &st = ensurePage(page);
    lastCycle_ = std::max(lastCycle_, now);
    emit(head(name, "i", kPagesPid, st.tid, now) + ", \"s\": \"t\"",
         args);
}

void
PageJournal::residentBegin(PageNum page, Cycle now,
                           std::initializer_list<TraceField> args)
{
    PageState &st = ensurePage(page);
    lastCycle_ = std::max(lastCycle_, now);
    if (st.resident) {
        // A begin while already resident means an eviction hook was
        // bypassed (e.g. a remap that reinserted in place): close the
        // old span so the B/E stream stays balanced.
        emit(head("resident", "E", kPagesPid, st.tid, now),
             {{"cause", "reopened"}});
    }
    st.resident = true;
    emit(head("resident", "B", kPagesPid, st.tid, now), args);
}

void
PageJournal::residentEnd(PageNum page, Cycle now, const char *cause,
                         bool dirty)
{
    PageState &st = ensurePage(page);
    lastCycle_ = std::max(lastCycle_, now);
    if (!st.resident)
        return;
    st.resident = false;
    emit(head("resident", "E", kPagesPid, st.tid, now),
         {{"cause", cause}, {"dirty", dirty ? 1 : 0}});
}

void
PageJournal::fetchSpan(PageNum page, Cycle issued, Cycle complete)
{
    PageState &st = ensurePage(page);
    lastCycle_ = std::max(lastCycle_, complete);
    const std::string id = std::to_string(nextAsyncId_++);
    const std::string cat =
        ", \"cat\": \"" + jsonEscape(st.asyncCat) + "\", \"id\": \"" +
        id + "\"";
    emit(head("fetch", "b", kPagesPid, st.tid, issued) + cat, {});
    emit(head("fetch", "e", kPagesPid, st.tid, complete) + cat, {});
}

std::uint32_t
PageJournal::addChannelTrack(const std::string &name)
{
    const auto tid = static_cast<std::uint32_t>(channelTracks_.size());
    channelTracks_.push_back(name);
    emitMeta(kChannelsPid, tid, "thread_name", name);
    return tid;
}

void
PageJournal::channelRequest(std::uint32_t track, PageNum page,
                            Cycle arrival, Cycle busStart, Cycle complete,
                            bool isWrite, TrafficCat cat, TenantId tenant,
                            const char *qos)
{
    lastCycle_ = std::max(lastCycle_, complete);
    const std::string id = std::to_string(nextAsyncId_++);
    const std::string tail = ", \"cat\": \"" +
                             jsonEscape(channelTracks_[track]) +
                             "\", \"id\": \"" + id + "\"";
    // One async lane per request: a queue slice (arrival -> bus grant)
    // chained into a service slice (bus grant -> completion) under the
    // same id, so Perfetto renders the split visually and the summary
    // script attributes latency to queueing vs service per tenant.
    if (qos) {
        emit(head("queue", "b", kChannelsPid, track, arrival) + tail,
             {{"page", hexPage(page)},
              {"rw", isWrite ? "W" : "R"},
              {"cat", trafficCatName(cat)},
              {"tenant", static_cast<std::uint32_t>(tenant)},
              {"qos", qos}});
    } else {
        emit(head("queue", "b", kChannelsPid, track, arrival) + tail,
             {{"page", hexPage(page)},
              {"rw", isWrite ? "W" : "R"},
              {"cat", trafficCatName(cat)},
              {"tenant", static_cast<std::uint32_t>(tenant)}});
    }
    emit(head("queue", "e", kChannelsPid, track, busStart) + tail, {});
    emit(head("service", "b", kChannelsPid, track, busStart) + tail, {});
    emit(head("service", "e", kChannelsPid, track, complete) + tail, {});
}

std::uint32_t
PageJournal::addControlTrack(const std::string &name)
{
    const auto tid = static_cast<std::uint32_t>(controlTracks_.size());
    controlTracks_.push_back(name);
    controlOpen_.emplace_back();
    emitMeta(kControlPid, tid, "thread_name", name);
    return tid;
}

void
PageJournal::controlBegin(std::uint32_t track, const char *name,
                          Cycle now,
                          std::initializer_list<TraceField> args)
{
    lastCycle_ = std::max(lastCycle_, now);
    controlOpen_[track].push_back(name);
    emit(head(name, "B", kControlPid, track, now), args);
}

void
PageJournal::controlEnd(std::uint32_t track, Cycle now,
                        std::initializer_list<TraceField> args)
{
    lastCycle_ = std::max(lastCycle_, now);
    if (controlOpen_[track].empty()) {
        warn_once("spans: controlEnd on '%s' with no open span",
                  controlTracks_[track].c_str());
        return;
    }
    const std::string name = controlOpen_[track].back();
    controlOpen_[track].pop_back();
    emit(head(name.c_str(), "E", kControlPid, track, now), args);
}

void
PageJournal::controlComplete(std::uint32_t track, const char *name,
                             Cycle start, Cycle end,
                             std::initializer_list<TraceField> args)
{
    lastCycle_ = std::max(lastCycle_, end);
    emit(head(name, "X", kControlPid, track, start) +
             ", \"dur\": " + fmtUs(cyclesToUs(end - start)),
         args);
}

void
PageJournal::controlInstant(std::uint32_t track, const char *name,
                            Cycle now,
                            std::initializer_list<TraceField> args)
{
    lastCycle_ = std::max(lastCycle_, now);
    emit(head(name, "i", kControlPid, track, now) + ", \"s\": \"t\"",
         args);
}

void
PageJournal::finish(Cycle now)
{
    if (finished_)
        return;
    finished_ = true;
    const Cycle end = std::max(now, lastCycle_);
    // Close pages still resident at run end (std::map iteration order
    // keeps the tail deterministic) and any in-flight control spans,
    // so every begin in the file has a matching end.
    for (auto &entry : pages_) {
        if (!entry.second.resident)
            continue;
        entry.second.resident = false;
        emit(head("resident", "E", kPagesPid, entry.second.tid, end),
             {{"cause", "run_end"}, {"truncated", 1}});
    }
    for (std::size_t t = 0; t < controlOpen_.size(); ++t) {
        while (!controlOpen_[t].empty()) {
            const std::string name = controlOpen_[t].back();
            controlOpen_[t].pop_back();
            emit(head(name.c_str(), "E", kControlPid,
                      static_cast<std::uint32_t>(t), end),
                 {{"truncated", 1}});
        }
    }
    writer_.close();
}

} // namespace banshee
