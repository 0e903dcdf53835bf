/**
 * @file
 * The writer behind a run's one trace file: Chrome trace-event JSON
 * (ChromeTraceWriter) plus the field rendering and path routing the
 * PageJournal uses to fill it.
 *
 * scripts/spans_to_perfetto.py validates the file (--check) and
 * renders its timeline (--timeline).
 */

#ifndef BANSHEE_TELEMETRY_TRACE_SINK_HH
#define BANSHEE_TELEMETRY_TRACE_SINK_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace banshee {

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * One key/value pair of a trace event, serialized at construction so
 * emit sites can pass heterogeneous braced lists.
 */
class TraceField
{
  public:
    TraceField(const char *key, std::uint64_t v);
    TraceField(const char *key, std::uint32_t v);
    TraceField(const char *key, int v);
    TraceField(const char *key, double v);
    TraceField(const char *key, const char *v);
    TraceField(const char *key, const std::string &v);

    const std::string &json() const { return json_; }

  private:
    std::string json_; ///< `"key": value`
};

/** Replace every character outside [A-Za-z0-9._-] with '_' so an
 *  experiment label is safe to use as a file name. */
std::string sanitizeRunLabel(const std::string &label);

/**
 * Resolve a trace output path against a run label.
 *
 * - empty @p path -> empty;
 * - a directory (trailing '/' or an existing directory) is created if
 *   missing and yields `dir/<sanitized-label>.trace.json` ("run" when
 *   the label is empty) — one file per experiment;
 * - otherwise the path is a plain file. When the label is non-empty,
 *   "-<sanitized-label>" is spliced in before the file extension so
 *   sweep experiments never share a writer.
 */
std::string resolveTracePath(const std::string &path,
                             const std::string &label);

/**
 * Writer for Chrome trace-event JSON: a single top-level array of
 * event objects, one per line, comma-separated, closed on
 * destruction so the file loads in Perfetto / chrome://tracing.
 *
 * Not shared or locked: each PageJournal owns its file exclusively
 * (per-run path routing), and a sweep's Systems never share one (see
 * sim/runner.hh isolation contract).
 */
class ChromeTraceWriter
{
  public:
    explicit ChromeTraceWriter(const std::string &path);
    ~ChromeTraceWriter();

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /** Append one pre-serialized event object (`{...}`, no comma). */
    void event(const std::string &json);

    /** Write the closing `]` now (idempotent; destructor fallback). */
    void close();

  private:
    std::string path_;
    std::FILE *file_;
    bool first_ = true;
};

} // namespace banshee

#endif // BANSHEE_TELEMETRY_TRACE_SINK_HH
