#include "telemetry/trace_sink.hh"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>

#include "common/log.hh"

namespace banshee {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

namespace {

std::string
quoted(const char *key)
{
    return "\"" + jsonEscape(key) + "\": ";
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

TraceField::TraceField(const char *key, std::uint64_t v)
    : json_(quoted(key) + std::to_string(v))
{
}

TraceField::TraceField(const char *key, std::uint32_t v)
    : json_(quoted(key) + std::to_string(v))
{
}

TraceField::TraceField(const char *key, int v)
    : json_(quoted(key) + std::to_string(v))
{
}

TraceField::TraceField(const char *key, double v)
    : json_(quoted(key) + fmtDouble(v))
{
}

TraceField::TraceField(const char *key, const char *v)
    : json_(quoted(key) + "\"" + jsonEscape(v) + "\"")
{
}

TraceField::TraceField(const char *key, const std::string &v)
    : json_(quoted(key) + "\"" + jsonEscape(v) + "\"")
{
}

std::string
sanitizeRunLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok)
            c = '_';
    }
    return out;
}

namespace {

bool
isDirectory(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // namespace

std::string
resolveTracePath(const std::string &path, const std::string &label)
{
    static const std::string ext = ".trace.json";
    if (path.empty())
        return path;
    const std::string name =
        label.empty() ? std::string("run") : sanitizeRunLabel(label);
    if (path.back() == '/' || isDirectory(path)) {
        std::string dir = path;
        while (dir.size() > 1 && dir.back() == '/')
            dir.pop_back();
        if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
            fatal("trace: cannot create directory '%s'", dir.c_str());
        return dir + "/" + name + ext;
    }
    if (label.empty())
        return path;
    // Splice "-<label>" before the file extension (if any) so each
    // experiment of a sweep gets a private file. Prefer the full
    // canonical extension ("x.trace.json" -> "x-<label>.trace.json"),
    // falling back to the last dot for other suffixes.
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
        return path.substr(0, path.size() - ext.size()) + "-" + name +
               ext;
    }
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "-" + name;
    return path.substr(0, dot) + "-" + name + path.substr(dot);
}

ChromeTraceWriter::ChromeTraceWriter(const std::string &path)
    : path_(path), file_(std::fopen(path.c_str(), "w"))
{
    if (file_ == nullptr)
        fatal("spans: cannot open '%s' for writing", path.c_str());
    std::fprintf(file_, "[\n");
}

ChromeTraceWriter::~ChromeTraceWriter() { close(); }

void
ChromeTraceWriter::event(const std::string &json)
{
    if (!file_)
        return;
    if (std::fprintf(file_, "%s%s", first_ ? "" : ",\n", json.c_str()) <
        0) {
        warn_once("spans: write to '%s' failed; further failures are "
                  "silent",
                  path_.c_str());
        return;
    }
    first_ = false;
}

void
ChromeTraceWriter::close()
{
    if (!file_)
        return;
    std::fprintf(file_, "\n]\n");
    std::fclose(file_);
    file_ = nullptr;
}

} // namespace banshee
