#include "common/log.h"

#include <atomic>
#include <cstdio>

namespace fl {

namespace {
// Atomic so parallel sweep workers (common/parallel.h) can read the level
// without a data race; the level is still meant to be set once, up front.
std::atomic<LogLevel> g_level = LogLevel::kOff;

const char* level_name(LogLevel level) {
    switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
    }
    return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level = level; }
LogLevel log_level() { return g_level; }

std::optional<LogLevel> parse_log_level(std::string_view name) {
    if (name == "trace") return LogLevel::kTrace;
    if (name == "debug") return LogLevel::kDebug;
    if (name == "info") return LogLevel::kInfo;
    if (name == "warn") return LogLevel::kWarn;
    if (name == "error") return LogLevel::kError;
    if (name == "off") return LogLevel::kOff;
    return std::nullopt;
}

namespace detail {
void log_line(LogLevel level, const std::string& msg) {
    std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace detail

}  // namespace fl
