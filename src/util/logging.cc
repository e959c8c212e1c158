#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "util/status.h"

namespace widen {
namespace {

LogLevel InitialLevel() {
  const char* env = std::getenv("WIDEN_LOG_LEVEL");
  if (env != nullptr && std::strlen(env) == 1 && env[0] >= '0' &&
      env[0] <= '3') {
    return static_cast<LogLevel>(env[0] - '0');
  }
  return LogLevel::kInfo;
}

std::atomic<int>& MinLevelStorage() {
  static std::atomic<int> level{static_cast<int>(InitialLevel())};
  return level;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

// "HH:MM:SS.uuuuuu" wall-clock prefix so stderr lines can be ordered and
// matched against trace events from the same thread id.
void FormatTimestamp(char (&buf)[24]) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000000;
  std::tm tm_buf;
  localtime_r(&seconds, &tm_buf);
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d.%06lld", tm_buf.tm_hour,
                tm_buf.tm_min, tm_buf.tm_sec,
                static_cast<long long>(micros));
}

}  // namespace

int CurrentThreadLogId() {
  static std::atomic<int> next_id{1};
  thread_local const int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void SetMinLogLevel(LogLevel level) {
  MinLevelStorage().store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel MinLogLevel() {
  return static_cast<LogLevel>(
      MinLevelStorage().load(std::memory_order_relaxed));
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  char ts[24];
  FormatTimestamp(ts);
  stream_ << "[" << LevelTag(level) << " " << ts << " t"
          << CurrentThreadLogId() << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  // The macro already filtered; this re-check keeps direct LogMessage
  // construction (tests, future call sites) consistent with the filter.
  if (static_cast<int>(level_) < static_cast<int>(MinLogLevel())) return;
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

FatalLogMessage::FatalLogMessage(const char* file, int line) {
  char ts[24];
  FormatTimestamp(ts);
  stream_ << "[F " << ts << " t" << CurrentThreadLogId() << " "
          << Basename(file) << ":" << line << "] ";
}

FatalLogMessage::~FatalLogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
  std::abort();
}

}  // namespace internal_logging
}  // namespace widen
