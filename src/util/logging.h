// Minimal leveled logging to stderr. Experiment binaries mostly print results
// to stdout through util/table.h; logging is for progress and diagnostics.
#pragma once

#include <sstream>
#include <string>

namespace wnw {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global log threshold; messages below it are dropped. Default: kInfo.
/// Honors the WNW_LOG_LEVEL environment variable (debug|info|warning|error).
LogLevel GetLogLevel();

namespace internal {
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace internal

#define WNW_LOG(level)                                              \
  if (::wnw::LogLevel::level >= ::wnw::GetLogLevel())               \
  ::wnw::internal::LogMessage(::wnw::LogLevel::level, __FILE__, __LINE__) \
      .stream()

}  // namespace wnw
