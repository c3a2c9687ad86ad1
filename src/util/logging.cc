#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wnw {

namespace {

LogLevel InitialLevel() {
  const char* env = std::getenv("WNW_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warning") == 0) return LogLevel::kWarning;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  return LogLevel::kInfo;
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

}  // namespace

LogLevel GetLogLevel() {
  static const LogLevel level = InitialLevel();
  return level;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << LevelTag(level) << " " << (base ? base + 1 : file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  (void)level_;
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

}  // namespace internal

}  // namespace wnw
