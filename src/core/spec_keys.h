// The spec-key schema. Every key a spec string can carry is a row whose
// SpecField names it and gives its type, bounds, default and a one-line doc.
// One checker (CheckSpecValue) parses every value, and `wnw_sample --help`
// and the docs check in tests/registry_test.cc render the fields, so a new
// key is one new row. A session-reserved row (SpecKey, below) adds a family,
// requires/conflicts rules and where its value lands in SessionOptions (or
// EngineOptions); one loop parses, checks and applies them. A sampler's rows
// (src/core/registry.cc) land in its options struct instead.
//
//   "we:mhrw?diameter=8&backend=latency&mean_ms=50&window=8"
//
// Rules. `needs` and `conflicts` hold space-separated tokens `key` or
// `key=value`, optionally prefixed `own_value:` to bind the rule to one
// value of an enum row ("remote:addr" — backend=remote requires addr). A
// rule binds a row the spec names. A `key=value` token holds when the spec
// carries exactly that value; a bare `key` token also holds when
// SessionOptions already sets that key's option (shards >= 1, a non-empty
// snapshot / remote_addr / cache_file path).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "util/status.h"

namespace wnw {

struct SamplerConfig;
struct SessionOptions;
struct EngineOptions;

enum class SpecFamily {
  kBackend,   // backend kind: memory | latency | remote
  kLatency,   // simulated RTT / failure knobs of backend=latency
  kRemote,    // wnw_serve client: address and client tuning
  kShard,     // vertex-sharded origin
  kStorage,   // snapshot origin and persistent query cache
  kExecutor,  // CompletionExecutor in-flight window
  kEngine,    // block walk engine; RunWalkEngine only
};

enum class SpecType { kUint, kDouble, kEnum, kString, kBool };

/// A checked value; the member matching the row's type is set (an enum
/// sets uint to the index of its choice; text holds the raw value for
/// every type).
struct SpecValue {
  uint64_t uint = 0;
  double real = 0.0;
  bool flag = false;
  std::string_view text;
};

/// What a key is, independent of where its value lands.
struct SpecField {
  std::string_view key = {};
  SpecType type = SpecType::kUint;
  /// Numeric bounds (uint, double), inclusive unless the *_open flag says
  /// otherwise; hi defaults to unbounded. Doubles must also be finite.
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
  std::string_view choices = {};        // enum: "a|b|c"
  std::string_view default_value = {};  // as documented; "—" = unset
  std::string_view doc = {};
};

struct SpecKey {
  SpecField field;
  SpecFamily family = SpecFamily::kBackend;
  std::string_view needs = {};          // see Rules
  std::string_view conflicts = {};      // see Rules
  /// Writes a checked value. String rows leave this null and name their
  /// SessionOptions field in `path` instead.
  void (*apply)(const SpecValue& value, SessionOptions* session,
                EngineOptions* engine) = nullptr;
  std::string SessionOptions::*path = nullptr;
  /// Whether SessionOptions already sets this key's option (see Rules).
  bool (*set_in)(const SessionOptions& session) = nullptr;
};

/// The schema: every session-reserved key, in application order. No
/// sampler may register an option under one of these names
/// (SamplerRegistry::Register enforces it).
std::span<const SpecKey> ReservedSessionKeys();

/// Which schema rows a spec carried.
class SpecKeySet {
 public:
  bool Has(std::string_view key) const;
  bool Has(SpecFamily family) const;
  void Add(size_t row) { rows_ |= uint64_t{1} << row; }

 private:
  uint64_t rows_ = 0;
};

/// Consumes the session families' keys from *config into *session, checking
/// type, range and the requires/conflicts rules. An engine-family key is an
/// error here: a session cannot host the block engine.
Result<SpecKeySet> ApplySessionKeys(SamplerConfig* config,
                                    SessionOptions* session);

/// Consumes the engine family's keys from *config into *engine; the other
/// reserved keys stay for ApplySessionKeys.
Result<SpecKeySet> ApplyEngineKeys(SamplerConfig* config,
                                   EngineOptions* engine);

/// Parses `raw` as the field's type and checks it against its bounds or
/// choices; InvalidArgument names the key, the value and why.
Result<SpecValue> CheckSpecValue(const SpecField& field, std::string_view raw);

/// Shortest decimal text that parses back to exactly `value`.
std::string FormatSpecNumber(double value);

std::string_view SpecTypeName(SpecType type);

/// The valid values of a field for help text: "[1, 1024]", ">= 0",
/// "memory|latency|remote", "non-empty", ...
std::string SpecRangeText(const SpecField& field);

}  // namespace wnw
