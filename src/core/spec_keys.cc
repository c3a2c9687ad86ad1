#include "core/spec_keys.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>

#include "core/session.h"
#include "engine/walk_engine.h"
#include "util/string_util.h"

namespace wnw {

namespace {

using F = SpecFamily;
using T = SpecType;
using S = SessionOptions;
using E = EngineOptions;
using V = SpecValue;

constexpr double kInf = std::numeric_limits<double>::infinity();

int ClampInt(uint64_t value) {
  return static_cast<int>(
      std::min<uint64_t>(value, std::numeric_limits<int>::max()));
}

// Table order is application order: backend before the latency knobs it
// creates a LatencyConfig for.
constexpr SpecKey kKeys[] = {
    {.field = {.key = "backend", .type = T::kEnum,
               .choices = "memory|latency|remote", .default_value = "memory",
               .doc = "origin stack: latency wraps a simulated-RTT "
                      "LatencyBackend, remote connects to a wnw_serve daemon"},
     .family = F::kBackend,
     .needs = "remote:addr", .conflicts = "memory:addr latency:addr",
     .apply = [](const V& v, S* s, E*) {
       if (v.text == "memory") s->latency.reset();
       if (v.text == "latency") s->latency.emplace();
     }},
    {.field = {.key = "mean_ms", .type = T::kDouble, .default_value = "50",
               .doc = "mean simulated round trip per request"},
     .family = F::kLatency, .needs = "backend=latency",
     .apply = [](const V& v, S* s, E*) { s->latency->mean_ms = v.real; }},
    {.field = {.key = "jitter_ms", .type = T::kDouble, .default_value = "0",
               .doc = "uniform jitter: each round trip draws from mean ± "
                      "jitter"},
     .family = F::kLatency, .needs = "backend=latency",
     .apply = [](const V& v, S* s, E*) { s->latency->jitter_ms = v.real; }},
    {.field = {.key = "fail_rate", .type = T::kDouble, .hi = 1.0,
               .hi_open = true, .default_value = "0",
               .doc = "per-attempt failure probability"},
     .family = F::kLatency, .needs = "backend=latency",
     .apply = [](const V& v, S* s, E*) {
       s->latency->failure_rate = v.real;
     }},
    {.field = {.key = "retry_ms", .type = T::kDouble, .default_value = "200",
               .doc = "simulated backoff before a retry"},
     .family = F::kLatency, .needs = "backend=latency",
     .apply = [](const V& v, S* s, E*) {
       s->latency->retry_backoff_ms = v.real;
     }},
    {.field = {.key = "retries", .type = T::kUint, .default_value = "64",
               .doc = "retry budget beyond the first attempt; exhausting it "
                      "is a ResourceExhausted draw error"},
     .family = F::kLatency, .needs = "backend=latency",
     .apply = [](const V& v, S* s, E*) {
       s->latency->max_retries = ClampInt(v.uint);
     }},
    {.field = {.key = "net_seed", .type = T::kUint, .default_value = "0xfeed",
               .doc = "latency/failure RNG seed, independent of the walk RNG"},
     .family = F::kLatency, .needs = "backend=latency",
     .apply = [](const V& v, S* s, E*) { s->latency->seed = v.uint; }},
    {.field = {.key = "sleep_scale", .type = T::kDouble, .default_value = "0",
               .doc = "real-sleep factor: a request sleeps simulated * scale "
                      "seconds (0 = accounting only)"},
     .family = F::kLatency, .needs = "backend=latency",
     .apply = [](const V& v, S* s, E*) { s->latency->sleep_scale = v.real; }},
    {.field = {.key = "addr", .type = T::kString, .default_value = "—",
               .doc = "host:port of a running wnw_serve"},
     .family = F::kRemote, .needs = "backend=remote",
     .path = &S::remote_addr},
    {.field = {.key = "deadline_ms", .type = T::kDouble, .lo_open = true,
               .default_value = "5000",
               .doc = "per-request deadline (one attempt)"},
     .family = F::kRemote, .needs = "backend=remote",
     .apply = [](const V& v, S* s, E*) { s->remote.deadline_ms = v.real; }},
    {.field = {.key = "connections", .type = T::kUint, .lo = 1, .hi = 64,
               .default_value = "2",
               .doc = "connection-pool size; requests pipeline per "
                      "connection"},
     .family = F::kRemote, .needs = "backend=remote",
     .apply = [](const V& v, S* s, E*) {
       s->remote.connections = static_cast<int>(v.uint);
     }},
    {.field = {.key = "rpc_retries", .type = T::kUint, .hi = 100,
               .default_value = "2",
               .doc = "retry budget beyond the first attempt for transient "
                      "failures"},
     .family = F::kRemote, .needs = "backend=remote",
     .apply = [](const V& v, S* s, E*) {
       s->remote.max_retries = static_cast<int>(v.uint);
     }},
    {.field = {.key = "rpc_backoff_ms", .type = T::kDouble,
               .default_value = "50",
               .doc = "linear backoff: retry k waits k * rpc_backoff_ms"},
     .family = F::kRemote, .needs = "backend=remote",
     .apply = [](const V& v, S* s, E*) {
       s->remote.retry_backoff_ms = v.real;
     }},
    {.field = {.key = "shards", .type = T::kUint, .lo = 1,
               .hi = ShardedGraph::kMaxShards, .default_value = "—",
               .doc = "vertex-partitioned ShardedBackend origin with "
                      "per-shard locks, limiters and latency stacks"},
     .family = F::kShard,
     .apply = [](const V& v, S* s, E*) {
       s->shards = static_cast<int>(v.uint);
     },
     .set_in = [](const S& s) { return s.shards >= 1; }},
    {.field = {.key = "partition", .type = T::kEnum,
               .choices = "hash|range|degree", .default_value = "hash",
               .doc = "the ShardedGraph partitioner"},
     .family = F::kShard, .needs = "shards",
     .apply = [](const V& v, S* s, E*) {
       s->partition = ParseShardPartition(v.text).value();
     }},
    {.field = {.key = "snapshot", .type = T::kString, .default_value = "—",
               .doc = "wnw_snapshot file the origin mmaps and serves instead "
                      "of the in-process graph"},
     .family = F::kStorage, .conflicts = "backend=memory",
     .path = &S::snapshot},
    {.field = {.key = "snapshot_verify", .type = T::kBool,
               .default_value = "on",
               .doc = "off skips the checksum and shard scans at open "
                      "(trusted open)"},
     .family = F::kStorage, .needs = "snapshot",
     .apply = [](const V& v, S* s, E*) { s->snapshot_verify = v.flag; }},
    {.field = {.key = "cache_file", .type = T::kString, .default_value = "—",
               .doc = "persistent query cache: loaded at open when present, "
                      "saved on session close"},
     .family = F::kStorage,
     .path = &S::cache_file},
    {.field = {.key = "window", .type = T::kUint, .lo = 1, .hi = 1024,
               .default_value = "—",
               .doc = "CompletionExecutor in-flight bound; absent = "
                      "synchronous fetches"},
     .family = F::kExecutor,
     .apply = [](const V& v, S* s, E*) {
       s->async = AsyncOptions{.window = static_cast<int>(v.uint)};
     }},
    {.field = {.key = "engine", .type = T::kEnum, .choices = "block",
               .default_value = "—",
               .doc = "run the spec on the block walk engine (RunWalkEngine)"},
     .family = F::kEngine,
     .apply = [](const V&, S*, E*) {}},
    {.field = {.key = "walkers", .type = T::kUint, .lo = 1, .hi = 1 << 30,
               .default_value = "64",
               .doc = "logical walkers multiplexed over the worker threads"},
     .family = F::kEngine,
     .apply = [](const V& v, S*, E* e) { e->walkers = v.uint; }},
    {.field = {.key = "block", .type = T::kUint, .lo = 1,
               .hi = std::numeric_limits<uint32_t>::max(),
               .default_value = "derived",
               .doc = "nodes per scheduling block; default derives from "
                      "graph size"},
     .family = F::kEngine,
     .apply = [](const V& v, S*, E* e) {
       e->block_nodes = static_cast<uint32_t>(v.uint);
     }},
    {.field = {.key = "residency_mb", .type = T::kUint, .hi = 1 << 30,
               .default_value = "0",
               .doc = "resident-byte budget in MiB for paging a "
                      "snapshot-served graph (0 = unbudgeted)"},
     .family = F::kEngine,
     .apply = [](const V& v, S*, E* e) {
       e->residency_budget_bytes = v.uint << 20;
     }},
    {.field = {.key = "prefetch", .type = T::kUint, .hi = 64,
               .default_value = "2",
               .doc = "scheduler picks prefetched ahead of the stepped block"},
     .family = F::kEngine,
     .apply = [](const V& v, S*, E* e) {
       e->prefetch_depth = static_cast<int>(v.uint);
     }},
};

constexpr size_t kNumKeys = std::size(kKeys);
static_assert(kNumKeys <= 64, "SpecKeySet holds one bit per row");

size_t RowOf(std::string_view key) {
  for (size_t i = 0; i < kNumKeys; ++i) {
    if (kKeys[i].field.key == key) return i;
  }
  return kNumKeys;
}

Status BadValue(const SpecField& field, std::string_view raw,
                const std::string& why) {
  return Status::InvalidArgument("spec key '" + std::string(field.key) + "=" +
                                 std::string(raw) + "' " + why);
}

// The checked value of each row the spec carries.
using SpecInput = std::array<std::optional<SpecValue>, kNumKeys>;

// Whether a rule token (`key` or `key=value`) holds; see the Rules note in
// spec_keys.h.
bool Holds(std::string_view token, const SpecInput& input,
           const SessionOptions& session) {
  const size_t eq = token.find('=');
  const size_t row = RowOf(token.substr(0, eq));
  const std::optional<SpecValue>& given = input[row];
  if (eq != std::string_view::npos) {
    return given.has_value() && given->text == token.substr(eq + 1);
  }
  const SpecKey& key = kKeys[row];
  return given.has_value() ||
         (key.path != nullptr && !(session.*key.path).empty()) ||
         (key.set_in != nullptr && key.set_in(session));
}

// Checks a spec-named row's rules: every `needs` token must hold and no
// `conflicts` token may.
Status CheckRules(size_t row, const SpecInput& input,
                  const SessionOptions& session) {
  const SpecKey& key = kKeys[row];
  const std::string_view value = input[row]->text;
  for (const bool required : {true, false}) {
    for (std::string_view token :
         SplitString(required ? key.needs : key.conflicts, " ")) {
      const size_t colon = token.find(':');
      if (colon != std::string_view::npos) {
        if (token.substr(0, colon) != value) continue;
        token = token.substr(colon + 1);
      }
      if (Holds(token, input, session) == required) continue;
      return BadValue(key.field, value,
                      required ? "requires " + std::string(token)
                               : "conflicts with " + std::string(token) +
                                     " — drop one of the two");
    }
  }
  return Status::OK();
}

// The one loop over the schema. `engine` selects the side: null consumes
// the session families into *session and rejects engine keys; non-null
// consumes only the engine family.
Result<SpecKeySet> ApplyKeys(SamplerConfig* config, SessionOptions* session,
                             EngineOptions* engine) {
  SpecInput input;
  for (size_t i = 0; i < kNumKeys; ++i) {
    const SpecKey& row = kKeys[i];
    const auto it = config->params.find(row.field.key);
    if (it == config->params.end()) continue;
    if ((row.family == F::kEngine) != (engine != nullptr)) {
      if (engine != nullptr) continue;  // left for ApplySessionKeys
      return Status::InvalidArgument(
          "spec key '" + std::string(row.field.key) +
          "' selects the block walk engine, which a plain SamplingSession "
          "cannot host — run it through RunWalkEngine (wnw_sample routes "
          "?engine=block there automatically)");
    }
    WNW_ASSIGN_OR_RETURN(input[i], CheckSpecValue(row.field, it->second));
  }
  if (session != nullptr) {
    for (size_t i = 0; i < kNumKeys; ++i) {
      if (input[i]) {
        WNW_RETURN_IF_ERROR(CheckRules(i, input, *session));
      }
    }
  }
  for (size_t i = 0; i < kNumKeys; ++i) {
    const SpecKey& row = kKeys[i];
    if (!input[i]) continue;
    const SpecValue& value = *input[i];
    if (row.path == nullptr) {
      row.apply(value, session, engine);
      continue;
    }
    std::string& field = session->*row.path;
    if (!field.empty() && field != value.text) {
      return BadValue(row.field, value.text,
                      "contradicts SessionOptions '" + field +
                          "' — drop one of the two");
    }
    field = std::string(value.text);
  }
  SpecKeySet seen;
  for (size_t i = 0; i < kNumKeys; ++i) {
    if (!input[i]) continue;
    config->params.erase(config->params.find(kKeys[i].field.key));
    seen.Add(i);
  }
  return seen;
}

}  // namespace

std::span<const SpecKey> ReservedSessionKeys() { return kKeys; }

bool SpecKeySet::Has(std::string_view key) const {
  const size_t row = RowOf(key);
  return row < kNumKeys && (rows_ >> row & 1) != 0;
}

bool SpecKeySet::Has(SpecFamily family) const {
  for (size_t i = 0; i < kNumKeys; ++i) {
    if (kKeys[i].family == family && (rows_ >> i & 1) != 0) return true;
  }
  return false;
}

Result<SpecKeySet> ApplySessionKeys(SamplerConfig* config,
                                    SessionOptions* session) {
  return ApplyKeys(config, session, nullptr);
}

Result<SpecKeySet> ApplyEngineKeys(SamplerConfig* config,
                                   EngineOptions* engine) {
  return ApplyKeys(config, nullptr, engine);
}

std::string_view SpecTypeName(SpecType type) {
  switch (type) {
    case T::kUint:
      return "uint";
    case T::kDouble:
      return "double";
    case T::kEnum:
      return "enum";
    case T::kString:
      return "string";
    case T::kBool:
      return "bool";
  }
  return "";
}

Result<SpecValue> CheckSpecValue(const SpecField& field,
                                 std::string_view raw) {
  SpecValue value;
  value.text = raw;
  switch (field.type) {
    case T::kUint:
      if (!ParseUint64(raw, &value.uint)) {
        return BadValue(field, raw, "is not a non-negative integer");
      }
      value.real = static_cast<double>(value.uint);
      break;
    case T::kDouble:
      if (!ParseDouble(raw, &value.real) || !std::isfinite(value.real)) {
        return BadValue(field, raw, "is not a finite number");
      }
      break;
    case T::kEnum:
      for (std::string_view choice : SplitString(field.choices, "|")) {
        if (raw == choice) return value;
        ++value.uint;
      }
      return BadValue(field, raw, "is not " + std::string(field.choices));
    case T::kString:
      if (raw.empty()) return BadValue(field, raw, "needs a value");
      return value;
    case T::kBool:
      if (raw == "on" || raw == "true" || raw == "1") {
        value.flag = true;
      } else if (!(raw == "off" || raw == "false" || raw == "0")) {
        return BadValue(field, raw, "is not on|off");
      }
      return value;
  }
  const bool below =
      field.lo_open ? value.real <= field.lo : value.real < field.lo;
  const bool above =
      field.hi_open ? value.real >= field.hi : value.real > field.hi;
  if (below || above) {
    return BadValue(field, raw, "is out of range " + SpecRangeText(field));
  }
  return value;
}

std::string FormatSpecNumber(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  return std::string(buf, end);
}

std::string SpecRangeText(const SpecField& field) {
  switch (field.type) {
    case T::kEnum:
      return std::string(field.choices);
    case T::kString:
      return "non-empty";
    case T::kBool:
      return "on|off";
    case T::kUint:
    case T::kDouble:
      break;
  }
  if (field.hi == kInf) {
    return std::string(field.lo_open ? "> " : ">= ") +
           FormatSpecNumber(field.lo);
  }
  return std::string(field.lo_open ? "(" : "[") + FormatSpecNumber(field.lo) +
         ", " + FormatSpecNumber(field.hi) + (field.hi_open ? ")" : "]");
}

}  // namespace wnw
