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
// creates a LatencyConfig for, window before threads/dispatch.
constexpr SpecKey kKeys[] = {
    {.key = "backend", .family = F::kBackend, .type = T::kEnum,
     .choices = "memory|latency|remote", .default_value = "memory",
     .needs = "remote:addr", .conflicts = "memory:addr latency:addr",
     .doc = "origin stack: latency wraps a simulated-RTT LatencyBackend, "
            "remote connects to a wnw_serve daemon",
     .apply = [](const V& v, S* s, E*) {
       if (v.text == "memory") s->latency.reset();
       if (v.text == "latency") s->latency.emplace();
     }},
    {.key = "mean_ms", .family = F::kLatency, .type = T::kDouble, .hi = kInf,
     .default_value = "50", .needs = "backend=latency",
     .doc = "mean simulated round trip per request",
     .apply = [](const V& v, S* s, E*) { s->latency->mean_ms = v.real; }},
    {.key = "jitter_ms", .family = F::kLatency, .type = T::kDouble,
     .hi = kInf, .default_value = "0", .needs = "backend=latency",
     .doc = "uniform jitter: each round trip draws from mean ± jitter",
     .apply = [](const V& v, S* s, E*) { s->latency->jitter_ms = v.real; }},
    {.key = "fail_rate", .family = F::kLatency, .type = T::kDouble, .hi = 1.0,
     .hi_open = true, .default_value = "0", .needs = "backend=latency",
     .doc = "per-attempt failure probability",
     .apply = [](const V& v, S* s, E*) {
       s->latency->failure_rate = v.real;
     }},
    {.key = "retry_ms", .family = F::kLatency, .type = T::kDouble,
     .hi = kInf, .default_value = "200", .needs = "backend=latency",
     .doc = "simulated backoff before a retry",
     .apply = [](const V& v, S* s, E*) {
       s->latency->retry_backoff_ms = v.real;
     }},
    {.key = "retries", .family = F::kLatency, .type = T::kUint, .hi = kInf,
     .default_value = "64", .needs = "backend=latency",
     .doc = "retry budget beyond the first attempt; exhausting it is a "
            "ResourceExhausted draw error",
     .apply = [](const V& v, S* s, E*) {
       s->latency->max_retries = ClampInt(v.uint);
     }},
    {.key = "net_seed", .family = F::kLatency, .type = T::kUint, .hi = kInf,
     .default_value = "0xfeed", .needs = "backend=latency",
     .doc = "latency/failure RNG seed, independent of the walk RNG",
     .apply = [](const V& v, S* s, E*) { s->latency->seed = v.uint; }},
    {.key = "sleep_scale", .family = F::kLatency, .type = T::kDouble,
     .hi = kInf, .default_value = "0", .needs = "backend=latency",
     .doc = "real-sleep factor: a request sleeps simulated * scale seconds "
            "(0 = accounting only)",
     .apply = [](const V& v, S* s, E*) { s->latency->sleep_scale = v.real; }},
    {.key = "addr", .family = F::kRemote, .type = T::kString,
     .default_value = "—", .needs = "backend=remote",
     .doc = "host:port of a running wnw_serve",
     .path = &S::remote_addr},
    {.key = "deadline_ms", .family = F::kRemote, .type = T::kDouble,
     .hi = kInf, .lo_open = true, .default_value = "5000",
     .needs = "backend=remote", .doc = "per-request deadline (one attempt)",
     .apply = [](const V& v, S* s, E*) { s->remote.deadline_ms = v.real; }},
    {.key = "connections", .family = F::kRemote, .type = T::kUint, .lo = 1,
     .hi = 64, .default_value = "2", .needs = "backend=remote",
     .doc = "connection-pool size; requests pipeline per connection",
     .apply = [](const V& v, S* s, E*) {
       s->remote.connections = static_cast<int>(v.uint);
     }},
    {.key = "rpc_retries", .family = F::kRemote, .type = T::kUint, .hi = 100,
     .default_value = "2", .needs = "backend=remote",
     .doc = "retry budget beyond the first attempt for transient failures",
     .apply = [](const V& v, S* s, E*) {
       s->remote.max_retries = static_cast<int>(v.uint);
     }},
    {.key = "rpc_backoff_ms", .family = F::kRemote, .type = T::kDouble,
     .hi = kInf, .default_value = "50", .needs = "backend=remote",
     .doc = "linear backoff: retry k waits k * rpc_backoff_ms",
     .apply = [](const V& v, S* s, E*) {
       s->remote.retry_backoff_ms = v.real;
     }},
    {.key = "shards", .family = F::kShard, .type = T::kUint, .lo = 1,
     .hi = ShardedGraph::kMaxShards, .default_value = "—",
     .doc = "vertex-partitioned ShardedBackend origin with per-shard locks, "
            "limiters and latency stacks",
     .apply = [](const V& v, S* s, E*) {
       s->shards = static_cast<int>(v.uint);
     },
     .set_in = [](const S& s) { return s.shards >= 1; }},
    {.key = "partition", .family = F::kShard, .type = T::kEnum,
     .choices = "hash|range|degree", .default_value = "hash",
     .needs = "shards", .doc = "the ShardedGraph partitioner",
     .apply = [](const V& v, S* s, E*) {
       s->partition = ParseShardPartition(v.text).value();
     }},
    {.key = "snapshot", .family = F::kStorage, .type = T::kString,
     .default_value = "—", .conflicts = "backend=memory",
     .doc = "wnw_snapshot file the origin mmaps and serves instead of the "
            "in-process graph",
     .path = &S::snapshot},
    {.key = "snapshot_verify", .family = F::kStorage, .type = T::kBool,
     .default_value = "on", .needs = "snapshot",
     .doc = "off skips the checksum and shard scans at open (trusted open)",
     .apply = [](const V& v, S* s, E*) { s->snapshot_verify = v.flag; }},
    {.key = "cache_file", .family = F::kStorage, .type = T::kString,
     .default_value = "—",
     .doc = "persistent query cache: loaded at open when present, saved on "
            "session close",
     .path = &S::cache_file},
    {.key = "window", .family = F::kExecutor, .type = T::kUint, .lo = 1,
     .hi = 1024, .default_value = "—",
     .doc = "CompletionExecutor in-flight bound; absent = synchronous fetches",
     .apply = [](const V& v, S* s, E*) {
       s->async = AsyncOptions{.window = static_cast<int>(v.uint)};
     }},
    {.key = "threads", .family = F::kExecutor, .type = T::kUint, .hi = 256,
     .default_value = "0", .needs = "window",
     .doc = "executor worker cap; 0 sizes the pool automatically",
     .apply = [](const V& v, S* s, E*) {
       s->async->threads = static_cast<int>(v.uint);
     }},
    {.key = "dispatch", .family = F::kExecutor, .type = T::kEnum,
     .choices = "completion|threads", .default_value = "completion",
     .needs = "window",
     .doc = "threads runs every fetch on a pool worker (the ablation "
            "baseline)",
     .apply = [](const V& v, S* s, E*) {
       s->async->dispatch = v.text == "threads"
                                ? AsyncOptions::Dispatch::kThreadPool
                                : AsyncOptions::Dispatch::kCompletion;
     }},
    {.key = "engine", .family = F::kEngine, .type = T::kEnum,
     .choices = "block", .default_value = "—",
     .doc = "run the spec on the block walk engine (RunWalkEngine)",
     .apply = [](const V&, S*, E*) {}},
    {.key = "walkers", .family = F::kEngine, .type = T::kUint, .lo = 1,
     .hi = 1 << 30, .default_value = "64",
     .doc = "logical walkers multiplexed over the worker threads",
     .apply = [](const V& v, S*, E* e) { e->walkers = v.uint; }},
    {.key = "block", .family = F::kEngine, .type = T::kUint, .lo = 1,
     .hi = std::numeric_limits<uint32_t>::max(), .default_value = "derived",
     .doc = "nodes per scheduling block; default derives from graph size",
     .apply = [](const V& v, S*, E* e) {
       e->block_nodes = static_cast<uint32_t>(v.uint);
     }},
    {.key = "residency_mb", .family = F::kEngine, .type = T::kUint,
     .hi = 1 << 30, .default_value = "0",
     .doc = "resident-byte budget in MiB for paging a snapshot-served graph "
            "(0 = unbudgeted)",
     .apply = [](const V& v, S*, E* e) {
       e->residency_budget_bytes = v.uint << 20;
     }},
    {.key = "prefetch", .family = F::kEngine, .type = T::kUint, .hi = 64,
     .default_value = "2",
     .doc = "scheduler picks prefetched ahead of the stepped block",
     .apply = [](const V& v, S*, E* e) {
       e->prefetch_depth = static_cast<int>(v.uint);
     }},
};

constexpr size_t kNumKeys = std::size(kKeys);
static_assert(kNumKeys <= 64, "SpecKeySet holds one bit per row");

size_t RowOf(std::string_view key) {
  for (size_t i = 0; i < kNumKeys; ++i) {
    if (kKeys[i].key == key) return i;
  }
  return kNumKeys;
}

std::string FormatNumber(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  return std::string(buf, end);
}

Status BadValue(const SpecKey& row, std::string_view raw,
                const std::string& why) {
  return Status::InvalidArgument("spec key '" + std::string(row.key) + "=" +
                                 std::string(raw) + "' " + why);
}

Result<SpecValue> CheckValue(const SpecKey& row, std::string_view raw) {
  SpecValue value;
  value.text = raw;
  switch (row.type) {
    case T::kUint:
      if (!ParseUint64(raw, &value.uint)) {
        return BadValue(row, raw, "is not a non-negative integer");
      }
      value.real = static_cast<double>(value.uint);
      break;
    case T::kDouble:
      if (!ParseDouble(raw, &value.real) || !std::isfinite(value.real)) {
        return BadValue(row, raw, "is not a finite number");
      }
      break;
    case T::kEnum:
      for (std::string_view choice : SplitString(row.choices, "|")) {
        if (raw == choice) return value;
      }
      return BadValue(row, raw, "is not " + std::string(row.choices));
    case T::kString:
      if (raw.empty()) return BadValue(row, raw, "needs a value");
      return value;
    case T::kBool:
      if (raw == "on" || raw == "true" || raw == "1") {
        value.flag = true;
      } else if (!(raw == "off" || raw == "false" || raw == "0")) {
        return BadValue(row, raw, "is not on|off");
      }
      return value;
  }
  const bool below = row.lo_open ? value.real <= row.lo : value.real < row.lo;
  const bool above = row.hi_open ? value.real >= row.hi : value.real > row.hi;
  if (below || above) {
    return BadValue(row, raw, "is out of range " + SpecRangeText(row));
  }
  return value;
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
      return BadValue(key, value,
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
    const auto it = config->params.find(row.key);
    if (it == config->params.end()) continue;
    if ((row.family == F::kEngine) != (engine != nullptr)) {
      if (engine != nullptr) continue;  // left for ApplySessionKeys
      return Status::InvalidArgument(
          "spec key '" + std::string(row.key) +
          "' selects the block walk engine, which a plain SamplingSession "
          "cannot host — run it through RunWalkEngine (wnw_sample routes "
          "?engine=block there automatically)");
    }
    WNW_ASSIGN_OR_RETURN(input[i], CheckValue(row, it->second));
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
      return BadValue(row, value.text,
                      "contradicts SessionOptions '" + field +
                          "' — drop one of the two");
    }
    field = std::string(value.text);
  }
  SpecKeySet seen;
  for (size_t i = 0; i < kNumKeys; ++i) {
    if (!input[i]) continue;
    config->params.erase(config->params.find(kKeys[i].key));
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

std::string SpecRangeText(const SpecKey& row) {
  switch (row.type) {
    case T::kEnum:
      return std::string(row.choices);
    case T::kString:
      return "non-empty";
    case T::kBool:
      return "on|off";
    case T::kUint:
    case T::kDouble:
      break;
  }
  if (row.hi == kInf) {
    return (row.lo_open ? "> " : ">= ") + FormatNumber(row.lo);
  }
  return (row.lo_open ? "(" : "[") + FormatNumber(row.lo) + ", " +
         FormatNumber(row.hi) + (row.hi_open ? ")" : "]");
}

}  // namespace wnw
