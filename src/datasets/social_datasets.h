// Synthetic stand-ins for the paper's evaluation datasets (§7.1). The real
// crawls (Google Plus, Yelp academic, SNAP Twitter) are not redistributable
// here, so each maker synthesizes a graph matched on the paper's reported
// node count, edge count / average degree, and attribute semantics — see the
// substitution table in DESIGN.md. `scale` in (0, 1] shrinks the instance
// proportionally for fast experiment iterations (scale = 1 reproduces the
// paper's sizes).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/attributes.h"
#include "graph/graph.h"
#include "util/status.h"

namespace wnw {

struct SocialDataset {
  std::string name;
  Graph graph;
  AttributeTable attrs;
  /// Double-sweep diameter estimate, used as D̄(G) for WALK (2*D̄+1).
  uint32_t diameter_estimate = 0;
};

/// Google Plus stand-in. Paper: 16,405 users, ~4.6M edges (avg degree
/// 560.44), attribute = self-description word count.
/// Columns: "self_desc_len".
SocialDataset MakeGPlusLike(double scale, uint64_t seed);

/// Yelp stand-in. Paper: ~120K users, ~954K review-coincidence edges,
/// attribute = star rating; topological aggregates (clustering, shortest
/// path) are also evaluated. Columns: "stars", "path_len", and (when
/// `with_expensive_attrs`) "clustering".
SocialDataset MakeYelpLike(double scale, uint64_t seed,
                           bool with_expensive_attrs = true);

/// Twitter stand-in. Paper: ~80K users, ~1.7M edges, built from a directed
/// graph reduced to mutual edges; aggregates are in/out degree, shortest
/// path, clustering. Columns: "in_degree", "out_degree", "path_len", and
/// (when `with_expensive_attrs`) "clustering".
SocialDataset MakeTwitterLike(double scale, uint64_t seed,
                              bool with_expensive_attrs = true);

/// The paper's small scale-free graph for exact-bias experiments: 1000
/// nodes, ~6951 edges (BA with m = 7). Columns: "clustering".
SocialDataset MakeSmallScaleFree(uint64_t seed);

/// Plain Barabási–Albert dataset (paper's synthetic sweep: 10k-20k nodes,
/// m = 5). Column: none (degree aggregates only).
SocialDataset MakeSyntheticBA(NodeId n, uint32_t m, uint64_t seed);

/// The `--dataset` grammar of every tool (wnw_sample, wnw_snapshot,
/// loadgen_remote). They all build through BuildDatasetGraph, so one spec,
/// seed and scale give one graph everywhere: the snapshot, stream and remote
/// identity checks rest on that.
inline constexpr std::string_view kDatasetSpecUsage =
    "ba:N,M | rand:N,M | gplus | yelp | twitter | small";

/// The tools' default `--scale`.
inline constexpr double kDefaultDatasetScale = 0.25;

/// A parsed dataset spec. ba:N,M is a Barabási–Albert graph of N nodes with
/// M edges per new node; rand:N,M is a uniform random multigraph of N nodes
/// and M edges, the edges a RandomEdgeSource(N, M, seed) streams. The named
/// datasets are the stand-ins above.
struct DatasetSpec {
  enum class Kind { kBarabasiAlbert, kUniformRandom, kGPlus, kYelp, kTwitter,
                    kSmall };
  Kind kind = Kind::kSmall;
  NodeId nodes = 0;    // ba, rand: N
  uint64_t edges = 0;  // ba: M per new node; rand: M in total
};

/// Parses a `kDatasetSpecUsage` spec. A malformed spec, an unknown name, an
/// N that does not fit NodeId, and a ba M that does not fit uint32_t are
/// InvalidArgument.
Result<DatasetSpec> ParseDatasetSpec(std::string_view spec);

/// Builds the spec's graph from `seed`; `scale` shrinks gplus, yelp and
/// twitter as their makers do.
Result<Graph> BuildDatasetGraph(const DatasetSpec& spec, uint64_t seed,
                                double scale);

}  // namespace wnw
