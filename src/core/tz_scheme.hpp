/// \file tz_scheme.hpp
/// \brief The Thorup–Zwick compact routing scheme for general graphs (§4).
///
/// Construction pipeline (one pass, bottom-up):
///   1. sample the hierarchy A_0 ⊇ … ⊇ A_{k-1} (landmarks.hpp);
///   2. compute pivots per level (clusters.hpp);
///   3. for every vertex w, grow its cluster C(w) by restricted Dijkstra,
///      build the tree-routing structures of the shortest-path tree T_w,
///      and scatter node records into the routing tables of C(w)'s
///      members; destinations whose labels reference T_w get their tree
///      label extracted from the same pass (core/tz_build.hpp);
///   4. finalize per-vertex tables (sort, bit-account, optional FKS index)
///      and per-destination labels.
/// Steps 1–4 take an optional thread pool; the bytes do not depend on it.
///
/// Guarantees (validated by tests/benches):
///   - routing s→t delivers over a path of weighted length at most
///     (4k−5)·d(s,t) without handshake and (2k−1)·d(s,t) with handshake
///     (tz_router.hpp);
///   - with centered sampling every table has O(n^{1/k}·log n) entries
///     worst case; with Bernoulli sampling the bound holds in expectation;
///   - label sizes are O(k·log n) bits.

#pragma once

#include <cstdint>
#include <vector>

#include "core/clusters.hpp"
#include "core/tz_labels.hpp"
#include "core/tz_tables.hpp"
#include "util/annotations.hpp"

namespace croute {

class ThreadPool;

/// Construction options for TZScheme.
struct TZSchemeOptions {
  PreprocessOptions pre;  ///< k and hierarchy sampling
  /// Build an FKS perfect-hash index over every vertex table (O(1)
  /// worst-case lookups; adds space accounted separately).
  bool hash_index = false;
  /// Carry d(w,t) in address labels (enables TZRouter's kMinEstimate
  /// ablation policy; adds 64 bits per label entry to the accounting).
  /// The flat serving view does not pool the distances: its wire
  /// decoder reads and discards them.
  bool labels_carry_distances = false;
};

/// Wall time of one fresh TZScheme construction, by phase. Table
/// finalization is the rest of the construction time.
struct TZBuildPhases {
  double sampling_pivots_s = 0;  ///< rank, hierarchy sampling, pivots
  double cluster_sweep_s = 0;    ///< label skeletons + every cluster tree
};

/// An immutable compact routing scheme over one connected graph.
class TZScheme {
 public:
  /// Preprocesses \p g. The graph must stay alive as long as the scheme.
  /// Deterministic in (graph, options, rng state): same bytes every run,
  /// at every pool size. \p pool (optional, borrowed for this call)
  /// shards landmark sampling, the cluster sweep and table finalization
  /// (core/tz_build.hpp); nullptr builds serially. \p phases (optional)
  /// receives the phase wall times.
  CROUTE_DETERMINISTIC TZScheme(const Graph& g,
                                const TZSchemeOptions& options, Rng& rng,
                                ThreadPool* pool = nullptr,
                                TZBuildPhases* phases = nullptr);

  const Graph& graph() const noexcept { return *g_; }
  CROUTE_HOT std::uint32_t k() const noexcept { return pre_.k(); }
  CROUTE_HOT const TZPreprocessing& preprocessing() const noexcept {
    return pre_;
  }
  CROUTE_HOT const TZSchemeOptions& options() const noexcept {
    return options_;
  }

  /// Routing table of vertex v.
  const VertexTable& table(VertexId v) const { return tables_[v]; }

  /// Table entry of v for tree root w, or nullptr (bunch membership test).
  const TableEntry* lookup(VertexId v, VertexId w) const {
    return tables_[v].find(w);
  }

  /// Address label of destination t.
  const RoutingLabel& label(VertexId t) const { return labels_[t]; }

  /// Cluster directory of vertex w: tree labels of every t ∈ C(w) in T_w.
  /// The source consults its own directory first (rule "t ∈ C(s)").
  const ClusterDirectory& directory(VertexId w) const { return dirs_[w]; }

  const LabelCodec& label_codec() const noexcept { return codec_; }
  const TreeRoutingScheme::Codec& tree_codec() const noexcept {
    return tree_codec_;
  }

  /// --- space accounting ---------------------------------------------------
  /// A vertex's full routing state: bunch entries + cluster directory
  /// (+ hash overhead when enabled).
  std::uint64_t table_bits(VertexId v) const {
    return tables_[v].bit_size() + tables_[v].hash_bits() +
           dirs_[v].bit_size();
  }
  std::uint64_t label_bits(VertexId t) const {
    return codec_.label_bits(labels_[t]);
  }
  std::uint64_t total_table_bits() const;
  std::uint64_t max_table_bits() const;

  /// Number of table entries per vertex (|B(v)|), for distribution stats.
  std::vector<std::uint32_t> bunch_sizes() const;

 private:
  friend class SchemeSerializer;
  friend class IncrementalRebuilder;  // delta-aware rebuilds fill members
  TZScheme() = default;

  const Graph* g_ = nullptr;
  TZSchemeOptions options_;
  TZPreprocessing pre_;
  TreeRoutingScheme::Codec tree_codec_;
  LabelCodec codec_;
  std::vector<VertexTable> tables_;
  std::vector<ClusterDirectory> dirs_;
  std::vector<RoutingLabel> labels_;
};

}  // namespace croute
