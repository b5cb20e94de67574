/// \file clusters.hpp
/// \brief Bunches, clusters and pivots: the shared Thorup–Zwick machinery.
///
/// Given a hierarchy A_0 ⊇ … ⊇ A_{k-1}, define for every vertex v and
/// level i the *pivot* p_i(v) — the lexicographically nearest A_i vertex —
/// and for every w ∈ A_i \ A_{i+1} (with A_k = ∅) the *cluster*
///
///   C(w) = { v : (d(w,v), rank(w)) <lex (d(A_{i+1}, v), rank(p_{i+1}(v))) }.
///
/// Clusters at the top level i = k-1 span all of V (their guard is +∞).
/// The *bunch* is the inverse relation: B(v) = { w : v ∈ C(w) }; routing
/// tables are keyed by bunches, destination labels by pivots.
///
/// ### Effective pivots
/// Under strict lexicographic comparisons, v ∈ C(p_i(v)) holds **iff**
/// p_i(v) ≠ p_{i+1}(v); when pivots repeat across levels the nearer level's
/// cluster does not contain v. The *effective* pivot for level i is
/// p_j(v) for the first j ≥ i with p_j(v) ≠ p_{j+1}(v) (or j = k-1). It
/// satisfies d(ŵ_i(v), v) = d(A_i, v) — exactly what every stretch proof
/// uses — and guarantees v ∈ C(ŵ_i(v)), which is what routing needs.
///
/// TZPreprocessing computes the hierarchy and all pivots once, and builds
/// each cluster on demand (as a LocalTree rooted at its center, built by
/// restricted Dijkstra), so schemes hold one cluster tree in memory at a
/// time — or one bounded window of them when the sweep runs on a pool
/// (core/tz_build.hpp).

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/landmarks.hpp"
#include "graph/spt.hpp"
#include "util/annotations.hpp"

namespace croute {

class ThreadPool;

/// Options shared by every TZ-derived scheme.
struct PreprocessOptions {
  std::uint32_t k = 3;  ///< number of levels; stretch 2k-1 / 4k-5
  HierarchyOptions hierarchy;
};

/// Hierarchy + pivots + cluster streaming for one connected graph.
class TZPreprocessing {
 public:
  /// Runs hierarchy sampling and one multi-source Dijkstra per level.
  /// Requires a connected graph with >= 1 vertex. \p pool (optional,
  /// borrowed for this call) shards the sampler's cluster measurements
  /// and the per-level pivot runs; the result is identical at every
  /// pool size.
  CROUTE_DETERMINISTIC TZPreprocessing(const Graph& g,
                                       const PreprocessOptions& options,
                                       Rng& rng, ThreadPool* pool = nullptr);

  const Graph& graph() const noexcept { return *g_; }
  std::uint32_t k() const noexcept { return hierarchy_.k; }
  const LandmarkHierarchy& hierarchy() const noexcept { return hierarchy_; }
  const std::vector<std::uint32_t>& rank() const noexcept { return rank_; }

  /// Level of w as a cluster center: the max i with w ∈ A_i.
  std::uint32_t center_level(VertexId w) const {
    return hierarchy_.level_of[w];
  }

  /// p_i(v): the lexicographically nearest A_i vertex to v.
  CROUTE_HOT VertexId pivot(std::uint32_t level, VertexId v) const {
    return pivots_[level].owner[v];
  }
  /// d(A_i, v).
  Weight pivot_dist(std::uint32_t level, VertexId v) const {
    return pivots_[level].dist[v];
  }

  /// The effective pivot level for (level, v): the first j >= level with
  /// p_j(v) != p_{j+1}(v), or k-1. v ∈ C(p_j(v)) is guaranteed.
  CROUTE_HOT std::uint32_t effective_level(std::uint32_t level,
                                           VertexId v) const;

  /// Effective pivot ŵ_level(v) (see file comment).
  CROUTE_HOT VertexId effective_pivot(std::uint32_t level, VertexId v) const {
    return pivot(effective_level(level, v), v);
  }

  /// The lexicographic guard used by C(w) for a center at \p level:
  /// (d(A_{level+1}, v), rank(p_{level+1}(v))), or +∞ at the top level.
  LexDist cluster_guard(std::uint32_t level, VertexId v) const {
    if (level + 1 >= k()) return LexDist{};
    return LexDist{pivots_[level + 1].dist[v],
                   rank_[pivots_[level + 1].owner[v]]};
  }

  /// Builds C(w) as a LocalTree (shortest-path tree rooted at w, exact
  /// distances). members/ports per spt.hpp. w itself is always included.
  LocalTree build_cluster(VertexId w) const;

  /// Same tree, growing sub-top-level clusters in the caller's
  /// restricted-Dijkstra \p workspace (reused across calls; one per
  /// thread). Top-level centers run a plain Dijkstra and the canonical
  /// tree construction (make_canonical_spt) instead.
  LocalTree build_cluster(VertexId w, RestrictedDijkstra& workspace) const;

  /// Streams every cluster in ascending center id: consumer(w, tree).
  /// Sequential, through build_cluster with one shared workspace. The
  /// scheme builders (core/tz_build.hpp) sweep the same trees in the
  /// same center order — in windows on a pool for fresh builds, and
  /// re-running Dijkstra only from invalidated roots for incremental
  /// ones.
  void for_each_cluster(
      const std::function<void(VertexId, const LocalTree&)>& consumer) const;

  /// |C(w)| for every w (cheap pass without tree construction).
  std::vector<std::uint32_t> cluster_sizes() const;

 private:
  friend class SchemeSerializer;
  friend class TZScheme;  // default-constructs pre_ during deserialization
  friend class IncrementalRebuilder;  // moves a fresh pre_ into the scheme
  TZPreprocessing() = default;

  const Graph* g_ = nullptr;
  std::vector<std::uint32_t> rank_;
  LandmarkHierarchy hierarchy_;
  std::vector<MultiSourceResult> pivots_;  ///< one per level
};

}  // namespace croute
