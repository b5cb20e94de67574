#include "core/clusters.hpp"

#include "graph/connectivity.hpp"
#include "util/parallel.hpp"

namespace croute {

CROUTE_DETERMINISTIC TZPreprocessing::TZPreprocessing(const Graph& g,
                                 const PreprocessOptions& options, Rng& rng,
                                 ThreadPool* pool)
    : g_(&g) {
  CROUTE_REQUIRE(g.num_vertices() >= 1, "graph must be non-empty");
  CROUTE_REQUIRE(is_connected(g),
                 "TZ preprocessing requires a connected graph "
                 "(run per component, see connectivity.hpp)");
  rank_ = rng.permutation(g.num_vertices());
  hierarchy_ = build_hierarchy(g, options.k, rank_, rng, options.hierarchy,
                               pool);

  // Pivots per level: k independent runs, one slot each. Level 0 is
  // trivial (every vertex is its own pivot); computing it via the same
  // code path keeps invariants uniform.
  pivots_.resize(k());
  for_each_index(pool, k(), [&](std::uint64_t i, unsigned) {
    pivots_[i] = multi_source_dijkstra(g, hierarchy_.levels[i], rank_);
  });
  for (const MultiSourceResult& level : pivots_) {
    // Connectivity ⇒ every vertex has a level-i pivot.
    CROUTE_ASSERT(level.reached(0), "pivot computation failed");
  }
}

CROUTE_HOT std::uint32_t TZPreprocessing::effective_level(
    std::uint32_t level, VertexId v) const {
  CROUTE_REQUIRE(level < k(), "level out of range");
  std::uint32_t j = level;
  while (j + 1 < k() && pivots_[j].owner[v] == pivots_[j + 1].owner[v]) {
    ++j;
  }
  return j;
}

namespace {

/// Top-level clusters span all of V (their guard is +∞): build the
/// canonical tree of the plain-Dijkstra distance field. Canonical trees
/// are pure functions of the distances, which is what lets delta-aware
/// rebuilds recompute only orphaned regions
/// (core/incremental_rebuild.hpp) and still match a fresh build
/// byte-for-byte.
LocalTree canonical_top_tree(const Graph& g, VertexId w) {
  return make_canonical_spt(g, w, dijkstra(g, w).dist);
}

}  // namespace

LocalTree TZPreprocessing::build_cluster(VertexId w) const {
  if (center_level(w) + 1 >= k()) return canonical_top_tree(*g_, w);
  RestrictedDijkstra rd(*g_);
  return build_cluster(w, rd);
}

LocalTree TZPreprocessing::build_cluster(VertexId w,
                                         RestrictedDijkstra& workspace) const {
  const std::uint32_t level = center_level(w);
  if (level + 1 >= k()) return canonical_top_tree(*g_, w);
  auto guard_fn = [&](VertexId v) { return cluster_guard(level, v); };
  return make_local_tree(workspace.run(w, rank_[w], guard_fn));
}

void TZPreprocessing::for_each_cluster(
    const std::function<void(VertexId, const LocalTree&)>& consumer) const {
  RestrictedDijkstra rd(*g_);
  for (VertexId w = 0; w < g_->num_vertices(); ++w) {
    consumer(w, build_cluster(w, rd));
  }
}

std::vector<std::uint32_t> TZPreprocessing::cluster_sizes() const {
  RestrictedDijkstra rd(*g_);
  std::vector<std::uint32_t> sizes(g_->num_vertices(), 0);
  for (VertexId w = 0; w < g_->num_vertices(); ++w) {
    const std::uint32_t level = center_level(w);
    auto guard_fn = [&](VertexId v) { return cluster_guard(level, v); };
    sizes[w] =
        static_cast<std::uint32_t>(rd.run(w, rank_[w], guard_fn).size());
  }
  return sizes;
}

}  // namespace croute
