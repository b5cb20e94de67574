#include "core/tz_build.hpp"

#include <optional>

#include "core/clusters.hpp"
#include "util/parallel.hpp"

namespace croute {
namespace tz_build {

CROUTE_DETERMINISTIC NeededLabels label_skeletons(const TZPreprocessing& pre,
                             std::vector<RoutingLabel>& labels) {
  const VertexId n = pre.graph().num_vertices();
  const std::uint32_t k = pre.k();
  labels.resize(n);
  NeededLabels needed(n);
  for (VertexId t = 0; t < n; ++t) {
    RoutingLabel& label = labels[t];
    label.t = t;
    VertexId last_pivot = kNoVertex;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t j = pre.effective_level(i, t);
      const VertexId w = pre.pivot(j, t);
      CROUTE_ASSERT(w != kNoVertex, "missing pivot on a connected graph");
      if (w == last_pivot) continue;  // same run
      last_pivot = w;
      LabelEntry e;
      e.level = i;
      e.w = w;
      e.dist = pre.pivot_dist(i, t);  // == pivot_dist(j, t) along the run
      label.entries.push_back(std::move(e));
      needed[w].emplace_back(
          t, static_cast<std::uint32_t>(label.entries.size() - 1));
    }
  }
  return needed;
}

CROUTE_DETERMINISTIC TreeRoutingScheme prepare_cluster(const BuildTarget& out,
                                                       VertexId w,
                                                       std::uint32_t level,
                                                       const LocalTree& tree,
                                                       LocalIndex& index) {
  TreeRoutingScheme trs(tree);
  // Rule-0 directories exist only for level-0 centers. For a landmark
  // source s ∈ A_1 the rule-0 certificate d(t, A_1) ≤ d(s, t) holds
  // trivially (s itself is in A_1), so its directory may be empty —
  // and must be, or top-level centers (C(w) = V) would store Θ(n log n)
  // bits and break the paper's Õ(n^{1/k}) per-vertex table bound.
  if (level == 0) {
    out.dirs[w] = ClusterDirectory(tree, trs, out.tree_codec, out.id_bits);
  }
  if (!out.needed[w].empty()) {
    for (std::uint32_t i = 0; i < tree.size(); ++i) index[tree.global[i]] = i;
    for (const auto& [t, entry_idx] : out.needed[w]) {
      const std::uint32_t local = index[t];
      CROUTE_ASSERT(local != kNoLocal,
                    "label references a tree that misses its destination "
                    "(effective-pivot invariant violated)");
      out.labels[t].entries[entry_idx].tree = trs.label(local);
    }
    for (const VertexId v : tree.global) index[v] = kNoLocal;
  }
  return trs;
}

CROUTE_DETERMINISTIC void scatter_cluster(const BuildTarget& out, VertexId w,
                                          std::uint32_t level,
                                          const LocalTree& tree,
                                          const TreeRoutingScheme& trs,
                                          VertexId v_begin, VertexId v_end,
                                          std::vector<std::uint8_t>*
                                              fresh_contrib) {
  for (std::uint32_t i = 0; i < tree.size(); ++i) {
    const VertexId v = tree.global[i];
    if (v < v_begin || v >= v_end) continue;
    PendingTable& pt = out.pending[v];
    TableEntry e;
    e.w = w;
    e.level = level;
    e.dist = tree.dist[i];
    e.record = trs.record(i);
    const std::span<const Port> own = trs.light_ports(i);
    e.light_off = static_cast<std::uint32_t>(pt.light_pool.size());
    e.light_len = static_cast<std::uint32_t>(own.size());
    pt.light_pool.insert(pt.light_pool.end(), own.begin(), own.end());
    pt.entries.push_back(std::move(e));
    if (fresh_contrib != nullptr) (*fresh_contrib)[v] = 1;
  }
}

CROUTE_DETERMINISTIC void consume_cluster(const BuildTarget& out, VertexId w,
                                          std::uint32_t level,
                                          const LocalTree& tree,
                                          LocalIndex& index,
                                          std::vector<std::uint8_t>*
                                              fresh_contrib) {
  const TreeRoutingScheme trs = prepare_cluster(out, w, level, tree, index);
  scatter_cluster(out, w, level, tree, trs, 0,
                  static_cast<VertexId>(out.pending.size()), fresh_contrib);
}

CROUTE_DETERMINISTIC void sweep_clusters(const TZPreprocessing& pre,
                                         const BuildTarget& out,
                                         ThreadPool* pool) {
  const Graph& g = pre.graph();
  const VertexId n = g.num_vertices();
  const unsigned workers = pool_workers(pool);
  std::vector<RestrictedDijkstra> workspaces;
  workspaces.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) workspaces.emplace_back(g);
  std::vector<LocalIndex> indexes(workers, LocalIndex(n, kNoLocal));

  if (workers <= 1) {
    for (VertexId w = 0; w < n; ++w) {
      consume_cluster(out, w, pre.center_level(w),
                      pre.build_cluster(w, workspaces[0]), indexes[0]);
    }
    return;
  }

  struct BuiltCluster {
    LocalTree tree;
    TreeRoutingScheme trs;
  };
  std::vector<std::optional<BuiltCluster>> slots(kSweepWindow);
  std::vector<std::uint32_t> order;  // build order: whole-graph trees first
  const auto is_top = [&](VertexId w) {
    return pre.center_level(w) + 1 >= pre.k();
  };
  for (VertexId begin = 0; begin < n;) {
    VertexId end = begin;
    unsigned top_trees = 0;
    while (end < n && end - begin < kSweepWindow) {
      if (is_top(end) && top_trees++ == workers) break;
      ++end;
    }
    const std::uint32_t count = end - begin;

    // Build + prepare: one slot per center. Whole-graph trees go first
    // so no worker starts one at the tail of the window.
    order.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      if (is_top(begin + i)) order.push_back(i);
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!is_top(begin + i)) order.push_back(i);
    }
    pool->for_each(count, [&](std::uint64_t j, unsigned worker) {
      const std::uint32_t slot = order[j];
      const VertexId w = begin + slot;
      LocalTree tree = pre.build_cluster(w, workspaces[worker]);
      TreeRoutingScheme trs = prepare_cluster(out, w, pre.center_level(w),
                                              tree, indexes[worker]);
      slots[slot].emplace(std::move(tree), std::move(trs));
    });

    // Scatter: each task owns a contiguous vertex range and walks the
    // window in ascending center order.
    pool->for_each(workers, [&](std::uint64_t r, unsigned) {
      const auto v_begin =
          static_cast<VertexId>(std::uint64_t{n} * r / workers);
      const auto v_end =
          static_cast<VertexId>(std::uint64_t{n} * (r + 1) / workers);
      for (std::uint32_t i = 0; i < count; ++i) {
        const BuiltCluster& c = *slots[i];
        scatter_cluster(out, begin + i, pre.center_level(begin + i), c.tree,
                        c.trs, v_begin, v_end);
      }
    });
    begin = end;
  }
}

}  // namespace tz_build
}  // namespace croute
