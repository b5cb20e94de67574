#include "core/tz_scheme.hpp"

#include <chrono>

#include "core/tz_build.hpp"
#include "util/parallel.hpp"

namespace croute {

CROUTE_DETERMINISTIC TZScheme::TZScheme(const Graph& g,
                                        const TZSchemeOptions& options,
                                        Rng& rng, ThreadPool* pool,
                                        TZBuildPhases* phases)
    : g_(&g),
      options_(options),
      tree_codec_(g.num_vertices(), g.max_degree()),
      codec_(g.num_vertices(), g.max_degree(),
             options.labels_carry_distances) {
  using clock = std::chrono::steady_clock;
  const VertexId n = g.num_vertices();
  const std::uint32_t id_bits = bits_for_universe(n);

  const auto t_pre = clock::now();
  pre_ = TZPreprocessing(g, options.pre, rng, pool);
  const auto t_sweep = clock::now();

  // ---- label skeletons: per destination, the distinct effective pivots;
  // needed[w] lists the tree labels the cluster sweep must extract.
  // Shared with the delta-aware rebuilder (core/tz_build.hpp), which
  // must reproduce this construction byte-for-byte.
  const tz_build::NeededLabels needed =
      tz_build::label_skeletons(pre_, labels_);

  // ---- cluster sweep: build T_w, scatter records, extract labels, and
  //      record w's cluster directory (rule-0 routing state).
  std::vector<tz_build::PendingTable> pending(n);
  dirs_.resize(n);
  tz_build::sweep_clusters(
      pre_, {tree_codec_, id_bits, pending, dirs_, labels_, needed}, pool);
  const auto t_finalize = clock::now();

  // ---- finalize tables (independent per vertex); the FKS draws then
  // consume the stream in vertex order.
  tables_.resize(n);
  for_each_index(
      pool, n,
      [&](std::uint64_t v, unsigned) {
        tables_[v] = VertexTable(std::move(pending[v].entries),
                                 std::move(pending[v].light_pool),
                                 tree_codec_, id_bits);
      },
      256);
  if (options.hash_index) {
    for (VertexTable& table : tables_) table.build_hash_index(rng);
  }
  if (phases != nullptr) {
    phases->sampling_pivots_s =
        std::chrono::duration<double>(t_sweep - t_pre).count();
    phases->cluster_sweep_s =
        std::chrono::duration<double>(t_finalize - t_sweep).count();
  }
}

std::uint64_t TZScheme::total_table_bits() const {
  std::uint64_t total = 0;
  for (VertexId v = 0; v < g_->num_vertices(); ++v) total += table_bits(v);
  return total;
}

std::uint64_t TZScheme::max_table_bits() const {
  std::uint64_t best = 0;
  for (VertexId v = 0; v < g_->num_vertices(); ++v) {
    best = std::max(best, table_bits(v));
  }
  return best;
}

std::vector<std::uint32_t> TZScheme::bunch_sizes() const {
  std::vector<std::uint32_t> sizes(g_->num_vertices());
  for (VertexId v = 0; v < g_->num_vertices(); ++v) {
    sizes[v] = tables_[v].size();
  }
  return sizes;
}

}  // namespace croute
