#include "core/landmarks.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/parallel.hpp"

namespace croute {

namespace {

/// Sorts and dedupes a landmark set.
void normalize(std::vector<VertexId>& a) {
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
}

/// Keyed Bernoulli draw: keep \p w with probability \p p, where the coin
/// is a stateless mix of (base seed, round, candidate) instead of a draw
/// from a shared stream. Sampling stays deterministic in (graph, rng
/// state, options) and each candidate's coins stay i.i.d. across rounds
/// — but, crucially, one candidate's coin no longer depends on how many
/// draws happened before it. Under topology churn a perturbed graph can
/// flip a single cluster measurement; with streamed draws that shifted
/// every later coin and resampled the whole hierarchy, which destroyed
/// the SPT reuse incremental rebuilds (core/incremental_rebuild.hpp)
/// depend on. Keyed coins keep the resample *local* to the candidates
/// whose measurements actually changed.
bool keyed_bernoulli(std::uint64_t base, std::uint64_t round, VertexId w,
                     double p) noexcept {
  const std::uint64_t u =
      mix64(base ^ (round * 0x9e3779b97f4a7c15ULL) ^ (std::uint64_t{w} << 20));
  // Match Rng::next_double's 53-bit mantissa construction.
  const double x = static_cast<double>(u >> 11) * 0x1.0p-53;
  return x < p;
}

}  // namespace

std::vector<VertexId> center_sample_level(
    const Graph& g, const std::vector<VertexId>& candidates,
    double target_size, double cluster_cap,
    const std::vector<std::uint32_t>& rank, Rng& rng,
    std::uint32_t max_rounds, ThreadPool* pool) {
  CROUTE_REQUIRE(!candidates.empty(), "candidate set must be non-empty");
  CROUTE_REQUIRE(cluster_cap >= 1, "cluster cap must be at least 1");
  // One stream draw seeds every keyed coin of this level (see
  // keyed_bernoulli for why coins are keyed, not streamed). Drawn before
  // the trivial-level early return so the stream advances identically no
  // matter how the candidate count compares to the target — the level
  // draw count must not depend on the graph.
  const std::uint64_t coin_base = rng();
  if (target_size >= static_cast<double>(candidates.size())) {
    return candidates;
  }

  const std::uint32_t cap =
      static_cast<std::uint32_t>(std::min<double>(cluster_cap, 4e9));
  std::vector<std::uint8_t> in_a(g.num_vertices(), 0);
  std::vector<VertexId> a;
  std::vector<VertexId> overweight = candidates;  // W in the paper
  std::vector<RestrictedDijkstra> workspaces;  // one per pool worker
  workspaces.reserve(pool_workers(pool));
  for (unsigned i = 0; i < pool_workers(pool); ++i) workspaces.emplace_back(g);
  std::vector<std::uint8_t> over;  // per-candidate measurement slot

  for (std::uint32_t round = 0; round < max_rounds; ++round) {
    // sample(W, s): keep each element with probability s/|W|.
    const double p =
        std::min(1.0, target_size / static_cast<double>(overweight.size()));
    for (const VertexId w : overweight) {
      if (!in_a[w] && keyed_bernoulli(coin_base, round, w, p)) {
        in_a[w] = 1;
        a.push_back(w);
      }
    }
    if (a.empty()) continue;  // unlucky round: resample

    // Guards d(A, ·) for the current A, then re-measure the clusters
    // that were still over the cap last round, aborting a run as soon as
    // it exceeds the cap. Only they need re-measuring: growing A only
    // tightens guards lexicographically, so clusters shrink monotonically
    // and a candidate once under the cap stays under it — rounds after
    // the first measure a small and shrinking set.
    // The measurements are independent, so they shard over the pool;
    // each writes its own slot and still_over is collected in candidate
    // order, which keeps the result pool-size-invariant.
    const MultiSourceResult guards = multi_source_dijkstra(g, a, rank);
    const std::function<LexDist(VertexId)> guard_fn = [&](VertexId v) {
      return guards.guard(v, rank);
    };
    over.assign(overweight.size(), 0);
    for_each_index(
        pool, overweight.size(),
        [&](std::uint64_t i, unsigned worker) {
          const VertexId w = overweight[i];
          if (in_a[w]) return;
          over[i] = workspaces[worker].run(w, rank[w], guard_fn, cap + 1)
                        .size() > cap;
        },
        16);
    std::vector<VertexId> still_over;
    for (std::size_t i = 0; i < overweight.size(); ++i) {
      if (over[i]) still_over.push_back(overweight[i]);
    }
    if (still_over.empty()) {
      normalize(a);
      return a;
    }
    overweight = std::move(still_over);
  }

  // Deterministic fallback: promote every remaining overweight vertex.
  // (Its own cluster is then no longer counted, so all caps hold.)
  for (const VertexId w : overweight) {
    if (!in_a[w]) {
      in_a[w] = 1;
      a.push_back(w);
    }
  }
  normalize(a);
  return a;
}

CROUTE_DETERMINISTIC LandmarkHierarchy build_hierarchy(const Graph& g,
                                                       std::uint32_t k,
                                  const std::vector<std::uint32_t>& rank,
                                  Rng& rng, const HierarchyOptions& options,
                                  ThreadPool* pool) {
  const VertexId n = g.num_vertices();
  CROUTE_REQUIRE(k >= 1, "hierarchy needs at least one level");
  CROUTE_REQUIRE(n >= 1, "graph must be non-empty");
  CROUTE_REQUIRE(rank.size() == n, "rank permutation size mismatch");

  LandmarkHierarchy h;
  h.k = k;
  h.levels.resize(k);
  h.levels[0].resize(n);
  for (VertexId v = 0; v < n; ++v) h.levels[0][v] = v;

  const double nd = static_cast<double>(n);
  for (std::uint32_t i = 1; i < k; ++i) {
    const std::vector<VertexId>& prev = h.levels[i - 1];
    if (prev.empty()) break;  // degenerate; fixed up below
    const double target =
        std::pow(nd, 1.0 - static_cast<double>(i) / static_cast<double>(k));
    if (options.mode == SamplingMode::kCentered) {
      const double cap =
          options.cap_factor *
          std::pow(nd, static_cast<double>(i) / static_cast<double>(k));
      h.levels[i] = center_sample_level(g, prev, target, cap, rank, rng,
                                        options.max_rounds, pool);
    } else {
      const double p = std::pow(nd, -1.0 / static_cast<double>(k));
      const std::uint64_t coin_base = rng();
      for (const VertexId w : prev) {
        if (keyed_bernoulli(coin_base, 0, w, p)) h.levels[i].push_back(w);
      }
    }
  }

  // Guarantee non-empty levels: an empty A_i (possible for tiny n or
  // unlucky Bernoulli draws) would make level-(i-1) clusters span V.
  // Promote the rank-smallest vertex of the previous level.
  for (std::uint32_t i = 1; i < k; ++i) {
    if (!h.levels[i].empty()) continue;
    const std::vector<VertexId>& prev = h.levels[i - 1];
    VertexId best = prev.front();
    for (const VertexId w : prev) {
      if (rank[w] < rank[best]) best = w;
    }
    h.levels[i].push_back(best);
  }

  h.level_of.assign(n, 0);
  for (std::uint32_t i = 1; i < k; ++i) {
    for (const VertexId w : h.levels[i]) h.level_of[w] = i;
  }
  // Nestedness sanity: every A_i member must be in A_{i-1}. Bernoulli and
  // centered sampling both draw from the previous level, so this is
  // structural; verify cheaply in debug builds.
#ifndef NDEBUG
  for (std::uint32_t i = 1; i < k; ++i) {
    std::unordered_set<VertexId> prev(h.levels[i - 1].begin(),
                                      h.levels[i - 1].end());
    for (const VertexId w : h.levels[i]) {
      CROUTE_ASSERT(prev.contains(w), "hierarchy levels must be nested");
    }
  }
#endif
  return h;
}

std::vector<std::uint32_t> exact_cluster_sizes(
    const Graph& g, const std::vector<VertexId>& candidates,
    const std::vector<VertexId>& landmark_set,
    const std::vector<std::uint32_t>& rank) {
  std::unordered_set<VertexId> in_a(landmark_set.begin(), landmark_set.end());
  const MultiSourceResult guards =
      multi_source_dijkstra(g, landmark_set, rank);
  auto guard_fn = [&](VertexId v) { return guards.guard(v, rank); };
  RestrictedDijkstra rd(g);
  std::vector<std::uint32_t> sizes;
  sizes.reserve(candidates.size());
  for (const VertexId w : candidates) {
    if (in_a.contains(w)) {
      sizes.push_back(0);
      continue;
    }
    sizes.push_back(
        static_cast<std::uint32_t>(rd.run(w, rank[w], guard_fn).size()));
  }
  return sizes;
}

}  // namespace croute
