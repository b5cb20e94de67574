/// \file landmarks.hpp
/// \brief Landmark ("center") selection and level hierarchies (§3–§4).
///
/// Two samplers are provided:
///
///  - **Bernoulli** (the STOC'01 distance-oracle sampler): level A_{i+1}
///    keeps each vertex of A_i independently with probability n^{-1/k}.
///    Bunches then have *expected* size O(k·n^{1/k}), but individual
///    clusters — and hence individual routing tables — can exceed the
///    bound.
///
///  - **Centered** (the SPAA'01 routing sampler): each level is grown by
///    the iterated `center()` procedure — sample, measure every remaining
///    cluster, resample from the overweight ones — until **every** cluster
///    at the level has at most `cap = cap_factor · n^{(i+1)/k}` vertices.
///    This converts the expected bound into a worst-case per-table bound,
///    which is the paper's key refinement over Cowen's scheme and what the
///    `Õ(n^{1/k})` table guarantee rests on. Expected landmark count per
///    level is O(target · log n).
///
/// All cluster membership tests use the shared lexicographic order of
/// dijkstra.hpp, keyed by one fixed random rank permutation.
///
/// Sampling coins are **keyed, not streamed**: each candidate's
/// Bernoulli draw is a stateless mix of (one seed draw per level, round,
/// candidate id). Distributionally identical to streamed draws and just
/// as deterministic — but under topology churn a single flipped cluster
/// measurement no longer shifts every later coin, so a perturbed graph
/// resamples only the candidates whose measurements actually changed.
/// That stability is what gives delta-aware rebuilds
/// (core/incremental_rebuild.hpp) a near-identical hierarchy — and with
/// it reusable pivots and cluster trees — after a localized delta.
/// Centered resampling also re-measures only the clusters still over
/// the cap: growing A tightens guards lexicographically, so cluster
/// sizes shrink monotonically and a candidate once under the cap stays
/// under it.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace croute {

class ThreadPool;

/// Which level sampler to use.
enum class SamplingMode {
  kBernoulli,  ///< i.i.d. sampling; expected-size guarantees only
  kCentered,   ///< center() resampling; worst-case cluster caps
};

/// Knobs for hierarchy construction.
struct HierarchyOptions {
  SamplingMode mode = SamplingMode::kCentered;
  /// Cluster cap = cap_factor * n^{(i+1)/k} in centered mode (paper: 4).
  double cap_factor = 4.0;
  /// Safety bound on center() resampling rounds per level.
  std::uint32_t max_rounds = 64;
};

/// The nested landmark sets A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}.
struct LandmarkHierarchy {
  std::uint32_t k = 0;
  /// levels[i] = A_i, ascending vertex ids. levels[0] is all of V and
  /// levels[k-1] is non-empty.
  std::vector<std::vector<VertexId>> levels;
  /// level_of[v] = max i with v ∈ A_i.
  std::vector<std::uint32_t> level_of;

  std::uint64_t level_size(std::uint32_t i) const {
    return levels.at(i).size();
  }
};

/// One level of center() sampling (§3): returns A ⊆ candidates such that
/// every w ∈ candidates \ A has |C(w)| ≤ cluster_cap, where
/// C(w) = {v : (d(w,v), rank(w)) <lex (d(A,v), rank(p_A(v)))}.
/// Expected |A| = O(target_size · log n). If target_size >= |candidates|
/// the whole candidate set is returned.
///
/// \p pool (optional, borrowed) shards each round's cluster
/// measurements: every candidate writes its own result slot and the
/// overweight set is collected in candidate order, so the result is the
/// same at every pool size.
std::vector<VertexId> center_sample_level(const Graph& g,
                                          const std::vector<VertexId>& candidates,
                                          double target_size,
                                          double cluster_cap,
                                          const std::vector<std::uint32_t>& rank,
                                          Rng& rng,
                                          std::uint32_t max_rounds = 64,
                                          ThreadPool* pool = nullptr);

/// Builds the k-level hierarchy over a connected graph.
/// Level sizes target n^{1-i/k}; A_{k-1} is guaranteed non-empty.
/// \p pool as in center_sample_level.
LandmarkHierarchy build_hierarchy(const Graph& g, std::uint32_t k,
                                  const std::vector<std::uint32_t>& rank,
                                  Rng& rng,
                                  const HierarchyOptions& options = {},
                                  ThreadPool* pool = nullptr);

/// Measures |C(w)| for every w ∈ candidates against landmark set A
/// (exact, no cap). Used by tests and the T7 bench.
std::vector<std::uint32_t> exact_cluster_sizes(
    const Graph& g, const std::vector<VertexId>& candidates,
    const std::vector<VertexId>& landmark_set,
    const std::vector<std::uint32_t>& rank);

}  // namespace croute
