// Unit tests for core/tz_scheme, tz_tables and tz_labels: table/bunch
// consistency, label structure, bit accounting, codec round-trips and the
// optional FKS index.

#include "core/tz_scheme.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "core/scheme_io.hpp"
#include "core/tz_build.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

TZScheme make_scheme(const Graph& g, std::uint32_t k, std::uint64_t seed,
                     bool hash_index = false, bool carry_dist = false) {
  Rng rng(seed);
  TZSchemeOptions opt;
  opt.pre.k = k;
  opt.hash_index = hash_index;
  opt.labels_carry_distances = carry_dist;
  return TZScheme(g, opt, rng);
}

TEST(TZTables, EntriesMatchClusterMembership) {
  Rng graph_rng(1);
  const Graph g = erdos_renyi_gnm(100, 400, graph_rng);
  const TZScheme scheme = make_scheme(g, 3, 5);

  // Recompute membership from the preprocessing stream.
  std::map<VertexId, std::set<VertexId>> members;
  scheme.preprocessing().for_each_cluster(
      [&](VertexId w, const LocalTree& tree) {
        for (const VertexId v : tree.global) members[w].insert(v);
      });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      const bool in_table = scheme.lookup(v, w) != nullptr;
      const bool in_cluster = members[w].contains(v);
      ASSERT_EQ(in_table, in_cluster) << "v=" << v << " w=" << w;
    }
  }
}

TEST(TZTables, EntryMetadataIsConsistent) {
  Rng graph_rng(2);
  const Graph g = erdos_renyi_gnm(80, 320, graph_rng,
                                  WeightModel::uniform_real(1.0, 3.0));
  const TZScheme scheme = make_scheme(g, 3, 7);
  const TZPreprocessing& pre = scheme.preprocessing();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const TableEntry& e : scheme.table(v).entries()) {
      ASSERT_EQ(e.level, pre.center_level(e.w));
      // Distance metadata equals the true graph distance d(v, w).
      const auto dw = distances_from(g, e.w);
      ASSERT_NEAR(e.dist, dw[v], 1e-9);
    }
  }
}

TEST(TZTables, SortedAndFindable) {
  Rng graph_rng(3);
  const Graph g = erdos_renyi_gnm(60, 240, graph_rng);
  const TZScheme scheme = make_scheme(g, 2, 9);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto entries = scheme.table(v).entries();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      ASSERT_LT(entries[i - 1].w, entries[i].w);
    }
    for (const TableEntry& e : entries) {
      const TableEntry* found = scheme.table(v).find(e.w);
      ASSERT_NE(found, nullptr);
      ASSERT_EQ(found->w, e.w);
    }
    ASSERT_EQ(scheme.table(v).find(kNoVertex - 1), nullptr);
  }
}

TEST(TZTables, OwnLabelSliceRoundTrips) {
  Rng graph_rng(4);
  const Graph g = erdos_renyi_gnm(70, 280, graph_rng);
  const TZScheme scheme = make_scheme(g, 3, 11);
  // own_label(e) of entry (v, w) must equal the tree label of v in T_w.
  scheme.preprocessing().for_each_cluster(
      [&](VertexId w, const LocalTree& tree) {
        const TreeRoutingScheme trs(tree);
        for (std::uint32_t i = 0; i < tree.size(); ++i) {
          const VertexId v = tree.global[i];
          const TableEntry* e = scheme.lookup(v, w);
          ASSERT_NE(e, nullptr);
          const TreeLabel own = scheme.table(v).own_label(*e);
          ASSERT_EQ(own, trs.label(i)) << "v=" << v << " w=" << w;
        }
      });
}

TEST(TZTables, HashIndexAgreesWithBinarySearch) {
  Rng graph_rng(5);
  const Graph g = erdos_renyi_gnm(80, 320, graph_rng);
  const TZScheme plain = make_scheme(g, 3, 13, /*hash_index=*/false);
  const TZScheme hashed = make_scheme(g, 3, 13, /*hash_index=*/true);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(hashed.table(v).has_hash_index());
    ASSERT_GT(hashed.table(v).hash_bits(), 0u);
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      const bool a = plain.lookup(v, w) != nullptr;
      const bool b = hashed.lookup(v, w) != nullptr;
      ASSERT_EQ(a, b) << "v=" << v << " w=" << w;
    }
  }
}

TEST(TZLabels, StructureAscendingLevelsStartingAtZero) {
  Rng graph_rng(16);
  const Graph g =
      largest_component(erdos_renyi_gnm(90, 360, graph_rng)).graph;
  const TZScheme scheme = make_scheme(g, 4, 15);
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    const RoutingLabel& l = scheme.label(t);
    ASSERT_EQ(l.t, t);
    ASSERT_FALSE(l.entries.empty());
    ASSERT_EQ(l.entries.front().level, 0u);
    ASSERT_LE(l.entries.size(), 4u);
    std::set<VertexId> pivots;
    for (std::size_t i = 0; i < l.entries.size(); ++i) {
      if (i > 0) {
        ASSERT_GT(l.entries[i].level, l.entries[i - 1].level);
      }
      // Pivot dedupe: consecutive entries never repeat a pivot.
      ASSERT_FALSE(pivots.contains(l.entries[i].w));
      pivots.insert(l.entries[i].w);
    }
  }
}

TEST(TZLabels, FirstEntryIsSelfishWhenOwnClusterExists) {
  // Level-0 pivot of t is t itself; its effective pivot covers level 0, so
  // routing to t from a neighbor in C(t) is direct. The first label entry
  // must therefore be a tree that contains t — true for all entries, but
  // entry 0 specifically has level 0.
  Rng graph_rng(7);
  const Graph g = erdos_renyi_gnm(60, 240, graph_rng);
  const TZScheme scheme = make_scheme(g, 3, 17);
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    const LabelEntry& e0 = scheme.label(t).entries.front();
    // The destination always has a table entry for its first pivot tree.
    ASSERT_NE(scheme.lookup(t, e0.w), nullptr);
  }
}

TEST(TZLabels, EntryForLevelCoversRuns) {
  Rng graph_rng(8);
  const Graph g = erdos_renyi_gnm(70, 280, graph_rng);
  const TZScheme scheme = make_scheme(g, 4, 19);
  const TZPreprocessing& pre = scheme.preprocessing();
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    for (std::uint32_t i = 0; i < scheme.k(); ++i) {
      const LabelEntry& e = scheme.label(t).entry_for_level(i);
      ASSERT_EQ(e.w, pre.effective_pivot(i, t)) << "t=" << t << " i=" << i;
    }
  }
}

TEST(TZLabels, CodecRoundTrip) {
  Rng graph_rng(9);
  const Graph g = erdos_renyi_gnm(100, 400, graph_rng);
  for (const bool carry : {false, true}) {
    const TZScheme scheme = make_scheme(g, 3, 21, false, carry);
    const LabelCodec& codec = scheme.label_codec();
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      const RoutingLabel& l = scheme.label(t);
      BitWriter w;
      codec.encode(l, w);
      EXPECT_EQ(w.bit_size(), codec.label_bits(l));
      BitReader r(w);
      const RoutingLabel back = codec.decode(r);
      ASSERT_EQ(back.t, l.t);
      ASSERT_EQ(back.entries.size(), l.entries.size());
      for (std::size_t i = 0; i < l.entries.size(); ++i) {
        ASSERT_EQ(back.entries[i].level, l.entries[i].level);
        ASSERT_EQ(back.entries[i].w, l.entries[i].w);
        ASSERT_EQ(back.entries[i].tree, l.entries[i].tree);
        if (carry) {
          ASSERT_EQ(back.entries[i].dist, l.entries[i].dist);
        }
      }
    }
  }
}

TEST(TZLabels, SizeIsOkLogN) {
  // Label bits ≤ k · (id + tree label) plus small framing: check against a
  // generous closed-form bound c·k·log²n (fixed-port tree labels dominate).
  Rng graph_rng(10);
  const Graph g = erdos_renyi_gnm(256, 1024, graph_rng);
  for (const std::uint32_t k : {2u, 3u, 5u}) {
    const TZScheme scheme = make_scheme(g, k, 23);
    const double logn = std::log2(256.0);
    for (VertexId t = 0; t < g.num_vertices(); t += 17) {
      EXPECT_LE(static_cast<double>(scheme.label_bits(t)),
                4.0 * k * logn * logn + 64);
    }
  }
}

TEST(TZScheme, BitAccountingAggregates) {
  Rng graph_rng(11);
  const Graph g = erdos_renyi_gnm(50, 200, graph_rng);
  const TZScheme scheme = make_scheme(g, 2, 25);
  std::uint64_t total = 0, max_bits = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    total += scheme.table_bits(v);
    max_bits = std::max(max_bits, scheme.table_bits(v));
    ASSERT_GT(scheme.table_bits(v), 0u);
  }
  EXPECT_EQ(scheme.total_table_bits(), total);
  EXPECT_EQ(scheme.max_table_bits(), max_bits);
}

TEST(TZScheme, BunchSizesMatchTables) {
  Rng graph_rng(12);
  const Graph g = erdos_renyi_gnm(60, 240, graph_rng);
  const TZScheme scheme = make_scheme(g, 3, 27);
  const auto sizes = scheme.bunch_sizes();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(sizes[v], scheme.table(v).size());
    ASSERT_GE(sizes[v], 1u);  // at least its own cluster
  }
}

TEST(TZScheme, CenteredTablesAreCappedOnSkewedGraphs) {
  // The paper's table guarantee: with centered sampling, every bunch has
  // O(k · n^{1/k} · log n) entries. Checked with explicit constants on a
  // heavy-tailed graph.
  Rng graph_rng(13);
  const Graph g = barabasi_albert(800, 3, graph_rng);
  const std::uint32_t k = 2;
  const TZScheme scheme = make_scheme(g, k, 29);
  const double n = 800;
  const double bound =
      4.0 * std::sqrt(n)                    // cluster cap per level-0 center
      + 2.5 * std::sqrt(n) * std::log2(n);  // |A_1| (E = O(sqrt·log))
  for (const auto size : scheme.bunch_sizes()) {
    ASSERT_LE(size, static_cast<std::uint32_t>(bound));
  }
}

TEST(TZScheme, DeterministicGivenSeed) {
  Rng graph_rng(14);
  const Graph g = erdos_renyi_gnm(80, 320, graph_rng);
  const TZScheme a = make_scheme(g, 3, 31);
  const TZScheme b = make_scheme(g, 3, 31);
  EXPECT_EQ(a.total_table_bits(), b.total_table_bits());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(a.table(v).size(), b.table(v).size());
    ASSERT_EQ(a.label_bits(v), b.label_bits(v));
  }
}

TEST(TZScheme, WorksOnTinyGraphs) {
  for (const VertexId n : {1u, 2u, 3u}) {
    const Graph g = n == 1 ? GraphBuilder(1).build() : path_graph(n);
    const TZScheme scheme = make_scheme(g, 3, 33);
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_FALSE(scheme.label(t).entries.empty());
    }
  }
}

TEST(TZScheme, BunchMassEqualsClusterMass) {
  // Σ|B(v)| == Σ|C(w)|: bunches and clusters are inverse relations, so
  // their total masses must agree exactly.
  Rng graph_rng(15);
  const Graph g = erdos_renyi_gnm(120, 480, graph_rng);
  const TZScheme scheme = make_scheme(g, 3, 35);
  std::uint64_t bunch_mass = 0;
  for (const auto size : scheme.bunch_sizes()) bunch_mass += size;
  std::uint64_t cluster_mass = 0;
  for (const auto size : scheme.preprocessing().cluster_sizes()) {
    cluster_mass += size;
  }
  EXPECT_EQ(bunch_mass, cluster_mass);
}

// The set-up pool shards landmark sampling, the cluster sweep and table
// finalization; the saved bytes must not depend on it. Graphs larger
// than one sweep window put whole-graph (top-level) centers in several
// windows, and k = 2 has enough of them that windows also close on the
// one-top-tree-per-worker cap.
TEST(TZScheme, ParallelBuildMatchesSerial) {
  Rng graph_rng(16);
  const VertexId n = tz_build::kSweepWindow + 600;
  const Graph g = erdos_renyi_gnm(n, 4 * n, graph_rng);
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    for (const SamplingMode mode :
         {SamplingMode::kCentered, SamplingMode::kBernoulli}) {
      TZSchemeOptions opt;
      opt.pre.k = k;
      opt.pre.hierarchy.mode = mode;
      const auto save = [&](ThreadPool* pool) {
        Rng rng(42);
        const TZScheme scheme(g, opt, rng, pool);
        std::ostringstream os;
        save_scheme(os, scheme);
        return std::make_pair(os.str(), scheme.preprocessing().hierarchy());
      };
      const auto [serial, h] = save(nullptr);
      std::uint32_t first_window_tops = 0, later_tops = 0;
      for (const VertexId w : h.levels[k - 1]) {
        (w < tz_build::kSweepWindow ? first_window_tops : later_tops) += 1;
      }
      ASSERT_GT(first_window_tops, 0u) << "k=" << k;
      ASSERT_GT(later_tops, 0u) << "k=" << k;
      if (k == 2) {
        ASSERT_GT(first_window_tops, 4u);
      }
      for (const unsigned threads : {1u, 2u, 3u, 4u}) {
        ThreadPool pool(threads);
        ASSERT_TRUE(save(&pool).first == serial)
            << "k=" << k << " mode=" << static_cast<int>(mode)
            << " threads=" << threads;
      }
    }
  }
}

// The sampler's measurements shard over the pool; the landmark set must
// be the same at every pool size.
TEST(TZScheme, ParallelSamplingMatchesSerial) {
  Rng graph_rng(17);
  const Graph g = barabasi_albert(1500, 3, graph_rng);
  Rng rank_rng(3);
  const std::vector<std::uint32_t> rank = rank_rng.permutation(1500);
  std::vector<VertexId> all(1500);
  for (VertexId v = 0; v < 1500; ++v) all[v] = v;
  Rng serial_rng(9);
  const auto serial =
      center_sample_level(g, all, 40.0, 60.0, rank, serial_rng);
  ThreadPool pool(3);
  Rng parallel_rng(9);
  EXPECT_EQ(center_sample_level(g, all, 40.0, 60.0, rank, parallel_rng, 64,
                                &pool),
            serial);
  EXPECT_EQ(parallel_rng(), serial_rng());  // same stream consumption
}

}  // namespace
}  // namespace croute
