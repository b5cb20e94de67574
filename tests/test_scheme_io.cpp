// Tests for core/scheme_io: loaded schemes must be behaviorally identical
// to the originals (headers, hops, space accounting), and the loader must
// reject wrong graphs, corrupt streams, and version mismatches.

#include "core/scheme_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/flat_scheme.hpp"
#include "core/tz_router.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

TZScheme make_scheme(const Graph& g, std::uint32_t k, std::uint64_t seed,
                     bool hash_index = false, bool carry = false) {
  Rng rng(seed);
  TZSchemeOptions opt;
  opt.pre.k = k;
  opt.hash_index = hash_index;
  opt.labels_carry_distances = carry;
  return TZScheme(g, opt, rng);
}

TEST(SchemeIo, RoundTripPreservesEveryHeaderAndTable) {
  Rng graph_rng(1);
  const Graph g =
      largest_component(erdos_renyi_gnm(150, 600, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 3, 7);

  std::stringstream ss;
  save_scheme(ss, original);
  const TZScheme loaded = load_scheme(ss.str(), g);

  ASSERT_EQ(loaded.k(), original.k());
  const TZRouter r1(original), r2(loaded);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(loaded.table(v).size(), original.table(v).size());
    ASSERT_EQ(loaded.table_bits(v), original.table_bits(v));
    ASSERT_EQ(loaded.label_bits(v), original.label_bits(v));
  }
  for (VertexId s = 0; s < g.num_vertices(); s += 7) {
    for (VertexId t = 0; t < g.num_vertices(); t += 5) {
      const TZHeader h1 = r1.prepare(s, original.label(t));
      const TZHeader h2 = r2.prepare(s, loaded.label(t));
      ASSERT_EQ(h1.tree_root, h2.tree_root);
      ASSERT_EQ(h1.tree_label, h2.tree_label);
      const TZHeader hs1 = r1.prepare_handshake(s, t);
      const TZHeader hs2 = r2.prepare_handshake(s, t);
      ASSERT_EQ(hs1.tree_root, hs2.tree_root);
      ASSERT_EQ(hs1.tree_label, hs2.tree_label);
    }
  }
}

TEST(SchemeIo, LoadedSchemeRoutesIdentically) {
  Rng rng(2);
  const Graph g = make_workload(GraphFamily::kBarabasiAlbert, 400, rng);
  const TZScheme original = make_scheme(g, 2, 9);
  std::stringstream ss;
  save_scheme(ss, original);
  const TZScheme loaded = load_scheme(ss.str(), g);
  const Simulator sim(g);
  const auto pairs = sample_pairs(g, 400, rng);
  for (const auto& p : pairs) {
    const RouteResult a = route_tz(sim, original, p.s, p.t);
    const RouteResult b = route_tz(sim, loaded, p.s, p.t);
    ASSERT_TRUE(b.delivered());
    ASSERT_EQ(a.path, b.path);
    ASSERT_EQ(a.header_bits, b.header_bits);
  }
}

TEST(SchemeIo, HashIndexRebuiltOnLoad) {
  Rng graph_rng(3);
  const Graph g =
      largest_component(erdos_renyi_gnm(80, 320, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 3, 11, /*hash_index=*/true);
  std::stringstream ss;
  save_scheme(ss, original);
  const TZScheme loaded = load_scheme(ss.str(), g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(loaded.table(v).has_hash_index());
    for (const TableEntry& e : original.table(v).entries()) {
      ASSERT_NE(loaded.lookup(v, e.w), nullptr);
    }
  }
}

TEST(SchemeIo, CarriedDistancesSurvive) {
  Rng graph_rng(4);
  const Graph g =
      largest_component(erdos_renyi_gnm(60, 240, graph_rng)).graph;
  const TZScheme original =
      make_scheme(g, 3, 13, false, /*carry=*/true);
  std::stringstream ss;
  save_scheme(ss, original);
  const TZScheme loaded = load_scheme(ss.str(), g);
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    const auto& a = original.label(t).entries;
    const auto& b = loaded.label(t).entries;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].dist, b[i].dist);
    }
  }
  // kMinEstimate still works on the loaded scheme.
  const TZRouter router(loaded);
  EXPECT_NO_THROW(
      router.prepare(0, loaded.label(1), RoutingPolicy::kMinEstimate));
}

TEST(SchemeIo, WrongGraphRejected) {
  Rng graph_rng(5);
  const Graph g =
      largest_component(erdos_renyi_gnm(70, 280, graph_rng)).graph;
  const Graph other =
      largest_component(erdos_renyi_gnm(70, 280, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 2, 15);
  std::stringstream ss;
  save_scheme(ss, original);
  EXPECT_THROW(load_scheme(ss.str(), other), std::invalid_argument);
}

TEST(SchemeIo, ReweightedGraphRejected) {
  GraphBuilder b1(3), b2(3);
  b1.add_edge(0, 1, 1.0).add_edge(1, 2, 1.0);
  b2.add_edge(0, 1, 1.0).add_edge(1, 2, 2.0);
  const Graph g1 = b1.build(), g2 = b2.build();
  const TZScheme original = make_scheme(g1, 2, 17);
  std::stringstream ss;
  save_scheme(ss, original);
  EXPECT_THROW(load_scheme(ss.str(), g2), std::invalid_argument);
}

TEST(SchemeIo, TruncatedStreamRejected) {
  Rng graph_rng(6);
  const Graph g =
      largest_component(erdos_renyi_gnm(50, 200, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 2, 19);
  std::stringstream ss;
  save_scheme(ss, original);
  const std::string full = ss.str();
  for (const double frac : {0.1, 0.5, 0.9, 0.999}) {
    const std::string cut = full.substr(
        0, static_cast<std::size_t>(static_cast<double>(full.size()) * frac));
    EXPECT_THROW(load_scheme(cut, g), std::invalid_argument)
        << "fraction " << frac;
  }
}

// Artifact recovery compiles the flat view straight from a loaded stream,
// so a corrupt stream must never reach the compile with an out-of-range
// count, slice, vertex id or level. Setting each byte to 0xFF in turn must
// either throw std::invalid_argument or load a scheme that compiles.
TEST(SchemeIo, EveryByteSetTo0xFFRejectsOrCompiles) {
  Rng graph_rng(6);
  const Graph g =
      largest_component(erdos_renyi_gnm(40, 160, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 2, 19);
  std::stringstream ss;
  save_scheme(ss, original);
  const std::string bytes = ss.str();
  std::size_t rejected = 0, compiled = 0;
  std::string mut = bytes;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    mut[at] = '\xff';
    try {
      const TZScheme loaded = load_scheme(mut, g);
      const FlatScheme flat(loaded);
      ++compiled;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << at << ": " << e.what();
    }
    mut[at] = bytes[at];
  }
  EXPECT_EQ(rejected + compiled, bytes.size());
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(compiled, 0u);
}

TEST(SchemeIo, GarbageRejected) {
  const Graph g = path_graph(4);
  EXPECT_THROW(load_scheme("this is not a scheme", g), std::invalid_argument);
}

TEST(SchemeIo, FileRoundTrip) {
  Rng graph_rng(7);
  const Graph g =
      largest_component(erdos_renyi_gnm(40, 160, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 2, 21);
  const std::string path = "/tmp/croute_scheme_io_test.bin";
  save_scheme_file(path, original);
  const TZScheme loaded = load_scheme_file(path, g);
  EXPECT_EQ(loaded.total_table_bits(), original.total_table_bits());
  std::remove(path.c_str());
}

TEST(SchemeIo, FingerprintIsOrderIndependentButStructureSensitive) {
  GraphBuilder b1(3), b2(3);
  b1.add_edge(0, 1).add_edge(1, 2);
  b2.add_edge(1, 2).add_edge(0, 1);  // same edges, different insertion order
  EXPECT_EQ(graph_fingerprint(b1.build()), graph_fingerprint(b2.build()));
  GraphBuilder b3(3);
  b3.add_edge(0, 1).add_edge(0, 2);  // different structure
  EXPECT_NE(graph_fingerprint(b1.build()), graph_fingerprint(b3.build()));
}

}  // namespace
}  // namespace croute
