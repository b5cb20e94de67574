// Randomized equivalence suite for core/flat_scheme.hpp: the flat
// compiled view must agree with the legacy VertexTable / ClusterDirectory
// / RoutingLabel structures answer-for-answer — same find results, same
// prepared headers (pivot, tree label, exact wire bits), same per-hop
// decisions — across k ∈ {2,3,4} under the paper's decision rule
// (TZRouter's kMinLevel, the one the flat path serves); and RouteService
// must serve byte-identical answers to the sim/ reference walk
// (Simulator + the scheme adapters) at every thread count and pipeline
// depth.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/flat_batch.hpp"
#include "core/flat_scheme.hpp"
#include "core/tz_router.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "sim_reference.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

struct FlatFixture {
  Graph g;
  std::unique_ptr<TZScheme> scheme;

  FlatFixture(std::uint32_t k, VertexId n, std::uint64_t seed,
              GraphFamily family = GraphFamily::kErdosRenyi) {
    Rng grng(seed);
    g = make_workload(family, n, grng);
    TZSchemeOptions opt;
    opt.pre.k = k;
    // Distance-carrying labels: the wire decoder must skip the field
    // the flat label views do not hold.
    opt.labels_carry_distances = true;
    Rng rng(seed + 1);
    scheme = std::make_unique<TZScheme>(g, opt, rng);
  }
};

void expect_same_header(const TZHeader& legacy, const FlatHeader& flat,
                        const TZRouter& router) {
  ASSERT_EQ(legacy.target, flat.target);
  ASSERT_EQ(legacy.tree_root, flat.tree_root);
  ASSERT_EQ(legacy.tree_label.dfs_in, flat.dfs_in);
  ASSERT_EQ(legacy.tree_label.light_ports.size(), flat.light_len);
  for (std::uint32_t j = 0; j < flat.light_len; ++j) {
    ASSERT_EQ(legacy.tree_label.light_ports[j], flat.light[j]);
  }
  // The precomputed bits table must agree with the BitWriter encoding.
  ASSERT_EQ(router.header_bits(legacy), flat.bits);
}

// Walk the route stepping BOTH routers at every vertex; they must agree
// hop for hop until delivery.
void expect_same_walk(const Graph& g, VertexId s, VertexId t,
                      const TZRouter& router, const TZHeader& lh,
                      const FlatRouter& frouter, const FlatHeader& fh) {
  VertexId here = s;
  for (std::uint32_t hops = 0;; ++hops) {
    ASSERT_LT(hops, 4 * g.num_vertices() + 16) << "routing loop";
    const TreeDecision dl = router.step(here, lh);
    const TreeDecision df = frouter.step(here, fh);
    ASSERT_EQ(dl.deliver, df.deliver) << "s=" << s << " t=" << t;
    if (dl.deliver) {
      ASSERT_EQ(here, t);
      return;
    }
    ASSERT_EQ(dl.port, df.port) << "s=" << s << " t=" << t << " at " << here;
    here = g.arc(here, dl.port).head;
  }
}

TEST(FlatScheme, FindMatchesLegacyLookup) {
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const FlatFixture fx(k, 150, 100 + k);
    const FlatScheme flat(*fx.scheme);
    Rng probe_rng(7);
    for (VertexId v = 0; v < fx.g.num_vertices(); ++v) {
      // Every present key must be found with identical payloads.
      for (const TableEntry& e : fx.scheme->table(v).entries()) {
        const std::uint32_t idx = flat.find(v, e.w);
        ASSERT_NE(idx, FlatScheme::kNotFound);
        EXPECT_EQ(flat.record(idx).dfs_in, e.record.dfs_in);
        EXPECT_EQ(flat.record(idx).parent_port, e.record.parent_port);
        const TreeLabel own = fx.scheme->table(v).own_label(e);
        EXPECT_EQ(flat.own_dfs(idx), own.dfs_in);
        const auto ports = flat.own_light_ports(idx);
        ASSERT_EQ(ports.size(), own.light_ports.size());
        for (std::size_t j = 0; j < ports.size(); ++j) {
          EXPECT_EQ(ports[j], own.light_ports[j]);
        }
      }
      // Random probes agree on membership (mostly misses).
      for (int r = 0; r < 16; ++r) {
        const auto w =
            static_cast<VertexId>(probe_rng.next_below(fx.g.num_vertices()));
        EXPECT_EQ(flat.find(v, w) != FlatScheme::kNotFound,
                  fx.scheme->lookup(v, w) != nullptr);
      }
      // Directory membership agrees as well.
      const ClusterDirectory& dir = fx.scheme->directory(v);
      for (const VertexId t : dir.members()) {
        const std::uint32_t di = flat.dir_find(v, t);
        ASSERT_NE(di, FlatScheme::kNotFound);
        const std::uint32_t li = dir.find_index(t);
        ASSERT_NE(li, ClusterDirectory::kNoIndex);
        EXPECT_EQ(flat.dir_dfs(di), dir.dfs_at(li));
      }
      for (int r = 0; r < 16; ++r) {
        const auto t =
            static_cast<VertexId>(probe_rng.next_below(fx.g.num_vertices()));
        EXPECT_EQ(flat.dir_find(v, t) != FlatScheme::kNotFound,
                  dir.contains(t));
      }
    }
  }
}

TEST(FlatScheme, PrepareAndStepMatchLegacyEverywhere) {
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const FlatFixture fx(k, 120, 200 + k);
    const TZRouter router(*fx.scheme);
    const FlatScheme flat(*fx.scheme);
    const FlatRouter frouter(flat);
    for (const PairSample& p : all_pairs(fx.g)) {
      {
        const TZHeader lh = router.prepare(p.s, fx.scheme->label(p.t),
                                           RoutingPolicy::kMinLevel);
        const FlatHeader fh = frouter.prepare(p.s, p.t);
        expect_same_header(lh, fh, router);
        expect_same_walk(fx.g, p.s, p.t, router, lh, frouter, fh);
      }
      const TZHeader lh = router.prepare_handshake(p.s, p.t);
      const FlatHeader fh = frouter.prepare_handshake(p.s, p.t);
      expect_same_header(lh, fh, router);
      expect_same_walk(fx.g, p.s, p.t, router, lh, frouter, fh);
    }
  }
}

TEST(FlatScheme, PrepareResolvedMatchesPrepare) {
  const FlatFixture fx(3, 150, 321);
  const FlatScheme flat(*fx.scheme, {});
  const FlatRouter frouter(flat);
  for (const PairSample& p : all_pairs(fx.g)) {
    const FlatHeader a = frouter.prepare(p.s, p.t);
    const FlatHeader b = frouter.prepare_resolved(p.s, p.t, flat.label(p.t));
    EXPECT_EQ(a.tree_root, b.tree_root);
    EXPECT_EQ(a.dfs_in, b.dfs_in);
    EXPECT_EQ(a.light, b.light);
    EXPECT_EQ(a.light_len, b.light_len);
    EXPECT_EQ(a.bits, b.bits);
  }
}

// decode_wire_label on a distance-carrying codec: each encoded entry
// holds its level and a 64-bit d(w, t) that the flat label views do not
// keep, so the decoder must read past both. For every t it must consume
// exactly the encoded bits and return the pooled label's pivots, dfs
// indices and light ports.
TEST(FlatScheme, WireLabelDecodeSkipsCarriedDistances) {
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const FlatFixture fx(k, 150, 600 + k);
    const LabelCodec& codec = fx.scheme->label_codec();
    ASSERT_TRUE(codec.carries_distances());
    const FlatScheme flat(*fx.scheme);
    const VertexId n = fx.g.num_vertices();
    for (VertexId t = 0; t < n; ++t) {
      BitWriter w;
      codec.encode(fx.scheme->label(t), w);
      BitReader r(w);
      std::vector<FlatScheme::LabelEntryView> entries;
      std::vector<Port> ports;
      ASSERT_EQ(decode_wire_label(codec, n, r, entries, ports), t);
      ASSERT_EQ(r.position(), w.bit_size()) << "k=" << k << " t=" << t;
      const std::span<const FlatScheme::LabelEntryView> pooled =
          flat.label(t);
      ASSERT_EQ(entries.size(), pooled.size()) << "k=" << k << " t=" << t;
      for (std::size_t j = 0; j < entries.size(); ++j) {
        ASSERT_EQ(entries[j].w, pooled[j].w);
        ASSERT_EQ(entries[j].dfs_in, pooled[j].dfs_in);
        const std::span<const Port> got(ports.data() + entries[j].light_off,
                                        entries[j].light_len);
        const std::span<const Port> want = flat.label_light_ports(pooled[j]);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "k=" << k << " t=" << t << " entry " << j;
      }
    }
  }
}

// header_bits_for switches from the precomputed bits_by_len_ table to a
// closed form exactly at light_len == header_bits_table_len(). Both
// regimes — and in particular the boundary and everything past it (a
// caller-decoded label may carry more light ports than any pooled one) —
// must agree bit-for-bit with the BitWriter run TZRouter::header_bits
// performs.
TEST(FlatScheme, HeaderBitsExactAtAndBeyondTableEdge) {
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const FlatFixture fx(k, 150, 500 + k);
    const TZRouter router(*fx.scheme);
    const FlatScheme flat(*fx.scheme);
    const std::uint32_t edge = flat.header_bits_table_len();
    ASSERT_GE(edge, 1u);  // length 0 is always pooled
    for (std::uint32_t len = 0; len <= edge + 8; ++len) {
      TZHeader legacy;
      legacy.target = 0;
      legacy.tree_root = 0;
      legacy.tree_label.dfs_in = 0;
      legacy.tree_label.light_ports.assign(len, 0);
      EXPECT_EQ(flat.header_bits_for(len), router.header_bits(legacy))
          << "k=" << k << " light_len=" << len << " (table edge at " << edge << ")";
    }
  }
}

// The service must serve answer-for-answer what the sim/ reference walk
// serves — status, length, hops, header bits, stretch and the recorded
// path — for every scheme kind and every thread count.
TEST(FlatService, MatchesLegacyServiceAtEveryThreadCount) {
  Rng grng(55);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 300, grng);
  Rng prng(56);
  const std::vector<PairSample> pairs = sample_pairs(g, 400, prng);
  std::vector<RouteQuery> queries;
  for (const auto& p : pairs) queries.push_back({p.s, p.t, p.exact});

  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake, SchemeKind::kCowen,
        SchemeKind::kFullTable}) {
    RouteServiceOptions base;
    base.scheme = kind;
    base.k = 3;
    base.seed = 77;
    base.record_paths = true;
    const SimReference ref(g, base);
    std::vector<RouteResult> reference;
    for (const RouteQuery& q : queries) {
      reference.push_back(ref.route(q.s, q.t));
    }

    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      RouteServiceOptions opt = base;
      opt.threads = threads;
      RouteService service(g, opt);
      const std::vector<RouteAnswer> answers = service.route_collect(queries);
      ASSERT_EQ(answers.size(), reference.size());
      for (std::size_t i = 0; i < answers.size(); ++i) {
        const RouteAnswer& a = answers[i];
        const RouteResult& r = reference[i];
        const double stretch = r.status == RouteStatus::kDelivered
                                   ? r.length / queries[i].exact
                                   : 0;
        ASSERT_TRUE(a.status == r.status && a.length == r.length &&
                    a.hops == r.hops && a.header_bits == r.header_bits &&
                    a.stretch == stretch &&
                    std::vector<VertexId>(a.path.begin(), a.path.end()) ==
                        r.path)
            << scheme_name(kind) << " diverges at pair " << i << " with " << threads
            << " threads";
      }
    }
  }
}

// Hotspot traffic drives the destination-memo path hard (few distinct
// destinations per batch). Batched answers must equal unbatched
// route_one answers query for query.
TEST(FlatService, DestinationMemoMatchesRouteOne) {
  Rng grng(91);
  const Graph g = make_workload(GraphFamily::kBarabasiAlbert, 300, grng);
  TrafficOptions topt;
  topt.hotspots = 4;
  topt.source_pool = 16;
  Rng trng(92);
  const std::vector<RouteQuery> traffic =
      make_traffic(g, WorkloadKind::kHotspot, 600, trng, topt);

  RouteServiceOptions opt;
  opt.scheme = SchemeKind::kTZDirect;
  opt.threads = 4;
  opt.k = 3;
  opt.seed = 93;
  opt.record_paths = true;
  RouteService service(g, opt);
  const std::vector<RouteAnswer> answers = service.route_collect(traffic);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const RouteAnswer ref = service.route_one(traffic[i]);
    ASSERT_TRUE(same_route(answers[i], ref)) << "query " << i;
    ASSERT_TRUE(answers[i].delivered());
  }
}

// The batch-pipelined engine must serve byte-identical answers to the
// sim/ reference walk for every scheme kind and every pipeline depth —
// including a group of 1, ragged final generations (query count not
// divisible by the group), and self-queries.
TEST(FlatBatch, BatchedMatchesSimAcrossKindsAndGroups) {
  Rng grng(71);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 260, grng);
  Rng prng(72);
  const std::vector<PairSample> pairs = sample_pairs(g, 395, prng);
  std::vector<RouteQuery> queries;
  for (const auto& p : pairs) queries.push_back({p.s, p.t, p.exact});
  // Self-queries complete at lane issue; sprinkle them through the
  // stream so generations mix immediate and walking lanes.
  for (VertexId v = 0; v < 6; ++v) {
    queries.insert(queries.begin() + 37 * (v + 1), RouteQuery{v, v, 0.0});
  }

  for (const std::uint32_t k : {2u, 3u, 4u}) {
    for (const SchemeKind kind :
         {SchemeKind::kTZDirect, SchemeKind::kTZHandshake, SchemeKind::kCowen,
          SchemeKind::kFullTable}) {
      RouteServiceOptions base;
      base.scheme = kind;
      base.threads = 2;
      base.k = k;
      base.seed = 73;
      base.record_paths = true;
      const ReferenceBatch reference = SimReference(g, base).serve(queries);

      for (const std::uint32_t group : {1u, 4u, 8u, 16u}) {
        RouteServiceOptions opt = base;
        opt.batch_group = group;
        RouteService batched(g, opt);
        const std::vector<RouteAnswer> answers =
            batched.route_collect(queries);
        ASSERT_EQ(answers.size(), reference.answers.size());
        for (std::size_t i = 0; i < answers.size(); ++i) {
          ASSERT_TRUE(same_route(reference.answers[i], answers[i]))
              << scheme_name(kind) << " k=" << k << " group=" << group
              << " diverges at query " << i;
        }
      }
    }
  }
}

// The batched path must reject out-of-range endpoints up front (the
// engine itself never bounds-checks — the grouping pass is the gate for
// both endpoints).
TEST(FlatBatch, RejectsOutOfRangeEndpoints) {
  Rng grng(41);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 80, grng);
  RouteServiceOptions opt;
  opt.threads = 1;
  opt.seed = 42;
  RouteService service(g, opt);
  const VertexId n = g.num_vertices();
  EXPECT_THROW(service.route_collect(std::vector<RouteQuery>{RouteQuery{n, 0, kUnknownDistance}}),
               std::invalid_argument);
  EXPECT_THROW(service.route_collect(std::vector<RouteQuery>{RouteQuery{0, n, kUnknownDistance}}),
               std::invalid_argument);
}

// decide() — the micro bench's batched source decision — must agree with
// scalar prepare + step for every pair.
TEST(FlatBatch, DecideMatchesScalarPrepareStep) {
  const FlatFixture fx(3, 200, 81);
  const Graph& g = fx.g;
  const FlatScheme flat(*fx.scheme);
  const FlatRouter router(flat);
  FlatBatchTarget target;
  target.graph = &g;
  target.kind = FlatServeKind::kTZDirect;
  target.flat = &flat;
  std::vector<FlatBatchQuery> qs;
  for (const PairSample& p : all_pairs(g)) {
    qs.push_back(FlatBatchQuery{p.s, p.t, flat.label(p.t)});
  }
  std::vector<FlatBatchAnswer> as(qs.size());
  FlatBatchEngine engine(8);
  engine.decide(target, qs, as);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const FlatHeader h = router.prepare(qs[i].s, qs[i].t);
    const TreeDecision d = router.step(qs[i].s, h);
    ASSERT_EQ(as[i].tree_root, h.tree_root) << "pair " << i;
    ASSERT_EQ(as[i].header_bits, h.bits) << "pair " << i;
    ASSERT_EQ(as[i].first_deliver, d.deliver) << "pair " << i;
    if (!d.deliver) {
      ASSERT_EQ(as[i].first_port, d.port) << "pair " << i;
    }
  }
}

// Handshake routes through the engine: equivalence against the scalar
// walk at the engine level (the service matrix above covers it too, but
// this pins prepare_handshake's staged bidirectional pivot walk
// directly).
TEST(FlatBatch, HandshakeRouteMatchesScalarWalk) {
  const FlatFixture fx(3, 150, 91);
  const Graph& g = fx.g;
  const FlatScheme flat(*fx.scheme, {});
  const FlatRouter router(flat);
  FlatBatchTarget target;
  target.graph = &g;
  target.kind = FlatServeKind::kTZHandshake;
  target.flat = &flat;
  std::vector<FlatBatchQuery> qs;
  for (const PairSample& p : all_pairs(g)) {
    if (p.s != p.t) qs.push_back(FlatBatchQuery{p.s, p.t, {}});
  }
  std::vector<FlatBatchAnswer> as(qs.size());
  FlatBatchEngine engine(16);
  engine.route(target, qs, as);
  const std::uint32_t max_hops = 4 * g.num_vertices() + 16;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const FlatHeader h = router.prepare_handshake(qs[i].s, qs[i].t);
    Weight length = 0;
    std::uint32_t hops = 0;
    VertexId here = qs[i].s;
    while (true) {
      const TreeDecision d = router.step(here, h);
      if (d.deliver) break;
      const Arc& arc = g.arc(here, d.port);
      length += arc.weight;
      here = arc.head;
      if (++hops >= max_hops) break;
    }
    ASSERT_EQ(as[i].status, RouteStatus::kDelivered) << "pair " << i;
    ASSERT_EQ(as[i].header_bits, h.bits) << "pair " << i;
    ASSERT_EQ(as[i].hops, hops) << "pair " << i;
    ASSERT_EQ(as[i].length, length) << "pair " << i;
  }
}

// Compiling the flat view over a ThreadPool must produce byte-identical
// pools to the serial compile: same indices from find, same payloads,
// same pooled labels, same wire-size table, same pool footprint. (The
// TSan CI job runs this test, so the parallel fill passes are
// race-checked too.)
TEST(FlatScheme, ParallelCompileMatchesSerial) {
  const FlatFixture fx(3, 220, 61);
  ThreadPool pool(4);
  const FlatScheme serial(*fx.scheme);
  FlatSchemeOptions par_opt;
  par_opt.pool = &pool;
  const FlatScheme parallel(*fx.scheme, par_opt);

  ASSERT_EQ(serial.pool_bytes(), parallel.pool_bytes());
  ASSERT_EQ(serial.header_bits_table_len(), parallel.header_bits_table_len());
  EXPECT_EQ(parallel.compile_stats().threads, 4u);
  for (VertexId v = 0; v < fx.g.num_vertices(); ++v) {
    ASSERT_EQ(serial.table_size(v), parallel.table_size(v));
    for (const TableEntry& e : fx.scheme->table(v).entries()) {
      const std::uint32_t a = serial.find(v, e.w);
      const std::uint32_t b = parallel.find(v, e.w);
      ASSERT_EQ(a, b);
      ASSERT_NE(a, FlatScheme::kNotFound);
      ASSERT_EQ(serial.record(a).dfs_in, parallel.record(b).dfs_in);
      ASSERT_EQ(serial.own_dfs(a), parallel.own_dfs(b));
      const auto pa = serial.own_light_ports(a);
      const auto pb = parallel.own_light_ports(b);
      ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
    }
    const ClusterDirectory& dir = fx.scheme->directory(v);
    for (const VertexId t : dir.members()) {
      const std::uint32_t a = serial.dir_find(v, t);
      const std::uint32_t b = parallel.dir_find(v, t);
      ASSERT_EQ(a, b);
      ASSERT_EQ(serial.dir_dfs(a), parallel.dir_dfs(b));
    }
    const auto la = serial.label(v);
    const auto lb = parallel.label(v);
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t j = 0; j < la.size(); ++j) {
      ASSERT_EQ(la[j].w, lb[j].w);
      ASSERT_EQ(la[j].dfs_in, lb[j].dfs_in);
      ASSERT_EQ(la[j].light_len, lb[j].light_len);
    }
  }
}

// Every kind serves from pooled SoA state, so the package carries the
// pooled view of its kind; table_bits read from the pooled state must
// match the sim/ reference schemes' own accounting.
TEST(FlatService, FlatPackagesDropLegacyBaselineState) {
  Rng grng(31);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 150, grng);
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kCowen, SchemeKind::kFullTable}) {
    RouteServiceOptions opt;
    opt.scheme = kind;
    opt.threads = 1;
    opt.seed = 32;
    RouteService flat_service(g, opt);
    const SchemePackagePtr pkg = flat_service.package();
    EXPECT_EQ(pkg->flat != nullptr, kind == SchemeKind::kTZDirect);
    EXPECT_EQ(pkg->flat_cowen != nullptr, kind == SchemeKind::kCowen);
    EXPECT_EQ(pkg->flat_full != nullptr, kind == SchemeKind::kFullTable);
    const SimReference ref(g, opt);
    for (VertexId v = 0; v < g.num_vertices(); v += 17) {
      EXPECT_EQ(flat_service.table_bits(v), ref.table_bits(v))
          << scheme_name(kind) << " v=" << v;
    }
  }
}

// Steady-state zero allocation is hard to assert portably; what we can
// pin down is the arena contract: path views from one batch stay valid
// and correct until the next batch, and batches reuse arena capacity.
TEST(FlatService, ArenaPathsAreStableWithinBatch) {
  Rng grng(17);
  const Graph g = make_workload(GraphFamily::kRingOfCliques, 240, grng);
  Rng prng(18);
  const std::vector<PairSample> pairs = sample_pairs(g, 200, prng);
  std::vector<RouteQuery> queries;
  for (const auto& p : pairs) queries.push_back({p.s, p.t, p.exact});

  RouteServiceOptions opt;
  opt.scheme = SchemeKind::kTZDirect;
  opt.threads = 4;
  opt.seed = 19;
  opt.record_paths = true;
  RouteService service(g, opt);
  const std::vector<RouteAnswer> answers = service.route_collect(queries);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    ASSERT_FALSE(answers[i].path.empty());
    EXPECT_EQ(answers[i].path.front(), queries[i].s);
    EXPECT_EQ(answers[i].path.back(), queries[i].t);
    EXPECT_EQ(answers[i].path.size(), std::size_t{answers[i].hops} + 1);
  }
}

}  // namespace
}  // namespace croute
