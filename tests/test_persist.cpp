// Tests for the crash-safe artifact tier: the codec's byte-identity
// round trip (persist/artifact.hpp) across every SchemeKind, the atomic
// publish/recover protocol (persist/artifact_store.hpp) under the fault
// injector, and the RouteService/SchemeManager lifecycle built on both.
//
// The load-bearing claims, in the order the corruption matrix pins them:
//  1. decode(encode(pkg)) re-encodes to the SAME bytes — an artifact is a
//     fixed point, so recover-then-persist cycles never drift.
//  2. A recovered service answers byte-identically to a fresh build on
//     the same (graph, content options).
//  3. NO corruption — bit flips in any section, truncation at any byte,
//     stale or garbage manifests, version skew, injected write/fsync/
//     rename failures — ever crashes or mis-routes: every failure path
//     lands in a defined state (clean std::invalid_argument from the
//     codec; recorded rejection + fallback from the store).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scheme_io.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "persist/artifact.hpp"
#include "persist/artifact_store.hpp"
#include "persist/fault_injection.hpp"
#include "service/hot_swap.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/crc32c.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

namespace fs = std::filesystem;

Graph test_graph(std::uint64_t seed, VertexId n = 300) {
  Rng rng(seed);
  return make_workload(GraphFamily::kErdosRenyi, n, rng);
}

RouteServiceOptions base_options(SchemeKind kind) {
  RouteServiceOptions opt;
  opt.scheme = kind;
  opt.threads = 1;
  opt.k = 3;
  opt.seed = 99;
  opt.record_paths = false;
  opt.metrics = false;
  return opt;
}

SchemePackagePtr build(const Graph& g, const RouteServiceOptions& opt) {
  return build_scheme_package(std::make_shared<const Graph>(g), opt);
}

/// A scratch directory under /tmp, wiped at acquisition so every test
/// starts from an empty store.
std::string scratch_dir(const char* name) {
  const std::string dir = std::string("/tmp/croute_persist_") + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<RouteQuery> probe_queries(const Graph& g, std::uint32_t count) {
  Rng rng(17);
  return make_traffic(g, WorkloadKind::kUniform, count, rng);
}

void expect_same_answers(const std::vector<RouteAnswer>& a,
                         const std::vector<RouteAnswer>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(same_route(a[i], b[i])) << what << " diverges at " << i;
  }
}

/// Rewrites the trailing whole-file CRC so a deliberate payload mutation
/// survives the outer integrity check and must be caught by the
/// per-section sums — the localization property, not just detection.
void refresh_file_crc(std::string& bytes) {
  ASSERT_GE(bytes.size(), 4u);
  const std::uint32_t crc = crc32c(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

/// Appends a section with id \p id to a valid artifact, as a writer that
/// emitted one more section would have laid it out: one more section-table
/// row (shifting every payload offset by the row), the payload after the
/// last section, and fresh header and whole-file CRCs. Header layout:
/// persist/artifact.cpp write_header — the build-host length is a u32 at
/// byte 57, followed by the host bytes, the section count and the table.
std::string with_extra_section(const std::string& bytes, std::uint32_t id,
                               const std::string& payload) {
  constexpr std::size_t kHostLenAt = 57;
  constexpr std::size_t kRow = 4 + 8 + 8 + 4;  // id, offset, size, crc
  const auto get32 = [&](std::size_t at) {
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + at, 4);
    return v;
  };
  const auto put = [](std::string& out, std::size_t at, auto v) {
    std::memcpy(out.data() + at, &v, sizeof v);
  };
  const std::size_t nsec_at = kHostLenAt + 4 + get32(kHostLenAt);
  const std::uint32_t nsec = get32(nsec_at);
  const std::size_t table_at = nsec_at + 4;
  const std::size_t header_crc_at = table_at + kRow * nsec;
  const std::string payloads =
      bytes.substr(header_crc_at + 4, bytes.size() - header_crc_at - 8);

  std::string out = bytes.substr(0, header_crc_at);
  put(out, nsec_at, nsec + 1);
  for (std::uint32_t i = 0; i < nsec; ++i) {
    const std::size_t off_at = table_at + kRow * i + 4;
    std::uint64_t off;
    std::memcpy(&off, out.data() + off_at, 8);
    put(out, off_at, off + kRow);
  }
  const std::size_t row_at = out.size();
  out.resize(row_at + kRow);
  put(out, row_at, id);
  put(out, row_at + 4,
      std::uint64_t{out.size() + 4 + payloads.size()});  // + header CRC
  put(out, row_at + 12, std::uint64_t{payload.size()});
  put(out, row_at + 20, crc32c(payload.data(), payload.size()));
  const std::uint32_t header_crc = crc32c(out.data(), out.size());
  out.append(reinterpret_cast<const char*>(&header_crc), 4);
  out += payloads;
  out += payload;
  out.append(4, '\0');
  refresh_file_crc(out);
  return out;
}

/// Asserts two compiled flat views hold the same pools, slice by slice,
/// through the public accessors (\p a's base scheme supplies the keys).
void expect_same_flat(const FlatScheme& a, const FlatScheme& b) {
  ASSERT_EQ(a.pool_bytes(), b.pool_bytes());
  const auto same_ports = [](std::span<const Port> x,
                             std::span<const Port> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  const TZScheme& tz = a.base();
  const VertexId n = tz.graph().num_vertices();
  ASSERT_EQ(b.graph().num_vertices(), n);
  std::uint32_t tbl = 0, dir = 0;
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(a.table_size(v), b.table_size(v)) << "vertex " << v;
    for (const TableEntry& e : tz.table(v).entries()) {
      ASSERT_EQ(a.find(v, e.w), b.find(v, e.w)) << "vertex " << v;
    }
    for (const std::uint32_t end = tbl + a.table_size(v); tbl < end; ++tbl) {
      ASSERT_EQ(std::memcmp(&a.record(tbl), &b.record(tbl),
                            sizeof(TreeNodeRecord)),
                0);
      ASSERT_EQ(a.own_dfs(tbl), b.own_dfs(tbl));
      ASSERT_TRUE(same_ports(a.own_light_ports(tbl), b.own_light_ports(tbl)));
    }
    ASSERT_EQ(a.dir_size(v), b.dir_size(v)) << "vertex " << v;
    for (const VertexId t : tz.directory(v).members()) {
      ASSERT_EQ(a.dir_find(v, t), b.dir_find(v, t)) << "vertex " << v;
    }
    for (const std::uint32_t end = dir + a.dir_size(v); dir < end; ++dir) {
      ASSERT_EQ(a.dir_dfs(dir), b.dir_dfs(dir));
      ASSERT_TRUE(same_ports(a.dir_light_ports(dir), b.dir_light_ports(dir)));
    }
    const auto la = a.label(v);
    const auto lb = b.label(v);
    ASSERT_EQ(la.size(), lb.size()) << "vertex " << v;
    for (std::size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i].w, lb[i].w);
      ASSERT_EQ(la[i].dfs_in, lb[i].dfs_in);
      ASSERT_EQ(la[i].light_off, lb[i].light_off);
      ASSERT_TRUE(same_ports(a.label_light_ports(la[i]),
                             b.label_light_ports(lb[i])));
    }
  }
  ASSERT_EQ(a.header_bits_table_len(), b.header_bits_table_len());
  for (std::uint32_t len = 0; len <= a.header_bits_table_len() + 2; ++len) {
    ASSERT_EQ(a.header_bits_for(len), b.header_bits_for(len)) << len;
  }
}

// --- codec round trip ----------------------------------------------------

class ArtifactRoundtrip : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(ArtifactRoundtrip, DecodeThenReencodeIsByteIdentical) {
  const Graph g = test_graph(3);
  const RouteServiceOptions opt = base_options(GetParam());
  const SchemePackagePtr pkg = build(g, opt);

  const std::string bytes = persist::encode_package(*pkg, 7);
  const persist::ArtifactMeta meta = persist::read_artifact_meta(bytes);
  EXPECT_EQ(meta.format_version, persist::kArtifactFormatVersion);
  EXPECT_EQ(meta.scheme, opt.scheme);
  EXPECT_EQ(meta.k, opt.k);
  EXPECT_EQ(meta.n, g.num_vertices());
  EXPECT_EQ(meta.seed, opt.seed);
  EXPECT_EQ(meta.generation, 7u);
  EXPECT_EQ(meta.options_digest, persist::content_options_digest(opt));
  EXPECT_EQ(meta.graph_digest, graph_fingerprint(g));
  EXPECT_FALSE(meta.build_host.empty());

  persist::ArtifactMeta decoded_meta;
  const SchemePackagePtr rt = persist::decode_package(bytes, opt,
                                                      &decoded_meta);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(decoded_meta.generation, 7u);
  EXPECT_EQ(rt->graph->num_vertices(), g.num_vertices());
  EXPECT_EQ(graph_fingerprint(*rt->graph), graph_fingerprint(g));

  // The fixed-point property: the decoded package serializes to the very
  // same bytes, so persist → recover → persist cannot drift.
  const std::string again = persist::encode_package(*rt, 7);
  ASSERT_EQ(again.size(), bytes.size());
  EXPECT_TRUE(again == bytes);

  // Space accounting survives the trip (table_bits covers every kind).
  for (VertexId v = 0; v < g.num_vertices(); v += 37) {
    EXPECT_EQ(rt->table_bits(v), pkg->table_bits(v)) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArtifactRoundtrip,
                         ::testing::Values(SchemeKind::kTZDirect,
                                           SchemeKind::kTZHandshake,
                                           SchemeKind::kCowen,
                                           SchemeKind::kFullTable));

// Set-up threads change how fast a TZ generation builds, never its
// bytes: one pool shards landmark sampling, the cluster sweep, table
// finalization and the flat compile. n > the sweep window, so the
// parallel sweep runs more than one window.
TEST(ArtifactRoundtrip, SetupThreadsDoNotChangeBytes) {
  const Graph g = test_graph(5, 2600);
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    RouteServiceOptions opt = base_options(kind);
    opt.compile_threads = 1;
    const std::string serial = persist::encode_package(*build(g, opt), 1);
    opt.compile_threads = 4;
    const SchemePackagePtr parallel = build(g, opt);
    EXPECT_GT(parallel->tz_phases.cluster_sweep_s, 0);
    EXPECT_TRUE(persist::encode_package(*parallel, 1) == serial)
        << scheme_name(kind);
  }
}

// The flat view is not stored: recovery recompiles it from the TZ
// section. The recompiled pools must equal a fresh serial compile's,
// slice by slice, whether recovery compiles serially or on a pool.
TEST(ArtifactRoundtrip, RecoveredFlatPoolsMatchFreshCompile) {
  const Graph g = test_graph(4, 600);
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    RouteServiceOptions opt = base_options(kind);
    opt.compile_threads = 1;
    const SchemePackagePtr fresh = build(g, opt);
    const std::string bytes = persist::encode_package(*fresh, 1);
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(scheme_name(kind)) + ", compile_threads " +
                   std::to_string(threads));
      opt.compile_threads = threads;
      const SchemePackagePtr rt = persist::decode_package(bytes, opt);
      ASSERT_NE(rt->flat, nullptr);
      ASSERT_NE(rt->flat_router, nullptr);
      EXPECT_EQ(rt->flat_stats.threads, threads);
      expect_same_flat(*fresh->flat, *rt->flat);
    }
  }
}

// Artifacts written while the compiled TZ pools were still stored carry
// them as section 3. Such an artifact must recover to the same answers:
// the extra section is covered by the whole-file CRC and otherwise
// skipped, and the recovered generation re-encodes without it.
TEST(ArtifactRoundtrip, StoredFlatSectionOfAnOlderArtifactIsSkipped) {
  const Graph g = test_graph(6);
  const std::vector<RouteQuery> queries = probe_queries(g, 800);
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    SCOPED_TRACE(scheme_name(kind));
    const RouteServiceOptions opt = base_options(kind);
    const std::string bytes = persist::encode_package(*build(g, opt), 1);
    const std::string older =
        with_extra_section(bytes, 3, std::string(4096, '\x3c'));
    ASSERT_GT(older.size(), bytes.size());
    EXPECT_EQ(persist::read_artifact_meta(older).generation, 1u);
    const SchemePackagePtr rt = persist::decode_package(older, opt);
    EXPECT_TRUE(persist::encode_package(*rt, 1) == bytes);

    RouteService svc(g, opt);
    const std::vector<RouteAnswer> expected = svc.route_collect(queries);
    svc.publish(rt);
    expect_same_answers(svc.route_collect(queries), expected,
                        "recovered from the older layout");

    // Skipped, not unchecked: rot in section 3 fails the file CRC.
    std::string rotten = older;
    const std::size_t at = older.size() - 100;
    rotten[at] = static_cast<char>(rotten[at] ^ 0x01);
    EXPECT_THROW(persist::decode_package(rotten, opt), std::invalid_argument);
  }
}

// --- corruption matrix ---------------------------------------------------

TEST(ArtifactCorruption, BitFlipsAnywhereRejectCleanly) {
  const Graph g = test_graph(7, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  // One flip per ~1/64 of the file covers the header, the section table,
  // every payload section, and the trailer.
  for (std::size_t i = 0; i < 64; ++i) {
    std::string mut = bytes;
    const std::size_t at = i * bytes.size() / 64;
    mut[at] = static_cast<char>(mut[at] ^ 0x10);
    EXPECT_THROW(persist::read_artifact_meta(mut), std::invalid_argument)
        << "flip at " << at;
    EXPECT_THROW(persist::decode_package(mut, opt), std::invalid_argument)
        << "flip at " << at;
  }
}

TEST(ArtifactCorruption, TruncationAtEveryRegionRejectsCleanly) {
  const Graph g = test_graph(8, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  std::vector<std::size_t> cuts = {0,  1,  4,  7,  8,  11, 12,
                                   bytes.size() - 1, bytes.size() - 4,
                                   bytes.size() - 5};
  for (std::size_t i = 1; i < 32; ++i) cuts.push_back(i * bytes.size() / 32);
  for (const std::size_t cut : cuts) {
    const std::string mut = bytes.substr(0, cut);
    EXPECT_THROW(persist::read_artifact_meta(mut), std::invalid_argument)
        << "cut at " << cut;
    EXPECT_THROW(persist::decode_package(mut, opt), std::invalid_argument)
        << "cut at " << cut;
  }
}

TEST(ArtifactCorruption, SectionCrcLocalizesPayloadRot) {
  const Graph g = test_graph(9, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  // Rot a payload byte, then *repair the whole-file CRC*: the outer
  // integrity check now passes and only the per-section sum can object —
  // and its message must say which section and where.
  std::string mut = bytes;
  const std::size_t at = 2 * bytes.size() / 3;
  mut[at] = static_cast<char>(mut[at] ^ 0x01);
  refresh_file_crc(mut);
  EXPECT_NO_THROW(persist::read_artifact_meta(mut));
  try {
    persist::decode_package(mut, opt);
    FAIL() << "payload rot must not decode";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("section"), std::string::npos)
        << e.what();
  }
}

TEST(ArtifactCorruption, VersionSkewRejects) {
  const Graph g = test_graph(10, 120);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  // The format version lives right after the 8-byte magic.
  std::string mut = bytes;
  mut[8] = static_cast<char>(persist::kArtifactFormatVersion + 1);
  EXPECT_THROW(persist::read_artifact_meta(mut), std::invalid_argument);
  EXPECT_THROW(persist::decode_package(mut, opt), std::invalid_argument);
}

// Header byte 14 once held the removed use_flat option; every artifact
// a flat service wrote carries 1 there. A 0 (a legacy sim/-path
// generation) must be rejected, and for that reason: the header is
// parsed in order, so the byte-14 check speaks before the header CRC.
TEST(ArtifactCorruption, LegacyServingPathByteRejects) {
  const Graph g = test_graph(10, 120);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  std::string mut = persist::encode_package(*build(g, opt), 1);
  ASSERT_EQ(mut[14], 1);
  mut[14] = 0;
  const auto expect_byte14_reason = [](const auto& load) {
    try {
      load();
      ADD_FAILURE() << "a legacy serving-path artifact was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("byte 14"), std::string::npos)
          << e.what();
    }
  };
  expect_byte14_reason([&] { (void)persist::read_artifact_meta(mut); });
  expect_byte14_reason([&] { (void)persist::decode_package(mut, opt); });
}

// Header byte 15 once held the removed flat lookup layout; every artifact
// this build writes carries 0 (Eytzinger) there. A 1 (a generation of the
// deleted FKS layout, whose sorted slices the Eytzinger descent cannot
// search) must be rejected by name, before the header CRC check runs.
TEST(ArtifactCorruption, RemovedLookupLayoutByteRejects) {
  const Graph g = test_graph(10, 120);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  std::string mut = persist::encode_package(*build(g, opt), 1);
  ASSERT_EQ(mut[15], 0);
  mut[15] = 1;
  const auto expect_byte15_reason = [](const auto& load) {
    try {
      load();
      ADD_FAILURE() << "an FKS-layout artifact was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("byte 15"), std::string::npos)
          << e.what();
    }
  };
  expect_byte15_reason([&] { (void)persist::read_artifact_meta(mut); });
  expect_byte15_reason([&] { (void)persist::decode_package(mut, opt); });
}

// content_options_digest gates recovery: a service upgraded past the
// use_flat removal must still accept the artifacts its predecessor
// wrote, so the default options' digest stays what it was.
TEST(ArtifactCorruption, DefaultOptionsDigestIsPinned) {
  EXPECT_EQ(persist::content_options_digest(RouteServiceOptions{}),
            0x18ee41895af61ba8ULL);
}

TEST(ArtifactCorruption, AlienAndEmptyInputsReject) {
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  EXPECT_THROW(persist::read_artifact_meta(""), std::invalid_argument);
  EXPECT_THROW(persist::decode_package("", opt), std::invalid_argument);
  EXPECT_THROW(persist::decode_package("not an artifact at all", opt),
               std::invalid_argument);
  std::string junk(4096, '\x5a');
  EXPECT_THROW(persist::decode_package(junk, opt), std::invalid_argument);
}

TEST(ArtifactCorruption, OptionsMismatchRejects) {
  const Graph g = test_graph(11, 120);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  RouteServiceOptions other = opt;
  other.seed = opt.seed + 1;  // different construction seed → different bytes
  EXPECT_THROW(persist::decode_package(bytes, other), std::invalid_argument);
  RouteServiceOptions wrong_kind = opt;
  wrong_kind.scheme = SchemeKind::kCowen;
  EXPECT_THROW(persist::decode_package(bytes, wrong_kind),
               std::invalid_argument);
}

TEST(ArtifactCorruption, ServingKnobsDoNotParticipateInDigest) {
  const Graph g = test_graph(12, 120);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  RouteServiceOptions serving = opt;
  serving.threads = 8;
  serving.batch_group = 64;
  serving.metrics = true;
  const SchemePackagePtr rt = persist::decode_package(bytes, serving);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->options.threads, 8u);
  EXPECT_EQ(rt->options.batch_group, 64u);
}

// --- store: publish / recover / faults -----------------------------------

TEST(ArtifactStore, PublishThenRecoverServesSameBytes) {
  const std::string dir = scratch_dir("store_roundtrip");
  const Graph g = test_graph(13);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);

  persist::ArtifactStore store({dir, 2});
  const persist::PublishResult pub = store.publish_generation(*pkg);
  ASSERT_TRUE(pub.ok) << pub.error;
  EXPECT_EQ(pub.generation, 1u);
  EXPECT_GT(pub.bytes, 0u);
  EXPECT_EQ(store.newest_generation(), 1u);

  const persist::RecoverResult rec =
      store.recover_newest(opt, g.num_vertices());
  ASSERT_NE(rec.package, nullptr) << rec.note;
  EXPECT_EQ(rec.meta.generation, 1u);
  EXPECT_TRUE(rec.rejected.empty());
  EXPECT_TRUE(persist::encode_package(*rec.package, 1) ==
              persist::encode_package(*pkg, 1));
}

TEST(ArtifactStore, InjectedFaultsFailGracefullyAndKeepPreviousGeneration) {
  const std::string dir = scratch_dir("store_faults");
  const Graph g = test_graph(14, 200);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);

  persist::ArtifactStore store({dir, 4});
  ASSERT_TRUE(store.publish_generation(*pkg).ok);  // generation 1, clean

  using persist::FaultAction;
  using persist::FaultOp;
  const FaultAction actions[] = {FaultAction::kFail, FaultAction::kShort,
                                 FaultAction::kEnospc};
  const FaultOp ops[] = {FaultOp::kWrite, FaultOp::kFsync, FaultOp::kRename};
  for (const FaultAction action : actions) {
    for (const FaultOp op : ops) {
      for (const std::uint64_t at : {std::uint64_t{1}, std::uint64_t{2}}) {
        if (action == FaultAction::kShort && op != FaultOp::kWrite) continue;
        store.fault_injector().arm({action, op, at});
        const persist::PublishResult pub = store.publish_generation(*pkg);
        EXPECT_FALSE(pub.ok);
        EXPECT_FALSE(pub.error.empty());
        // The previous generation must still recover, whatever was torn.
        const persist::RecoverResult rec =
            store.recover_newest(opt, g.num_vertices());
        ASSERT_NE(rec.package, nullptr)
            << "after fault action=" << static_cast<int>(action)
            << " op=" << static_cast<int>(op) << " at=" << at << ": "
            << rec.note;
      }
    }
  }
  // Disarm; the store must heal (sweep litter, publish the next gen).
  store.fault_injector().arm({});
  const persist::PublishResult pub = store.publish_generation(*pkg);
  ASSERT_TRUE(pub.ok) << pub.error;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "litter survived a successful publish: " << entry.path();
  }
}

TEST(ArtifactStore, RetentionKeepsNewestAndPinned) {
  const std::string dir = scratch_dir("store_retention");
  const Graph g = test_graph(15, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);
  persist::ArtifactStore store({dir, 2});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.publish_generation(*pkg).ok);
  }
  std::size_t artifacts = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".art") ++artifacts;
  }
  EXPECT_EQ(artifacts, 2u);  // retain=2, live+backup are among the newest
  EXPECT_EQ(store.newest_generation(), 5u);
}

TEST(ArtifactStore, StaleAndGarbageManifestsFallBackToScan) {
  const std::string dir = scratch_dir("store_manifest");
  const Graph g = test_graph(16, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);
  persist::ArtifactStore store({dir, 2});
  ASSERT_TRUE(store.publish_generation(*pkg).ok);

  {  // stale: names an artifact that no longer exists
    std::ofstream m(dir + "/MANIFEST", std::ios::trunc);
    m << "croute-manifest v1\nlive scheme-99999999.art\nbackup -\n";
  }
  persist::RecoverResult rec = store.recover_newest(opt, g.num_vertices());
  ASSERT_NE(rec.package, nullptr) << rec.note;
  EXPECT_FALSE(rec.rejected.empty());

  {  // garbage bytes
    std::ofstream m(dir + "/MANIFEST", std::ios::trunc);
    m << "\x00\xff not a manifest";
  }
  rec = store.recover_newest(opt, g.num_vertices());
  ASSERT_NE(rec.package, nullptr) << rec.note;
}

TEST(ArtifactStore, CorruptLiveFallsBackOneGeneration) {
  const std::string dir = scratch_dir("store_fallback");
  const Graph g = test_graph(17, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);
  persist::ArtifactStore store({dir, 3});
  ASSERT_TRUE(store.publish_generation(*pkg).ok);
  ASSERT_TRUE(store.publish_generation(*pkg).ok);
  {  // rot the live (newest) artifact mid-file
    std::fstream f(dir + "/scheme-00000002.art",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40000);
    f.put('\x7e');
  }
  const persist::RecoverResult rec =
      store.recover_newest(opt, g.num_vertices());
  ASSERT_NE(rec.package, nullptr) << rec.note;
  EXPECT_EQ(rec.meta.generation, 1u);
  EXPECT_EQ(rec.rejected.size(), 1u);
}

// The recovery note says why candidates were rejected, not only how many
// (croute_persist_artifacts_rejected_total counts them): the first three
// "file: reason" strings, then "+N more" — and the service's
// recovery_note() carries it through.
TEST(ArtifactStore, RecoveryNoteNamesRejectionReasons) {
  const std::string dir = scratch_dir("store_note");
  const Graph g = test_graph(21, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);
  persist::ArtifactStore store({dir, 5});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.publish_generation(*pkg).ok);
  const auto rot = [&](int generation) {
    char name[32];
    std::snprintf(name, sizeof name, "/scheme-%08d.art", generation);
    std::fstream f(dir + name, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40000);
    f.put('\x7e');
  };
  // One bad candidate: the recovered note names it and its reason.
  rot(5);
  persist::RecoverResult rec = store.recover_newest(opt, g.num_vertices());
  ASSERT_NE(rec.package, nullptr) << rec.note;
  ASSERT_EQ(rec.rejected.size(), 1u);
  EXPECT_EQ(rec.rejected[0].rfind("scheme-00000005.art: ", 0), 0u)
      << rec.rejected[0];
  EXPECT_NE(rec.note.find(rec.rejected[0].substr(0, 197)), std::string::npos)
      << rec.note;

  // Every candidate bad: the first three reasons, then the count.
  for (int generation = 1; generation <= 4; ++generation) rot(generation);
  rec = store.recover_newest(opt, g.num_vertices());
  EXPECT_EQ(rec.package, nullptr);
  ASSERT_EQ(rec.rejected.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NE(rec.note.find(rec.rejected[i].substr(0, 197)),
              std::string::npos)
        << rec.note;
  }
  const std::string fourth = rec.rejected[3].substr(0, rec.rejected[3].find(':'));
  EXPECT_EQ(rec.note.find(fourth), std::string::npos) << rec.note;
  EXPECT_NE(rec.note.find("+2 more"), std::string::npos) << rec.note;

  RouteServiceOptions svc_opt = opt;
  svc_opt.persist.dir = dir;
  RouteService svc(g, svc_opt);
  EXPECT_FALSE(svc.recovered_from_artifact());
  EXPECT_EQ(svc.recovery_note(), rec.note);
}

TEST(ArtifactStore, VertexCountMismatchIsRejectedWithReason) {
  const std::string dir = scratch_dir("store_nmismatch");
  const Graph g = test_graph(18, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  persist::ArtifactStore store({dir, 2});
  ASSERT_TRUE(store.publish_generation(*build(g, opt)).ok);
  const persist::RecoverResult rec =
      store.recover_newest(opt, g.num_vertices() + 1);
  EXPECT_EQ(rec.package, nullptr);
  ASSERT_EQ(rec.rejected.size(), 1u);
  EXPECT_NE(rec.rejected[0].find("built for n="), std::string::npos)
      << rec.rejected[0];
}

TEST(ArtifactStore, MalformedFaultEnvThrowsAtConstruction) {
  // A typo in CROUTE_PERSIST_FAULT must never make a fault run pass
  // vacuously: the store refuses to construct.
  ::setenv("CROUTE_PERSIST_FAULT", "bogus-value", 1);
  const std::string dir = scratch_dir("store_badenv");
  EXPECT_THROW(persist::ArtifactStore({dir, 2}), std::invalid_argument);
  ::unsetenv("CROUTE_PERSIST_FAULT");
  EXPECT_NO_THROW(persist::ArtifactStore({dir, 2}));
}

// --- service lifecycle ----------------------------------------------------

class PersistLifecycle : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(PersistLifecycle, RecoveredServiceAnswersIdentically) {
  const std::string dir =
      scratch_dir((std::string("svc_") + scheme_name(GetParam())).c_str());
  const Graph g = test_graph(19);
  RouteServiceOptions opt = base_options(GetParam());
  opt.persist.dir = dir;

  RouteService first(g, opt);  // fresh build; persists generation 1
  EXPECT_FALSE(first.recovered_from_artifact());
  EXPECT_EQ(first.snapshot().artifacts_persisted, 1u);

  RouteService second(g, opt);  // must recover, not rebuild
  EXPECT_TRUE(second.recovered_from_artifact()) << second.recovery_note();
  EXPECT_EQ(second.recovered_generation(), 1u);

  RouteServiceOptions plain = opt;
  plain.persist.dir.clear();
  RouteService fresh(g, plain);

  const std::vector<RouteQuery> queries = probe_queries(g, 1500);
  expect_same_answers(second.route_collect(queries), fresh.route_collect(queries),
                      "recovered vs fresh");
  expect_same_answers(first.route_collect(queries), fresh.route_collect(queries),
                      "persisting vs fresh");
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PersistLifecycle,
                         ::testing::Values(SchemeKind::kTZDirect,
                                           SchemeKind::kTZHandshake,
                                           SchemeKind::kCowen,
                                           SchemeKind::kFullTable));

TEST(PersistLifecycle, CorruptStoreDegradesToFreshBuildWithReason) {
  const std::string dir = scratch_dir("svc_degrade");
  const Graph g = test_graph(20, 200);
  RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  opt.persist.dir = dir;
  { RouteService seed_store(g, opt); }  // persists generation 1
  // Rot every artifact: recovery must fall back to preprocessing and say
  // why, and the service must still serve correctly.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".art") continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                     std::ios::binary);
    f.seekp(100);
    f.put('\x00');
    f.put('\x00');
  }
  RouteService svc(g, opt);
  EXPECT_FALSE(svc.recovered_from_artifact());
  EXPECT_FALSE(svc.recovery_note().empty());
  RouteServiceOptions plain = opt;
  plain.persist.dir.clear();
  RouteService fresh(g, plain);
  const std::vector<RouteQuery> queries = probe_queries(g, 800);
  expect_same_answers(svc.route_collect(queries), fresh.route_collect(queries),
                      "degraded vs fresh");
}

TEST(PersistLifecycle, RebuildPersistsNextGenerationInBackground) {
  const std::string dir = scratch_dir("svc_rebuild");
  const Graph g = test_graph(21, 200);
  RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  opt.persist.dir = dir;
  RouteService svc(g, opt);
  SchemeManager manager(svc);
  Rng rng(5);
  manager.rebuild_async(perturb_graph(g, rng));
  manager.wait();
  EXPECT_EQ(svc.snapshot().artifacts_persisted, 2u);
  // The new generation is on disk and recovers for the NEW topology.
  persist::ArtifactStore store({dir, 2});
  EXPECT_EQ(store.newest_generation(), 2u);
}

TEST(PersistLifecycle, RebuildRetriesWithBackoffThenSurfaces) {
  const Graph g = test_graph(22, 150);
  RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  opt.persist.rebuild_retries = 2;
  RouteService svc(g, opt);
  SchemeManager manager(svc);
  // A disconnected graph fails preprocessing deterministically: every
  // retry fails too, the budget drains, and wait() surfaces the error.
  GraphBuilder b(6);
  b.add_edge(0, 1).add_edge(1, 2);
  b.add_edge(3, 4).add_edge(4, 5);
  manager.rebuild_async(b.build());
  EXPECT_THROW(manager.wait(), std::invalid_argument);
  EXPECT_EQ(svc.snapshot().rebuild_retries, 2u);
  // The service still serves the original generation.
  const std::vector<RouteQuery> queries = probe_queries(g, 200);
  EXPECT_EQ(svc.route_collect(queries).size(), queries.size());
}

TEST(PersistLifecycle, WarmStartWithNonTZSchemeIsAGracefulError) {
  const Graph g = test_graph(23, 120);
  RouteServiceOptions opt = base_options(SchemeKind::kCowen);
  opt.warm_start_path = "/tmp/does_not_matter.bin";
  try {
    RouteService svc(g, opt);
    FAIL() << "non-TZ warm start must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("artifact-dir"), std::string::npos) << what;
    EXPECT_NE(what.find("cowen"), std::string::npos) << what;
  }
}

TEST(PersistLifecycle, PersistFailureIsCountedNotFatal) {
  const std::string dir = scratch_dir("svc_persist_fail");
  const Graph g = test_graph(24, 150);
  RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  opt.persist.dir = dir;
  RouteService svc(g, opt);
  ASSERT_NE(svc.artifact_store(), nullptr);
  svc.artifact_store()->fault_injector().arm(
      {persist::FaultAction::kEnospc, persist::FaultOp::kWrite, 1});
  EXPECT_FALSE(svc.persist_current());
  const ServiceTelemetry tel = svc.snapshot();
  EXPECT_EQ(tel.artifacts_persisted, 1u);  // the construction-time persist
  EXPECT_EQ(tel.persist_failures, 1u);
  // Serving is untouched.
  const std::vector<RouteQuery> queries = probe_queries(g, 200);
  EXPECT_EQ(svc.route_collect(queries).size(), queries.size());
}

}  // namespace
}  // namespace croute
