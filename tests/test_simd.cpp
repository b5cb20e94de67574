// Cross-ISA equivalence suite for the SIMD dispatch layer (src/simd/).
//
// Two levels:
//  - kernel level: every compiled-in, CPU-supported implementation must
//    return byte-identical outputs to the scalar reference
//    (flat_detail::eytzinger_find) on randomized probe batches — ragged
//    counts, empty slices at pool end, missing keys, mixed lane
//    retirement times;
//  - engine level: forcing each implementation, the batch-pipelined
//    RouteService must serve byte-identical answers (same_route: status,
//    length, hops, header bits, stretch, path) to the sim/ reference
//    walk — kernel-free by construction — for every scheme kind and
//    G ∈ {16, 32, 64}.
//
// Plus the dispatcher contract: name round-trips, generic always
// available, force() refusing unavailable ISAs, and an unknown
// CROUTE_SIMD name falling back to generic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/flat_scheme.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "sim_reference.hpp"
#include "simd/simd.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

/// Every implementation this binary + CPU can actually run.
std::vector<simd::Isa> usable_isas() {
  std::vector<simd::Isa> out;
  for (const simd::Isa isa : simd::compiled()) {
    if (simd::available(isa)) out.push_back(isa);
  }
  return out;
}

/// Restores the auto-selected implementation after a forcing test.
struct IsaGuard {
  simd::Isa initial = simd::selected();
  ~IsaGuard() { simd::force(initial); }
};

// A stale CROUTE_SIMD value (say "sse42", whose kernel table was removed)
// must degrade to generic at the first selection, never fault. The
// test_simd_unknown_isa_env ctest entry runs this test alone under
// CROUTE_SIMD=sse42; without an unknown name in the environment it skips.
// Declared first, so even a full run resolves the selection here before
// any other test forces an ISA.
TEST(SimdDispatch, UnknownEnvIsaFallsBackToGeneric) {
  const char* env = std::getenv("CROUTE_SIMD");
  if (env == nullptr || simd::isa_from_name(env).has_value()) {
    GTEST_SKIP() << "needs CROUTE_SIMD set to a name isa_from_name rejects";
  }
  EXPECT_EQ(simd::selected(), simd::Isa::kGeneric);
  EXPECT_STREQ(simd::ops().name, "generic");
}

TEST(SimdDispatch, NamesRoundTripAndGenericAlwaysUsable) {
  for (const simd::Isa isa :
       {simd::Isa::kGeneric, simd::Isa::kAVX2, simd::Isa::kNEON}) {
    const auto parsed = simd::isa_from_name(simd::isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(simd::isa_from_name("avx512").has_value());
  EXPECT_FALSE(simd::isa_from_name("sse42").has_value());  // table removed
  EXPECT_FALSE(simd::isa_from_name("").has_value());
  EXPECT_FALSE(simd::isa_from_name("GENERIC").has_value());

  EXPECT_TRUE(simd::available(simd::Isa::kGeneric));
  const auto compiled = simd::compiled();
  EXPECT_NE(std::find(compiled.begin(), compiled.end(), simd::Isa::kGeneric),
            compiled.end());

  IsaGuard guard;
  EXPECT_TRUE(simd::force(simd::Isa::kGeneric));
  EXPECT_EQ(simd::selected(), simd::Isa::kGeneric);
  // Forcing an unavailable implementation fails and leaves the selection
  // untouched.
  for (const simd::Isa isa : {simd::Isa::kAVX2, simd::Isa::kNEON}) {
    if (!simd::available(isa)) {
      EXPECT_FALSE(simd::force(isa));
      EXPECT_EQ(simd::selected(), simd::Isa::kGeneric);
    }
  }
  // The selected table always carries its kernel.
  EXPECT_NE(simd::ops().eytzinger_batch, nullptr);
}

// Randomized slice batches: every ISA's eytzinger_batch must equal the
// scalar flat_detail::eytzinger_find lane for lane. Slices get wildly
// different lengths (including 0 — one at the very end of the pool, so a
// kernel touching a retired lane's memory would read out of bounds) to
// force lanes to retire at different descent depths.
TEST(SimdKernels, EytzingerBatchMatchesScalarOnEveryIsa) {
  Rng rng(1234);
  std::vector<std::uint32_t> keys, offs, lens, xs;
  for (std::uint32_t lane = 0; lane < 300; ++lane) {
    const auto len = static_cast<std::uint32_t>(rng.next_below(40));
    offs.push_back(static_cast<std::uint32_t>(keys.size()));
    lens.push_back(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      keys.push_back(static_cast<std::uint32_t>(
          rng.next_below(std::uint64_t{1} << 32)));
    }
    // Half the lanes search a key actually present somewhere in the
    // slice; the rest search random values (usually misses).
    if (len > 0 && rng.next_bernoulli(0.5)) {
      xs.push_back(keys[offs.back() + static_cast<std::uint32_t>(
                                          rng.next_below(len))]);
    } else {
      xs.push_back(static_cast<std::uint32_t>(
          rng.next_below(std::uint64_t{1} << 32)));
    }
  }
  // Empty slice whose offset is the pool end (nothing to read there).
  offs.push_back(static_cast<std::uint32_t>(keys.size()));
  lens.push_back(0);
  xs.push_back(7);

  const auto count = static_cast<std::uint32_t>(offs.size());
  std::vector<std::uint32_t> expect(count);
  for (std::uint32_t l = 0; l < count; ++l) {
    expect[l] =
        flat_detail::eytzinger_find(keys.data() + offs[l], lens[l], xs[l]);
  }
  IsaGuard guard;
  for (const simd::Isa isa : usable_isas()) {
    const char* name = simd::isa_name(isa);
    ASSERT_TRUE(simd::force(isa)) << name;
    // Ragged sub-batches exercise both the vector main loop and the
    // scalar tail at several alignments.
    for (const std::uint32_t sub : {0u, 1u, 3u, 7u, 8u, 9u, 31u, count}) {
      std::vector<std::uint32_t> out(sub, 0xDEAD);
      simd::ops().eytzinger_batch(keys.data(), offs.data(), lens.data(),
                                  xs.data(), out.data(), sub);
      for (std::uint32_t l = 0; l < sub; ++l) {
        ASSERT_EQ(out[l], expect[l])
            << name << " lane " << l << " of " << sub;
      }
    }
  }
}

// The full serving matrix: forced ISA × scheme kind × batch group, all
// compared against the sim/ reference walk (kernel-free). One
// batched service per (kind, G) is reused across ISAs — the engine
// re-reads simd::ops() per probe round, so a force takes effect on the
// next batch.
TEST(SimdEngine, CrossIsaRoutesAreByteIdentical) {
  Rng grng(171);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 220, grng);
  Rng prng(172);
  const std::vector<PairSample> pairs = sample_pairs(g, 330, prng);
  std::vector<RouteQuery> queries;
  for (const auto& p : pairs) queries.push_back({p.s, p.t, p.exact});
  for (VertexId v = 0; v < 5; ++v) {  // self-queries retire at lane issue
    queries.insert(queries.begin() + 29 * (v + 1), RouteQuery{v, v, 0.0});
  }

  IsaGuard guard;
  const std::vector<simd::Isa> isas = usable_isas();
  ASSERT_FALSE(isas.empty());
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake, SchemeKind::kCowen,
        SchemeKind::kFullTable}) {
    RouteServiceOptions base;
    base.scheme = kind;
    base.threads = 2;
    base.k = 3;
    base.seed = 173;
    base.record_paths = true;
    const ReferenceBatch reference = SimReference(g, base).serve(queries);

    for (const std::uint32_t group : {16u, 32u, 64u}) {
      RouteServiceOptions opt = base;
      opt.batch_group = group;
      RouteService batched(g, opt);
      for (const simd::Isa isa : isas) {
        ASSERT_TRUE(simd::force(isa));
        const std::vector<RouteAnswer> answers =
            batched.route_collect(queries);
        ASSERT_EQ(answers.size(), reference.answers.size());
        for (std::size_t i = 0; i < answers.size(); ++i) {
          ASSERT_TRUE(same_route(reference.answers[i], answers[i]))
              << scheme_name(kind) << " G=" << group
              << " isa=" << simd::isa_name(isa) << " diverges at query "
              << i;
        }
      }
    }
  }
}

// Non-power-of-two pipeline groups must be rejected up front with a
// clear error (the sweep grid and the CLI flags promise powers of two),
// and so must 0: the scalar batch loop it selected is gone, and the
// message says so by the field's name.
TEST(SimdEngine, ServiceRejectsZeroAndNonPowerOfTwoBatchGroup) {
  Rng grng(11);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 40, grng);
  RouteServiceOptions opt;
  opt.threads = 1;
  opt.seed = 12;
  opt.batch_group = 24;
  EXPECT_THROW(RouteService(g, opt), std::invalid_argument);
  // A power of two past kMaxBatchGroup would size every worker's lane
  // arrays to it on the first batch.
  opt.batch_group = std::uint32_t{1} << 31;
  EXPECT_THROW(RouteService(g, opt), std::invalid_argument);
  opt.batch_group = 0;
  EXPECT_NE(opt.validate().find("batch_group"), std::string::npos)
      << opt.validate();
  EXPECT_THROW(RouteService(g, opt), std::invalid_argument);
  opt.batch_group = 1;  // the smallest pipeline: one descent at a time
  EXPECT_NO_THROW(RouteService(g, opt));
}

}  // namespace
}  // namespace croute
