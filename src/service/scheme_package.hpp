/// \file scheme_package.hpp
/// \brief SchemePackage: one immutable, refcounted scheme generation.
///
/// Hot-swapping a routing scheme under live traffic only works if
/// *everything* a query touches — the graph CSR, the TZ preprocessing,
/// and the compiled flat views — lives and dies as ONE unit.
/// SchemePackage is that unit: built once by build_scheme_package(),
/// immutable afterwards, and shared via
/// `std::shared_ptr<const SchemePackage>` so the reference count IS the
/// retirement protocol. RouteService publishes a package with an atomic
/// pointer flip (RCU-style); every in-flight batch pins the package it
/// started on, and an old generation is destroyed exactly when its last
/// pinned batch drains — readers never block, swappers never wait for
/// readers.
///
/// Internal ownership order matters and is encoded here: the package
/// owns its Graph (a value copy — rebuilds serve a *different* topology
/// than the caller's original), TZScheme points into that graph,
/// FlatScheme points into the TZScheme, FlatRouter into the FlatScheme,
/// and the baseline views (FlatCowen, FlatFullTable) into the graph.
/// Destruction runs in reverse member order, so no dangling pointers at
/// teardown.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/flat_batch.hpp"
#include "core/flat_scheme.hpp"
#include "core/incremental_rebuild.hpp"
#include "core/tz_scheme.hpp"
#include "graph/graph.hpp"

namespace croute {

/// Which routing scheme a service runs. Fixed per package; hot swap
/// replaces the graph and the preprocessing, never the scheme kind.
enum class SchemeKind {
  kTZDirect,     ///< Thorup–Zwick without handshake (stretch ≤ 4k−5)
  kTZHandshake,  ///< Thorup–Zwick with handshake (stretch ≤ 2k−1)
  kCowen,        ///< Cowen's stretch-3 baseline
  kFullTable,    ///< full shortest-path tables (stretch 1; small graphs)
};

const char* scheme_name(SchemeKind kind) noexcept;

/// Parses "tz" / "tz-handshake" / "cowen" / "full" (throws on others).
SchemeKind parse_scheme(const std::string& name);

const char* sampling_name(SamplingMode mode) noexcept;

/// Parses "centered" / "bernoulli" (throws on others).
SamplingMode parse_sampling(const std::string& name);

/// Largest accepted RouteServiceOptions::batch_group: each worker's
/// FlatBatchEngine sizes its lane arrays to the group on the first batch.
inline constexpr std::uint32_t kMaxBatchGroup = 4096;

/// Construction-time options for RouteService (and for every package a
/// rebuild produces; only warm_start_path is dropped on rebuilds).
struct RouteServiceOptions {
  SchemeKind scheme = SchemeKind::kTZDirect;
  /// Worker threads (0 = worker_count()).
  unsigned threads = 0;
  /// TZ hierarchy depth (TZ schemes only).
  std::uint32_t k = 3;
  /// Landmark sampler (TZ schemes only). Centered (the default) is the
  /// paper's worst-case-table refinement; Bernoulli trades that bound
  /// for a hierarchy that is a pure function of (seed, n) — under
  /// topology churn the landmark set then never flips, which roughly
  /// doubles the SPT reuse the delta-aware rebuild achieves (the
  /// centered sampler loses a few cap-marginal landmarks per delta).
  SamplingMode sampling = SamplingMode::kCentered;
  /// Preprocessing seed (landmark sampling; ignored on warm start).
  /// Rebuilds reuse it, so a hot-swapped service and a fresh service on
  /// the same graph preprocess byte-identically.
  std::uint64_t seed = 1;
  /// Record full vertex paths in answers (tests want them; throughput
  /// runs usually don't). Paths land in per-worker arenas — see
  /// RouteAnswer::path for the validity contract.
  bool record_paths = false;
  /// Pipeline depth of the batched serving engine (core/flat_batch.hpp):
  /// how many queries' descents one worker keeps in flight, prefetching
  /// each lane's next load while the others compute. A power of two from
  /// 1 to 4096 (1 = one descent at a time); answers are byte-identical at
  /// every depth. 8–16 covers the dev containers we measure on.
  std::uint32_t batch_group = 16;
  /// Worker threads for building a TZ generation (0 = worker_count(),
  /// 1 = serial): one set-up pool covers landmark sampling, the cluster
  /// sweep, table finalization and the flat compile. The built bytes are
  /// identical at every count.
  unsigned compile_threads = 0;
  /// Always-on observability (src/obs/): per-worker latency/queue-wait
  /// histograms, decision counters, and the rebuild trace recorder. The
  /// record path is a couple of relaxed atomic adds per *batch chunk* (not
  /// per query), so the default is on; false drops every obs recording
  /// for apples-to-apples overhead measurements.
  bool metrics = true;
  /// Optional scheme_io file to warm-start from instead of preprocessing
  /// (TZ schemes only; the file must match the graph's fingerprint).
  /// Applies to the initial package only — a rebuilt graph has a new
  /// fingerprint, so rebuilds always preprocess.
  std::string warm_start_path;
  /// Crash-safe persistence + rebuild-resilience knobs, nested as one
  /// sub-struct (they configure the same src/persist seam and travel
  /// together through CLIs and tests).
  struct PersistOptions {
    /// Optional crash-safe artifact directory (src/persist). When set,
    /// the service recovers the newest valid artifact at construction
    /// instead of preprocessing (degrading gracefully — a corrupt or
    /// incompatible store falls back to a fresh build with a recorded
    /// reason), and persists every generation (initial + rebuilds)
    /// atomically after publishing it. Unlike warm_start_path this
    /// covers EVERY scheme kind, carries the generation's own graph, and
    /// survives crashes at any byte (tmp → fsync → rename + MANIFEST).
    /// Empty = persistence off.
    std::string dir;
    /// Artifact generations retained on disk; older ones are unlinked
    /// after each publish (the MANIFEST's live + backup are always
    /// kept).
    std::uint32_t retain = 2;
    /// Retries a failed background rebuild takes before surfacing the
    /// error, with capped exponential backoff (10 ms · 2^attempt, capped
    /// at 500 ms) between attempts. 0 (default) = fail fast on wait().
    /// Either way the service keeps serving the old generation.
    std::uint32_t rebuild_retries = 0;
  };
  PersistOptions persist;

  /// Validates the whole option surface in one place. Returns "" when
  /// every field is consistent, else one actionable message naming the
  /// offending flag and the accepted values. RouteService's constructor
  /// calls it (throwing std::invalid_argument on a non-empty result);
  /// CLIs call it right after parsing so a typo fails before minutes of
  /// preprocessing.
  std::string validate() const;
};

/// One immutable scheme generation: the graph it was built over plus
/// every query-path structure, owned together. Share as
/// `std::shared_ptr<const SchemePackage>`; never mutate after build.
///
/// Every SchemeKind serves from pooled SoA state — flat/flat_router for
/// the TZ kinds, flat_cowen / flat_full for the baselines. The baselines'
/// preprocessing-layout objects (CowenScheme, FullTableScheme) exist
/// transiently during build and are dropped once their pooled views are
/// compiled; the TZ preprocessing stays (labels, stats, IO, incremental
/// rebuilds read it).
struct SchemePackage {
  SchemePackage() = default;
  SchemePackage(const SchemePackage&) = delete;
  SchemePackage& operator=(const SchemePackage&) = delete;

  RouteServiceOptions options;  ///< the options this generation was built with
  std::shared_ptr<const Graph> graph;
  std::unique_ptr<const TZScheme> tz;
  std::unique_ptr<const FlatScheme> flat;
  std::unique_ptr<const FlatRouter> flat_router;
  std::unique_ptr<const FlatCowen> flat_cowen;     ///< kCowen
  std::unique_ptr<const FlatFullTable> flat_full;  ///< kFullTable
  double build_seconds = 0;  ///< wall time of build_scheme_package
  /// Phase split of a fresh TZ construction (zeros when this generation
  /// was warm-started, rebuilt incrementally, or is a baseline kind).
  TZBuildPhases tz_phases;
  /// Where the flat compile's time/space went (zeros for the baseline
  /// kinds) — surfaced per swap by the rebuild telemetry.
  FlatCompileStats flat_stats;
  /// What the delta-aware rebuild reused (used=false for initial builds
  /// and full rebuilds) — the reuse-ratio/phase-timing half of the
  /// rebuild telemetry.
  IncrementalRebuildStats incr_stats;

  /// Bits of routing state the scheme stores at vertex v (space story).
  std::uint64_t table_bits(VertexId v) const;
};

using SchemePackagePtr = std::shared_ptr<const SchemePackage>;

/// What the batch engine routes against in \p pkg: its flat views and
/// the serve kind of its scheme. Views point into \p pkg, so keep it
/// pinned while the target is in use.
FlatBatchTarget flat_batch_target(const SchemePackage& pkg);

/// The set-up pool a TZ generation is built or recovered on:
/// options.compile_threads workers (0 = worker_count()), or null — serial
/// — when that comes to one thread, where a pool would only add queue
/// overhead. Fresh builds, rebuilds and artifact recovery all size their
/// pool here.
std::unique_ptr<ThreadPool> make_setup_pool(const RouteServiceOptions& options);

/// Compiles pkg.tz into the flat serving view (flat, flat_router,
/// flat_stats) on \p pool (nullptr = serial). Builds and artifact
/// recovery run this one compile, so a recovered generation's pools are
/// the fresh build's bytes.
void compile_flat_view(SchemePackage& pkg, ThreadPool* pool);

/// Preprocesses \p graph under \p options into a fresh package.
/// Deterministic: (graph, options) fixes every byte of the result, so a
/// hot-swapped generation is indistinguishable from a fresh service's.
/// Safe to call from a background thread — it touches nothing shared.
SchemePackagePtr build_scheme_package(std::shared_ptr<const Graph> graph,
                                      const RouteServiceOptions& options);

/// Like build_scheme_package, but delta-aware: diffs \p graph against
/// \p previous's topology and reuses every cluster SPT the delta leaves
/// untouched (core/incremental_rebuild.hpp). The package is
/// byte-identical to build_scheme_package(graph, options) — incremental
/// rebuilds change the cost of a generation, never its content. Falls
/// back to a full build (recording why in incr_stats.fallback_reason)
/// when the scheme kind is not TZ, the options preclude the incremental
/// path, or \p previous is missing/incompatible. (To force a full build,
/// call build_scheme_package, or SchemeManager with RebuildMode::kFull.)
/// Safe to call from a background thread.
SchemePackagePtr build_scheme_package_incremental(
    SchemePackagePtr previous, std::shared_ptr<const Graph> graph,
    const RouteServiceOptions& options);

}  // namespace croute
