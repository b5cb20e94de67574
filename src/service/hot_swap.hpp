/// \file hot_swap.hpp
/// \brief SchemeManager: background scheme rebuilds + atomic publication.
///
/// The control plane of scheme hot-swap. The data plane lives in
/// RouteService (RCU package pinning, scheme_package.hpp); this manager
/// supplies the missing half the ROADMAP names: *rebuild on topology
/// change in the background and atomically swap the immutable scheme
/// under live traffic*. The shape follows what distributed-construction
/// work on compact routing (Dou et al., planar compact routing) measures:
/// recomputation cost is the dominant price of churn, so the rebuild runs
/// off the serving path — one dedicated background thread preprocesses
/// the mutated graph into a fresh SchemePackage while worker threads keep
/// draining batches against the old generation — and only the final
/// pointer flip touches the service.
///
/// Rebuilds are **delta-aware by default**: the manager diffs the new
/// topology against the serving generation and reuses every cluster SPT
/// the delta provably leaves untouched (core/incremental_rebuild.hpp),
/// byte-identical to a full preprocessing. RebuildMode::kFull is the
/// escape hatch. Reuse ratios and phase timings land in ServiceTelemetry
/// next to the flat-compile stats.
///
/// Determinism contract: rebuilds reuse the service's construction
/// options (seed included, warm start dropped), so a hot-swapped
/// generation is byte-identical to a fresh RouteService built on the same
/// graph. tests/test_hot_swap.cpp proves answers match fresh services at
/// every thread count, across ≥ 3 swap cycles under concurrent batches.
///
/// Threading: at most one background rebuild is in flight; rebuild_async
/// joins any previous one first. wait() joins and rethrows a background
/// build failure (the service keeps serving the old generation when a
/// rebuild throws — a failed rebuild never damages the data plane).
/// With RouteServiceOptions::persist.rebuild_retries > 0 a failed background
/// rebuild retries under capped exponential backoff (10 ms · 2^attempt,
/// ≤ 500 ms) before surfacing; retries are counted in the telemetry.
///
/// Persistence: when the service has an artifact store (persist.dir),
/// every published rebuild is persisted right after the flip — on the
/// rebuild thread, so the disk write overlaps serving, and gracefully
/// (a failed persist leaves the disk copy one generation stale and the
/// rebuild successful).
///
/// Each recorded rebuild also folds the package's flat-compile stats
/// (FlatScheme::compile_stats: per-phase wall time, pool bytes) into the
/// service telemetry, so churn reports can say how much of a rebuild was
/// preprocessing versus flat compilation.

#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>

#include "service/route_service.hpp"

namespace croute {

/// Which rebuild path a SchemeManager takes for one rebuild.
enum class RebuildMode {
  /// Delta-aware: diff the new topology against the serving generation
  /// and reuse every cluster SPT the delta leaves untouched
  /// (core/incremental_rebuild.hpp). Byte-identical to a full rebuild;
  /// falls back to one automatically when no compatible previous
  /// generation exists. The default.
  kIncremental,
  /// Full preprocessing from scratch — the escape hatch (and the
  /// attribution baseline the churn bench prices reuse against).
  kFull,
};

/// Rebuilds scheme generations for one RouteService and publishes them.
/// One driver thread calls rebuild_now/rebuild_async/wait; the service's
/// own snapshot() aggregates the rebuild/swap counters this feeds.
class SchemeManager {
 public:
  explicit SchemeManager(RouteService& service) noexcept
      : service_(&service) {}

  /// Joins an outstanding background rebuild (swallowing its error, if
  /// any — call wait() first to observe failures).
  ~SchemeManager();

  SchemeManager(const SchemeManager&) = delete;
  SchemeManager& operator=(const SchemeManager&) = delete;

  const RouteService& service() const noexcept { return *service_; }

  /// Rebuilds on the CALLING thread over \p g (taken by value — pass an
  /// rvalue to avoid the copy; service options with warm start dropped),
  /// records the rebuild time, publishes the swap, and returns the new
  /// generation. Blocks for the full preprocessing. The default mode
  /// pins the serving generation and rebuilds delta-aware against it.
  SchemePackagePtr rebuild_now(Graph g,
                               RebuildMode mode = RebuildMode::kIncremental);

  /// Launches rebuild_now(g, mode) on the background thread and returns
  /// immediately; the swap publishes the moment the build finishes, with
  /// batches flowing meanwhile. Joins any previous rebuild first (at most
  /// one in flight).
  void rebuild_async(Graph g, RebuildMode mode = RebuildMode::kIncremental);

  /// True while a background rebuild is running (its swap has not been
  /// published yet). Thread-safe.
  bool rebuild_in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// Joins the background rebuild if one is outstanding; rethrows its
  /// exception if it failed (the service still serves the old
  /// generation in that case).
  void wait();

 private:
  RouteService* service_;
  std::thread worker_;
  std::atomic<bool> in_flight_{false};
  std::exception_ptr error_;  ///< written by worker_, read after join
};

}  // namespace croute
