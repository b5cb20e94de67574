#include "service/workload.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "graph/dijkstra.hpp"
#include "util/parallel.hpp"

namespace croute {

const char* workload_name(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::kUniform: return "uniform";
    case WorkloadKind::kGravity: return "gravity";
    case WorkloadKind::kHotspot: return "hotspot";
    case WorkloadKind::kFarPairs: return "far-pairs";
  }
  return "?";
}

WorkloadKind parse_workload(const std::string& name) {
  if (name == "uniform") return WorkloadKind::kUniform;
  if (name == "gravity") return WorkloadKind::kGravity;
  if (name == "hotspot") return WorkloadKind::kHotspot;
  if (name == "far" || name == "far-pairs") return WorkloadKind::kFarPairs;
  throw std::invalid_argument("unknown workload: " + name +
                              " (want uniform|gravity|hotspot|far)");
}

std::string TrafficOptions::validate() const {
  if (hotspot_fraction < 0.0 || hotspot_fraction > 1.0) {
    return "hotspot_fraction must be in [0, 1]; got " +
           std::to_string(hotspot_fraction);
  }
  if (hotspots == 0 && hotspot_fraction > 0.0) {
    return "hotspots = 0 with hotspot_fraction > 0 leaves hot traffic "
           "with no destinations; set hotspots >= 1 or the fraction to 0";
  }
  if (far_tail <= 0.0 || far_tail > 1.0) {
    return "far_tail must be in (0, 1]; got " + std::to_string(far_tail);
  }
  if (far_roots == 0) {
    return "far_roots must be >= 1 (the far tail is harvested from "
           "Dijkstra runs)";
  }
  return "";
}

std::string DriverOptions::validate() const {
  if (batch_size == 0) {
    return "batch_size must be >= 1 (a closed loop with empty batches "
           "never drains)";
  }
  return "";
}

std::string ChurnOptions::validate() const {
  if (cycles == 0) {
    return "cycles must be >= 1 (a churn run with no rebuild cycles is "
           "run_closed_loop)";
  }
  return "";
}

namespace {

/// Draws sources either uniformly or from a bounded pool of distinct
/// frontends (TrafficOptions::source_pool).
class SourceSampler {
 public:
  SourceSampler(VertexId n, std::uint32_t pool, Rng& rng) {
    if (pool > 0 && pool < n) pool_ = rng.sample_without_replacement(n, pool);
    n_ = n;
  }
  VertexId draw(Rng& rng) const {
    if (pool_.empty()) return static_cast<VertexId>(rng.next_below(n_));
    return pool_[rng.next_below(pool_.size())];
  }

 private:
  VertexId n_ = 0;
  std::vector<VertexId> pool_;
};

/// Cumulative-degree sampler: P(v) ∝ degree(v) (gravity-model endpoint
/// mass). Binary search over the prefix-sum array.
class DegreeSampler {
 public:
  explicit DegreeSampler(const Graph& g) {
    cum_.reserve(g.num_vertices());
    std::uint64_t total = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      total += g.degree(v);
      cum_.push_back(total);
    }
  }
  VertexId draw(Rng& rng) const {
    const std::uint64_t x = rng.next_below(cum_.back());
    return static_cast<VertexId>(
        std::upper_bound(cum_.begin(), cum_.end(), x) - cum_.begin());
  }

 private:
  std::vector<std::uint64_t> cum_;
};

std::vector<RouteQuery> far_pair_traffic(const Graph& g, std::uint32_t count,
                                         Rng& rng,
                                         const TrafficOptions& options) {
  const VertexId n = g.num_vertices();
  const std::uint32_t roots = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(options.far_roots, n));
  // Deterministic parallel harvest: roots and per-root candidate picks are
  // fixed before dispatch; each root writes its own slot.
  const std::vector<std::uint32_t> root_ids =
      rng.sample_without_replacement(n, roots);
  std::vector<Rng> forks;
  forks.reserve(roots);
  for (std::uint32_t r = 0; r < roots; ++r) forks.push_back(rng.fork());

  const std::uint32_t per_root = (count + roots - 1) / roots;
  std::vector<std::vector<RouteQuery>> harvest(roots);
  parallel_for(roots, [&](std::uint64_t r) {
    const VertexId root = root_ids[r];
    const std::vector<Weight> dist = distances_from(g, root);
    // Sort vertices by distance and keep the far tail.
    std::vector<VertexId> order(n);
    for (VertexId v = 0; v < n; ++v) order[v] = v;
    std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      return dist[a] != dist[b] ? dist[a] < dist[b] : a < b;
    });
    const std::uint32_t tail = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               static_cast<double>(n) * std::min(1.0, options.far_tail)));
    Rng local = forks[r];
    auto& out = harvest[r];
    out.reserve(per_root);
    for (std::uint32_t q = 0; q < per_root; ++q) {
      const VertexId t = order[n - 1 - local.next_below(tail)];
      if (t == root) {
        out.push_back({root, order[n - 1], dist[order[n - 1]]});
      } else {
        out.push_back({root, t, dist[t]});
      }
    }
  });

  std::vector<RouteQuery> traffic;
  traffic.reserve(static_cast<std::size_t>(per_root) * roots);
  // Interleave root-by-root so truncation to `count` keeps root diversity.
  for (std::uint32_t q = 0; q < per_root; ++q) {
    for (std::uint32_t r = 0; r < roots && traffic.size() < count; ++r) {
      if (q < harvest[r].size()) traffic.push_back(harvest[r][q]);
    }
  }
  traffic.resize(std::min<std::size_t>(traffic.size(), count));
  return traffic;
}

}  // namespace

std::vector<RouteQuery> make_traffic(const Graph& g, WorkloadKind kind,
                                     std::uint32_t count, Rng& rng,
                                     const TrafficOptions& options) {
  const VertexId n = g.num_vertices();
  CROUTE_REQUIRE(n >= 2, "traffic needs >= 2 vertices");
  if (kind == WorkloadKind::kFarPairs)
    return far_pair_traffic(g, count, rng, options);

  std::vector<RouteQuery> traffic;
  traffic.reserve(count);
  const SourceSampler sources(n, options.source_pool, rng);

  switch (kind) {
    case WorkloadKind::kUniform: {
      while (traffic.size() < count) {
        const VertexId s = sources.draw(rng);
        const VertexId t = static_cast<VertexId>(rng.next_below(n));
        if (s != t) traffic.push_back({s, t, kUnknownDistance});
      }
      break;
    }
    case WorkloadKind::kGravity: {
      CROUTE_REQUIRE(g.num_edges() > 0, "gravity traffic needs edges");
      const DegreeSampler deg(g);
      while (traffic.size() < count) {
        const VertexId s =
            options.source_pool > 0 ? sources.draw(rng) : deg.draw(rng);
        const VertexId t = deg.draw(rng);
        if (s != t) traffic.push_back({s, t, kUnknownDistance});
      }
      break;
    }
    case WorkloadKind::kHotspot: {
      const std::uint32_t hot_count = std::max<std::uint32_t>(
          1, std::min<std::uint32_t>(options.hotspots, n));
      const std::vector<std::uint32_t> hot =
          rng.sample_without_replacement(n, hot_count);
      while (traffic.size() < count) {
        const VertexId s = sources.draw(rng);
        VertexId t;
        if (rng.next_double() < options.hotspot_fraction) {
          t = hot[rng.next_below(hot.size())];
        } else {
          t = static_cast<VertexId>(rng.next_below(n));
        }
        if (s != t) traffic.push_back({s, t, kUnknownDistance});
      }
      break;
    }
    case WorkloadKind::kFarPairs:
      break;  // handled above
  }
  return traffic;
}

void attach_exact_distances(const Graph& g, std::vector<RouteQuery>& queries) {
  // Group query indices by source; one Dijkstra per distinct source.
  // exact >= 0 is a KNOWN distance (0 is the true d(s,s) of a self-query,
  // not a sentinel) — only kUnknownDistance (< 0) queries are solved, so
  // repeated attach calls never re-run Dijkstra for already-known pairs.
  std::unordered_map<VertexId, std::vector<std::size_t>> by_source;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].exact < 0) by_source[queries[i].s].push_back(i);
  }
  std::vector<std::pair<VertexId, std::vector<std::size_t>>> groups(
      by_source.begin(), by_source.end());
  // Deterministic order for reproducible parallel slot writes.
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  parallel_for(groups.size(), [&](std::uint64_t gi) {
    const std::vector<Weight> dist = distances_from(g, groups[gi].first);
    for (const std::size_t i : groups[gi].second) {
      queries[i].exact = dist[queries[i].t];
    }
  });
}

namespace {

/// The shared closed-loop skeleton: batches drain one after the other;
/// \p before_batch runs on the driver thread ahead of batch \p index and
/// \p after_batch right after it drains, with the batch's wall seconds
/// (the churn scenario fires rebuild triggers in the former and collects
/// per-run swap-straddle telemetry in the latter; the plain loop passes
/// no-ops).
template <typename BeforeBatch, typename AfterBatch>
DriverReport closed_loop(RouteService& service,
                         const std::vector<RouteQuery>& traffic,
                         const DriverOptions& options,
                         BeforeBatch&& before_batch,
                         AfterBatch&& after_batch) {
  using clock = std::chrono::steady_clock;
  const std::uint32_t batch =
      std::max<std::uint32_t>(1, options.batch_size);

  DriverReport report;
  std::vector<double> latencies;
  latencies.reserve(traffic.size());
  std::vector<double> queue_waits;
  queue_waits.reserve(traffic.size());
  std::vector<double> stretches;
  std::uint64_t hops = 0;

  const auto start = clock::now();
  std::uint64_t batch_index = 0;
  for (std::size_t begin = 0; begin < traffic.size(); begin += batch) {
    before_batch(batch_index++);
    const std::size_t end = std::min(traffic.size(), begin + batch);
    const std::vector<RouteQuery> slice(traffic.begin() + begin,
                                        traffic.begin() + end);
    const auto batch_start = clock::now();
    const std::vector<RouteAnswer> answers = service.route_collect(slice);
    after_batch(
        std::chrono::duration<double>(clock::now() - batch_start).count());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const RouteAnswer& a = answers[i];
      ++report.queries;
      if (a.delivered()) ++report.delivered;
      hops += a.hops;
      latencies.push_back(a.latency_us);
      queue_waits.push_back(a.queue_wait_us);
      if (a.stretch > 0) stretches.push_back(a.stretch);
      if (a.header_bits > report.max_header_bits)
        report.max_header_bits = a.header_bits;
      if (options.verify_against_serial) {
        RouteAnswer ref = service.route_one(slice[i]);
        if (!same_route(a, ref)) ++report.mismatches;
      }
    }
    if (options.on_batch) options.on_batch(batch_index);
  }
  report.wall_seconds =
      std::chrono::duration<double>(clock::now() - start).count();
  report.qps = report.wall_seconds > 0
                   ? static_cast<double>(report.queries) / report.wall_seconds
                   : 0;
  report.mean_hops =
      report.queries > 0 ? static_cast<double>(hops) / report.queries : 0;
  std::sort(latencies.begin(), latencies.end());
  report.latency_p50_us = percentile_sorted(latencies, 50);
  report.latency_p95_us = percentile_sorted(latencies, 95);
  report.latency_p99_us = percentile_sorted(latencies, 99);
  std::sort(queue_waits.begin(), queue_waits.end());
  report.queue_wait_p50_us = percentile_sorted(queue_waits, 50);
  report.queue_wait_p95_us = percentile_sorted(queue_waits, 95);
  report.queue_wait_p99_us = percentile_sorted(queue_waits, 99);
  report.stretch = summarize(std::move(stretches));
  return report;
}

}  // namespace

DriverReport run_closed_loop(RouteService& service,
                             const std::vector<RouteQuery>& traffic,
                             const DriverOptions& options) {
  return closed_loop(service, traffic, options, [](std::uint64_t) {},
                     [](double) {});
}

ChurnReport run_closed_loop_churn(RouteService& service, SchemeManager& manager,
                                  const std::vector<RouteQuery>& traffic,
                                  const DriverOptions& options,
                                  const ChurnOptions& churn) {
  CROUTE_REQUIRE(!options.verify_against_serial,
                 "verify_against_serial is meaningless under churn: "
                 "route_one pins the current generation, a straddling "
                 "batch pins the previous one");
  const std::uint32_t batch =
      std::max<std::uint32_t>(1, options.batch_size);
  const std::uint64_t total_batches =
      (traffic.size() + batch - 1) / batch;

  // Exact distances were computed against the pre-churn topology; strip
  // them so no stale stretch is reported (see kUnknownDistance).
  std::vector<RouteQuery> stream = traffic;
  for (RouteQuery& q : stream) q.exact = kUnknownDistance;

  const ServiceTelemetry before = service.snapshot();
  Graph current = service.graph();  // value copy: generations own graphs
  Rng rng(churn.seed);
  std::uint32_t fired = 0;

  // Per-RUN swap-straddle accounting, measured by the driver around its
  // own route() calls (the service-side max_swap_blackout_us is a
  // service-lifetime high-water mark; a report must not attribute an
  // earlier run's blackout to this one). The driver's observation window
  // encloses the service's, so this count is conservative (>=).
  using churn_clock = std::chrono::steady_clock;
  std::uint64_t last_seq = service.swap_count();
  std::uint64_t run_straddled = 0;
  double run_blackout_us = 0;
  auto note_batch = [&](double wall_seconds) {
    const std::uint64_t seq = service.swap_count();
    if (seq != last_seq) {
      last_seq = seq;
      ++run_straddled;
      run_blackout_us = std::max(run_blackout_us, wall_seconds * 1e6);
      // The driver-observed blackout, on the same timeline as the
      // rebuild spans SchemeManager records: the straddling batch's
      // whole wall time, ending now.
      if (obs::TraceRecorder* trace = service.trace_recorder()) {
        trace->record_complete("blackout", "swap",
                               trace->now_us() - wall_seconds * 1e6,
                               wall_seconds * 1e6);
      }
    }
  };

  // Trigger cycle c ahead of batch floor(total * c / (cycles + 1)) — the
  // rebuilds overlap the middle of the stream, not its edges. A trigger
  // that finds the previous rebuild still in flight slides to the next
  // batch boundary (rebuild_async would otherwise block the loop).
  const RebuildMode mode =
      churn.full_rebuild ? RebuildMode::kFull : RebuildMode::kIncremental;
  auto fire_next = [&]() {
    current = perturb_graph(current, rng, churn.delta);
    manager.rebuild_async(current, mode);
    ++fired;
  };
  ChurnReport report;
  report.driver = closed_loop(
      service, stream, options,
      [&](std::uint64_t batch_index) {
        if (fired >= churn.cycles || manager.rebuild_in_flight()) return;
        const std::uint64_t due =
            total_batches * (fired + 1) / (churn.cycles + 1);
        if (batch_index >= due) fire_next();
      },
      note_batch);

  // Cycles the stream was too short to fire (or whose trigger kept
  // sliding): force them now, and keep batches flowing WHILE each forced
  // rebuild runs — the publish lands under live traffic, so straddling
  // batches (the blackout measurement) are observed even when one
  // rebuild outlasts the whole query stream, which is the common shape
  // (preprocessing is seconds, draining a stream is milliseconds).
  const std::vector<RouteQuery> tail(
      stream.begin(),
      stream.begin() + std::min<std::size_t>(stream.size(), batch));
  std::uint64_t tail_batches = (traffic.size() + batch - 1) / batch;
  auto timed_tail_batch = [&]() {
    const auto t0 = churn_clock::now();
    service.route_collect(tail);
    note_batch(
        std::chrono::duration<double>(churn_clock::now() - t0).count());
    if (options.on_batch) options.on_batch(++tail_batches);
  };
  while (fired < churn.cycles) {
    manager.wait();
    fire_next();
    while (manager.rebuild_in_flight()) timed_tail_batch();
    manager.wait();
    timed_tail_batch();  // observe the new generation under load
  }
  manager.wait();
  timed_tail_batch();  // observe the final generation under load

  const ServiceTelemetry after = service.snapshot();
  report.swaps = after.swaps - before.swaps;
  report.straddled_batches = run_straddled;
  report.max_blackout_us = run_blackout_us;
  report.rebuild_seconds = after.rebuild_seconds - before.rebuild_seconds;
  report.flat_compile_seconds =
      after.flat_compile_seconds - before.flat_compile_seconds;
  report.incremental_rebuilds =
      after.incremental_rebuilds - before.incremental_rebuilds;
  report.clusters_reused = after.clusters_reused - before.clusters_reused;
  report.clusters_total = after.clusters_total - before.clusters_total;
  report.incremental_preprocess_seconds =
      after.incremental_preprocess_seconds -
      before.incremental_preprocess_seconds;
  report.final_graph = std::move(current);
  return report;
}

}  // namespace croute
