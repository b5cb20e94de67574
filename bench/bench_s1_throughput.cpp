/// \file bench_s1_throughput.cpp
/// \brief Experiment S1 — serving throughput of the sharded route service.
///
/// Claim: route-query handling over an immutable compact-routing scheme is
/// embarrassingly parallel — the service scales near-linearly with worker
/// threads while producing byte-identical answers at every thread count
/// (the dynamic shard schedule affects only *when* a query runs, never its
/// result). We serve the same traffic at 1, 2, 4, ... threads, report
/// throughput, latency percentiles and stretch, and cross-check every
/// run's answers against the sim/ reference: the same scheme preprocessed
/// from the same seeds and walked hop by hop by the Simulator.
///
/// Churn mode (--churn=C, default 3; 0 disables): after the static runs,
/// the same traffic is replayed per thread count while a SchemeManager
/// rebuilds the scheme in the background over C successively perturbed
/// topologies and hot-swaps each finished generation under the live batch
/// stream. Each thread count runs TWICE — once on the default delta-aware
/// incremental rebuild path and once with the full-rebuild escape hatch —
/// so the `churn_runs` rows directly attribute rebuild seconds between
/// the two on identical deltas. Reported per run: qps under swap, latency
/// percentiles, swap count, summed rebuild seconds with the
/// flat-compile / TZ-preprocess split, the SPT reuse ratio, and the swap
/// *blackout* — the worst wall time of one batch that straddled a
/// generation flip.
///
/// The churn delta defaults model *localized link churn* (a few dozen
/// link events per cycle — the regime where reusing untouched SPT
/// subtrees pays); --churn-reweight/--churn-remove/--churn-add set the
/// per-cycle edge fractions explicitly (pass PR-4's 0.3/0.05/0.05 for
/// the old full-re-metric regime).
///
/// Flags: --n --family --scheme --workload --queries --batch --k --seed
///        --threads (comma list) --json out.json
///        --batch-group=G (pipeline depth of batched serving: a power of
///        two, 1–4096; default 16)
///        --churn=C --churn-seed=S
///        --churn-reweight=F --churn-remove=F --churn-add=F
///        --sampling=centered|bernoulli (landmark sampler; bernoulli's
///        graph-independent hierarchy roughly doubles churn SPT reuse)
///
/// Persist mode (always on): after the serving rows, one artifact
/// publish + recover cycle prices the crash-safe persistence tier —
/// artifact size, encode/write seconds, and the service start from disk
/// versus a fresh preprocessing+compile build (the `persist_*` keys in
/// the JSON), with the recovered service checked answer-identical.
///
/// Note: the speedup column reflects the machine's core count; on a
/// single-core host every thread count serves at the same rate.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/sim_reference.hpp"
#include "bench_common.hpp"
#include "obs/export.hpp"
#include "service/cli.hpp"
#include "persist/artifact_store.hpp"
#include "service/hot_swap.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/flags.hpp"

namespace {

using namespace croute;

std::vector<unsigned> parse_thread_list(const std::string& spec) {
  std::vector<unsigned> threads;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const long v = std::strtol(item.c_str(), nullptr, 10);
    if (v > 0) threads.push_back(static_cast<unsigned>(v));
  }
  if (threads.empty()) threads = {1, 2, 4};
  return threads;
}

/// The sim/ reference answers for \p traffic under \p opt, path-less
/// (the runs don't record paths), so every run compares with same_route.
std::vector<RouteAnswer> sim_reference(const Graph& g,
                                       const RouteServiceOptions& opt,
                                       const std::vector<RouteQuery>& traffic) {
  const SimReference ref(g, opt, /*record_path=*/false);
  return ref.serve(traffic).answers;
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  // Shared serving flags (graph, scheme, traffic, driver) parse through
  // the one helper every serving binary uses; the bench keeps only its
  // sweep-specific knobs (thread list, churn shape, JSON path).
  ServiceSetup setup = parse_service_setup(flags);
  if (!flags.has("queries")) setup.queries = 50000;  // bench-sized default
  setup.exact = true;  // stretch columns need true distances
  const VertexId n = setup.n;
  const std::string family = flags.get_string("family", "er");
  const SchemeKind scheme = setup.service.scheme;
  const WorkloadKind workload = setup.workload;
  const std::uint32_t queries = setup.queries;
  const std::uint32_t batch = setup.driver.batch_size;
  const std::uint64_t seed = setup.seed;
  const std::vector<unsigned> thread_counts =
      parse_thread_list(flags.get_string("threads", "1,2,4"));
  const std::uint32_t batch_group = setup.service.batch_group;
  const SamplingMode sampling = setup.service.sampling;
  const std::string json_path = flags.get_string("json", "");

  bench::banner(
      "S1",
      "sharded serving scales with threads; answers are thread-count-"
      "invariant",
      ("family=" + family + " n=" + std::to_string(n) +
       " scheme=" + scheme_name(scheme) + " traffic=" +
       workload_name(workload) + " queries=" + std::to_string(queries))
          .c_str());

  const Graph g = setup.build_graph();
  // Source pool bounds the Dijkstra count of exact-stretch accounting
  // (helper default 64); exact distances attach because setup.exact.
  std::vector<RouteQuery> traffic = setup.build_traffic(g);

  std::printf("%8s %8s %12s %9s %10s %10s %10s %8s %6s\n", "path", "threads",
              "qps", "speedup", "p50_us", "p95_us", "p99_us", "stretch",
              "ok");
  bench::JsonReport report;
  report.set("experiment", std::string("s1_throughput"))
      .set("family", family)
      .set("n", std::uint64_t{n})
      .set("scheme", std::string(scheme_name(scheme)))
      .set("workload", std::string(workload_name(workload)))
      .set("queries", std::uint64_t{queries})
      .set("seed", seed)
      .set("batch_group", std::uint64_t{batch_group})
      .set("sampling", std::string(sampling_name(sampling)));
  bench::add_host_metadata(report);

  // Identity is checked over status/length/hops/header_bits/stretch —
  // paths are off here (recording them would tax the timed runs);
  // path-level equivalence to sim/ is test_flat_scheme's job.
  const std::vector<RouteAnswer> reference =
      sim_reference(g, setup.service, traffic);
  double qps_base = 0;  // first run (fewest threads)
  bool all_identical = true;
  for (const unsigned t : thread_counts) {
    RouteServiceOptions opt = setup.service;
    opt.threads = t;
    bench::Stopwatch preprocess_watch;
    RouteService service(g, opt);
    const double preprocess_s = preprocess_watch.seconds();

    // Warm one batch (first-touch, pool spin-up), then measure.
    const std::vector<RouteQuery> warm(
        traffic.begin(),
        traffic.begin() + std::min<std::size_t>(traffic.size(), batch));
    service.route_collect(warm);

    DriverOptions dopt;
    dopt.batch_size = batch;
    // Interval metrics over exactly the measured loop (metrics are on
    // by default — the qps rows price the observability layer): the
    // delta of two registry snapshots isolates this run's samples.
    const obs::MetricsSnapshot snap_before =
        obs::snapshot_metrics(*service.metrics_registry());
    const DriverReport r = run_closed_loop(service, traffic, dopt);
    const obs::MetricsSnapshot snap_delta = obs::metrics_delta(
        obs::snapshot_metrics(*service.metrics_registry()), snap_before);
    const auto* hist = snap_delta.find_histogram("croute_query_latency_us");

    // Every run, at any thread count, must serve the sim/ reference's
    // answers.
    const std::vector<RouteAnswer> answers = service.route_collect(traffic);
    bool identical = answers.size() == reference.size();
    for (std::size_t i = 0; identical && i < reference.size(); ++i) {
      identical = same_route(reference[i], answers[i]);
    }
    all_identical = all_identical && identical;

    if (qps_base == 0) qps_base = r.qps;
    const double speedup = qps_base > 0 ? r.qps / qps_base : 0;
    std::printf("%8s %8u %12.0f %8.2fx %10.2f %10.2f %10.2f %8.3f %6s\n",
                "flat", t, r.qps, speedup, r.latency_p50_us,
                r.latency_p95_us, r.latency_p99_us, r.stretch.mean,
                identical ? "yes" : "NO");

    // Batched latency is each query's amortized share of its pipeline
    // generation; the marker keeps older per-query rows in the trajectory
    // files from being read as the same metric.
    report.add_row("runs")
        .set("path", std::string("flat"))
        .set("threads", std::uint64_t{t})
        .set("qps", r.qps)
        .set("speedup", speedup)
        .set("latency_metric", std::string("group_amortized"))
        .set("p50_us", r.latency_p50_us)
        .set("p95_us", r.latency_p95_us)
        .set("p99_us", r.latency_p99_us)
        // The histogram-derived percentiles (log buckets, <= 1.25x
        // relative error) next to the exact sorted-sample ones above —
        // what a scraper would report vs what the driver measured.
        .set("hist_p50_us", hist != nullptr ? hist->hist.percentile(50) : 0)
        .set("hist_p95_us", hist != nullptr ? hist->hist.percentile(95) : 0)
        .set("hist_p99_us", hist != nullptr ? hist->hist.percentile(99) : 0)
        .set("queue_wait_p99_us", r.queue_wait_p99_us)
        .set("mean_stretch", r.stretch.mean)
        .set("max_stretch", r.stretch.max)
        .set("mean_hops", r.mean_hops)
        .set("preprocess_s", preprocess_s)
        .set("delivered", r.delivered)
        .set("identical", std::string(identical ? "yes" : "no"));
  }

  std::printf("answers identical to the sim/ reference at every thread "
              "count: %s\n",
              all_identical ? "yes" : "NO");
  report.set("identical_across_runs",
             std::string(all_identical ? "yes" : "no"));

  // --- churn mode: qps under background rebuild + hot swap ---------------
  const auto churn_cycles =
      static_cast<std::uint32_t>(flags.get_int("churn", 3));
  bool churn_ok = true;
  if (churn_cycles > 0) {
    const auto churn_seed =
        static_cast<std::uint64_t>(flags.get_int("churn-seed", seed + 3));
    // Localized link churn by default: ~20 link events per cycle at the
    // committed n=10k/m=40k instance (tens of flaps among tens of
    // thousands of links — the BGP-churn regime the delta-aware rebuild
    // targets). PR 4's full-re-metric regime is reproducible with
    // --churn-reweight=0.3 --churn-remove=0.05 --churn-add=0.05.
    DeltaOptions delta;
    delta.reweight_fraction = flags.get_double("churn-reweight", 2.5e-4);
    delta.remove_fraction = flags.get_double("churn-remove", 1.25e-4);
    delta.add_fraction = flags.get_double("churn-add", 1.25e-4);
    report.set("churn_cycles", std::uint64_t{churn_cycles});
    report.set("churn_reweight_fraction", delta.reweight_fraction);
    report.set("churn_remove_fraction", delta.remove_fraction);
    report.set("churn_add_fraction", delta.add_fraction);
    std::printf("\nchurn mode: %u background rebuild+swap cycles per run "
                "(flat path), incremental vs full rebuild\n",
                churn_cycles);
    std::printf("%8s %12s %12s %10s %8s %12s %12s %8s %8s\n", "threads",
                "rebuild", "qps", "p99_us", "swaps", "blackout_us",
                "rebuild_s", "reuse", "ok");
    for (const unsigned t : thread_counts) {
      for (const bool full_rebuild : {true, false}) {
        RouteServiceOptions opt = setup.service;
        opt.threads = t;
        RouteService service(g, opt);
        SchemeManager manager(service);
        service.route_collect(std::vector<RouteQuery>(
            traffic.begin(),
            traffic.begin() + std::min<std::size_t>(traffic.size(), batch)));

        DriverOptions dopt;
        dopt.batch_size = batch;
        ChurnOptions copt;
        copt.cycles = churn_cycles;
        copt.seed = churn_seed;  // same seed: both modes see identical deltas
        copt.delta = delta;
        copt.full_rebuild = full_rebuild;
        const ChurnReport r =
            run_closed_loop_churn(service, manager, traffic, dopt, copt);

        // The settled service must serve the final topology byte-equally
        // to a fresh build on it (the hot-swap determinism contract).
        RouteService fresh(r.final_graph, opt);
        const std::vector<RouteQuery> probe(
            traffic.begin(),
            traffic.begin() + std::min<std::size_t>(traffic.size(), batch));
        std::vector<RouteQuery> probe_unknown = probe;
        for (RouteQuery& q : probe_unknown) q.exact = kUnknownDistance;
        const std::vector<RouteAnswer> a = service.route_collect(probe_unknown);
        const std::vector<RouteAnswer> b = fresh.route_collect(probe_unknown);
        bool identical = a.size() == b.size();
        for (std::size_t i = 0; identical && i < a.size(); ++i) {
          identical = same_route(a[i], b[i]);
        }
        churn_ok = churn_ok && identical && r.swaps == churn_cycles;

        const char* rebuild_name = full_rebuild ? "full" : "incremental";
        std::printf(
            "%8u %12s %12.0f %10.2f %8llu %12.1f %12.3f %7.1f%% %8s\n", t,
            rebuild_name, r.driver.qps, r.driver.latency_p99_us,
            static_cast<unsigned long long>(r.swaps), r.max_blackout_us,
            r.rebuild_seconds, 100 * r.reuse_ratio(),
            identical ? "yes" : "NO");
        report.add_row("churn_runs")
            .set("threads", std::uint64_t{t})
            .set("rebuild", std::string(rebuild_name))
            .set("qps", r.driver.qps)
            .set("latency_metric", std::string("group_amortized"))
            .set("p50_us", r.driver.latency_p50_us)
            .set("p95_us", r.driver.latency_p95_us)
            .set("p99_us", r.driver.latency_p99_us)
            .set("queue_wait_p99_us", r.driver.queue_wait_p99_us)
            .set("swaps", r.swaps)
            .set("straddled_batches", r.straddled_batches)
            .set("blackout_us", r.max_blackout_us)
            .set("rebuild_s", r.rebuild_seconds)
            .set("flat_compile_s", r.flat_compile_seconds)
            .set("tz_incremental_s", r.incremental_preprocess_seconds)
            .set("incremental_rebuilds", r.incremental_rebuilds)
            .set("reuse_ratio", r.reuse_ratio())
            .set("clusters_reused", r.clusters_reused)
            .set("clusters_total", r.clusters_total)
            .set("final_identical", std::string(identical ? "yes" : "no"));
      }
    }
    std::printf("churn runs settled identical to fresh builds: %s\n",
                churn_ok ? "yes" : "NO");
    report.set("churn_identical", std::string(churn_ok ? "yes" : "no"));
  }
  all_identical = all_identical && churn_ok;

  // --- persist mode: artifact publish + recover-from-disk start ----------
  // What the crash-safe artifact tier buys on this instance: a service
  // start that reads + verifies + decodes the published artifact instead
  // of rerunning TZ preprocessing and the flat compile. The recovered
  // service must answer byte-identically to the fresh one it was encoded
  // from.
  {
    const std::string dir = "/tmp/croute_bench_s1_artifacts";
    std::filesystem::remove_all(dir);
    RouteServiceOptions opt = setup.service;
    opt.threads = 1;

    bench::Stopwatch fresh_watch;
    RouteService fresh_svc(g, opt);
    const double fresh_build_s = fresh_watch.seconds();

    persist::ArtifactStore store({dir, 2});
    const persist::PublishResult pub =
        store.publish_generation(*fresh_svc.package());
    if (!pub.ok) {
      std::fprintf(stderr, "persist publish failed: %s\n", pub.error.c_str());
      all_identical = false;
    } else {
      opt.persist.dir = dir;
      bench::Stopwatch recover_watch;
      RouteService recovered_svc(g, opt);
      const double publish_from_disk_s = recover_watch.seconds();

      std::vector<RouteQuery> probe(
          traffic.begin(),
          traffic.begin() + std::min<std::size_t>(traffic.size(), batch));
      for (RouteQuery& q : probe) q.exact = kUnknownDistance;
      const std::vector<RouteAnswer> a = fresh_svc.route_collect(probe);
      const std::vector<RouteAnswer> b = recovered_svc.route_collect(probe);
      bool identical = recovered_svc.recovered_from_artifact() &&
                       a.size() == b.size();
      for (std::size_t i = 0; identical && i < a.size(); ++i) {
        identical = same_route(a[i], b[i]);
      }
      all_identical = all_identical && identical;

      std::printf("\npersist: artifact %.1f MiB, encode %.3fs, write %.3fs; "
                  "start from disk %.3fs vs fresh build %.3fs (%.1fx); "
                  "identical %s\n",
                  static_cast<double>(pub.bytes) / (1024.0 * 1024.0),
                  pub.encode_s, pub.write_s, publish_from_disk_s,
                  fresh_build_s,
                  publish_from_disk_s > 0 ? fresh_build_s / publish_from_disk_s
                                          : 0,
                  identical ? "yes" : "NO");
      report.set("persist_artifact_bytes", pub.bytes)
          .set("persist_encode_s", pub.encode_s)
          .set("persist_write_s", pub.write_s)
          .set("persist_publish_from_disk_s", publish_from_disk_s)
          .set("persist_fresh_build_s", fresh_build_s)
          .set("persist_speedup_vs_fresh",
               publish_from_disk_s > 0 ? fresh_build_s / publish_from_disk_s
                                       : 0)
          .set("persist_identical", std::string(identical ? "yes" : "no"));
    }
    std::filesystem::remove_all(dir);
  }

  if (!json_path.empty()) {
    report.write(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
