/// \file main.cpp
/// \brief perfbench: the repository benchmark (see ../README.md).
///
///   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
///             [--work-dir DIR] [--tiny] [--ref-seed-offset K]
///
/// Runs one named workload (or every one, in this process) with traffic
/// generated from --seed, measures for about --seconds, checks every
/// answer it can against a reference, and prints the metrics by name
/// with their units. The last stdout line is one JSON object:
/// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics
/// with --trace 0, per-layer metrics with --trace 1. Exit status is 0
/// only when every check passed.
///
/// --tiny shrinks every instance for the self-test; --ref-seed-offset
/// builds the correctness reference from a different scheme seed (the
/// negative control: the run must then fail).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <sys/resource.h>
#include <unistd.h>

#include "drivers.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "persist/artifact.hpp"
#include "simd/simd.hpp"

namespace perfbench {
namespace {

/// In-flight frames per connection in the wire closed loop.
constexpr std::uint32_t kWireInflight = 16;
/// Tolerance of the traced sum check: dispatch + engine parts against
/// the bench-timed route() of the closed loop, per query.
constexpr double kSumTolerance = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::uint64_t ref_seed_offset = 0;
  std::string work_dir = ".bench_build/perfbench-work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value());
    } else if (key == "--seconds") {
      a.seconds = std::stod(value());
    } else if (key == "--trace") {
      a.trace = value() != "0";
    } else if (key == "--work-dir") {
      a.work_dir = value();
    } else if (key == "--tiny") {
      a.tiny = true;
    } else if (key == "--ref-seed-offset") {
      a.ref_seed_offset = std::stoull(value());
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  std::vector<Metric> metrics;  ///< in print order
  Accounting acct;
  std::string stamp;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::uint64_t counter_of(const croute::obs::MetricsSnapshot& s,
                         const char* name) {
  const auto* c = s.find_counter(name);
  return c != nullptr ? c->value : 0;
}

double hist_pct(const croute::obs::MetricsSnapshot& s, const char* name,
                double q) {
  const auto* h = s.find_histogram(name);
  return h != nullptr ? h->hist.percentile(q) : 0;
}

/// Runs NetServer::run on its own thread; stops and joins on every exit
/// path.
class ServerThread {
 public:
  explicit ServerThread(croute::net::NetServer& s)
      : server_(s), thread_([&s] { s.run(); }) {}
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;
  void stop() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }

 private:
  croute::net::NetServer& server_;
  std::thread thread_;
};

/// Fetches every distinct destination's label over the wire and points
/// the traffic's wire queries and requests at them.
void fetch_labels(croute::net::NetClient& client, Traffic& traffic) {
  std::map<VertexId, std::size_t> index;
  std::vector<VertexId> distinct;
  for (const RouteQuery& q : traffic.queries) {
    if (index.emplace(q.t, distinct.size()).second) distinct.push_back(q.t);
  }
  constexpr std::size_t kChunk = 256;  // LABEL_RESP stays under 64 KiB
  traffic.labels.clear();
  for (std::size_t i = 0; i < distinct.size(); i += kChunk) {
    const std::size_t len = std::min(kChunk, distinct.size() - i);
    std::vector<croute::net::OwnedLabel> got = client.fetch_labels(
        std::span<const VertexId>(distinct.data() + i, len));
    if (got.size() != len) {
      throw std::runtime_error("perfbench: short LABEL_RESP");
    }
    for (auto& l : got) traffic.labels.push_back(std::move(l));
  }
  traffic.wire.clear();
  for (std::size_t i = 0; i < traffic.queries.size(); ++i) {
    const RouteQuery& q = traffic.queries[i];
    const croute::net::OwnedLabel& l = traffic.labels[index[q.t]];
    traffic.wire.push_back({q.s, croute::kNoVertex, l.bytes, l.bits});
    RouteRequest& r = traffic.requests[i];
    r.t = croute::kNoVertex;
    r.label = l.bytes;
    r.label_bits = l.bits;
  }
}

std::string instance_stamp(const WorkloadSpec& spec, const Args& args,
                           const Instance& inst, const RouteService& svc) {
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\":\"%s\",\"seed\":%llu,\"instance_seed\":%llu,"
      "\"family\":\"er\",\"n\":%u,\"m\":%llu,\"scheme\":\"%s\",\"k\":%u,"
      "\"traffic\":\"%s\",\"graph_fingerprint\":\"%s\","
      "\"content_options_digest\":\"%s\",\"threads\":{\"driver\":1,"
      "\"service_workers\":%u,\"server\":%d,\"rebuild\":%d,"
      "\"setup_compile\":%u},\"host_cores\":%u,\"simd_isa\":\"%s\","
      "\"compiler\":\"%s\",\"build_flags\":\"%s\",\"seconds\":%.3f,"
      "\"trace\":%d}",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(spec.instance_seed),
      inst.graph.num_vertices(),
      static_cast<unsigned long long>(inst.graph.num_edges()),
      croute::scheme_name(spec.scheme), spec.k,
      croute::workload_name(spec.traffic),
      hex(inst.graph_fingerprint).c_str(), hex(inst.options_digest).c_str(),
      svc.threads(), spec.wire ? 1 : 0, spec.churn ? 1 : 0,
      spec.compile_threads == 0 ? std::thread::hardware_concurrency()
                                : spec.compile_threads,
      std::thread::hardware_concurrency(), croute::simd::ops().name,
      compiler().c_str(), PERFBENCH_BUILD_FLAGS, args.seconds,
      args.trace ? 1 : 0);
  return buf;
}

/// What the measured phases observed.
struct Phases {
  ClosedResult closed;  ///< route() closed loop (every workload)
  PointResult serve;    ///< wire closed loop (wire workloads)
  PointResult nominal;  ///< open loop at the nominal rate (traced runs)
  PointResult traced;   ///< the same with spans on (traced runs)
  croute::obs::MetricsSnapshot nominal_delta;
  croute::obs::MetricsSnapshot wire_delta;
  croute::ServiceTelemetry tel0, tel1;  ///< around the nominal window
  double max_qps = 0;
  std::uint32_t probes = 0;
  std::uint64_t unanswered_frames = 0;
};

/// The measured phases. Untraced runs measure only what the end-to-end
/// metrics need (closed loops); traced runs add the open-loop nominal
/// window (untraced, then traced) and the SLO ladder.
Phases run_phases(const WorkloadSpec& spec, const Args& args,
                  SetupResult& setup, Instance& inst, SpanLog& spans,
                  ChurnThread* churn, Accounting& acct) {
  Phases ph;
  RouteService& svc = *setup.service;
  const croute::obs::MetricRegistry& reg = *svc.metrics_registry();
  const double S = args.seconds;
  const bool check = !spec.churn;  // generations change under churn
  const double closed_s = args.trace ? 0.2 * S : (spec.wire ? 0.4 : 1.0) * S;
  const double serve_s = args.trace ? 0.2 * S : 0.6 * S;
  const double nominal_s = 0.2 * S;
  const double probe_s = std::max(0.25, 0.2 * S / 8);
  SpanLog off(false);

  const auto nominal_window = [&](auto&& run) {
    const auto before = croute::obs::snapshot_metrics(reg);
    ph.tel0 = svc.snapshot();
    ph.nominal = run(off);
    ph.tel1 = svc.snapshot();
    ph.nominal_delta = croute::obs::metrics_delta(
        croute::obs::snapshot_metrics(reg), before);
    ph.traced = run(spans);
  };

  if (spec.wire) {
    const auto wire0 = croute::obs::snapshot_metrics(reg);
    {
      ServerThread server(*setup.server);
      std::vector<croute::net::NetClient> conns(2);
      for (auto& c : conns) c.connect("127.0.0.1", setup.server->port());
      if (spec.labels) {
        fetch_labels(conns[0], inst.traffic);
      } else {
        for (const RouteQuery& q : inst.traffic.queries) {
          inst.traffic.wire.push_back({q.s, q.t, {}, 0});
        }
      }
      // Warm-up: first-touch page faults and socket buffers.
      acct.merge(run_closed_wire(conns, inst.traffic, spec.labels,
                                 kWireInflight, 0.2)
                     .acct);
      ph.serve = run_closed_wire(conns, inst.traffic, spec.labels,
                                 kWireInflight, serve_s);
      ph.unanswered_frames += ph.serve.unanswered_frames;
      if (args.trace) {
        nominal_window([&](SpanLog& log) {
          drain_wire(conns, 20, 2000);
          PointResult p = run_open_wire(conns, inst.traffic, spec.labels,
                                        spec.nominal_qps, nominal_s, log);
          ph.unanswered_frames += p.unanswered_frames;
          return p;
        });
        ph.max_qps = ladder_search(
            spec,
            [&](double rate) {
              drain_wire(conns, 20, 2000);
              PointResult p = run_open_wire(conns, inst.traffic, spec.labels,
                                            rate, probe_s, off);
              ph.unanswered_frames += p.unanswered_frames;
              // Overload is an SLO miss, not a wrong answer.
              acct.mismatched += p.acct.mismatched;
              return p;
            },
            &ph.probes);
      }
      server.stop();
    }
    ph.wire_delta = croute::obs::metrics_delta(
        croute::obs::snapshot_metrics(reg), wire0);
  }

  std::function<std::uint64_t()> background_cpu;
  if (churn != nullptr) background_cpu = [churn] { return churn->cpu_ns(); };
  run_closed_loop(svc, inst.traffic, 0.2, check, off);  // warm-up
  ph.closed = run_closed_loop(svc, inst.traffic, closed_s, check, off,
                              background_cpu);
  if (args.trace && !spec.wire) {
    nominal_window([&](SpanLog& log) {
      return run_open_inproc(svc, inst.traffic, spec.nominal_qps, nominal_s,
                             check, log);
    });
    ph.max_qps = ladder_search(
        spec,
        [&](double rate) {
          PointResult p = run_open_inproc(svc, inst.traffic, rate, probe_s,
                                          check, off);
          acct.mismatched += p.acct.mismatched;
          return p;
        },
        &ph.probes);
  }
  acct.merge(ph.closed.acct);
  acct.merge(ph.serve.acct);
  acct.merge(ph.nominal.acct);
  acct.merge(ph.traced.acct);
  return ph;
}

/// Churn end state: the final generation must be byte-identical to a
/// fresh build of the final graph (the negative control builds that
/// reference with a shifted scheme seed).
void check_final_generation(const RouteService& svc, const Graph& final_graph,
                            const Instance& inst, const Args& args,
                            Accounting& acct) {
  RouteServiceOptions ref_opt = inst.options;
  ref_opt.seed += args.ref_seed_offset;
  const croute::SchemePackagePtr fresh = croute::build_scheme_package(
      std::make_shared<const Graph>(final_graph), ref_opt);
  ++acct.attempted;
  if (croute::persist::encode_package(*svc.package(), 0) !=
      croute::persist::encode_package(*fresh, 0)) {
    ++acct.mismatched;
    std::printf("check: final generation differs from a fresh build\n");
  }
}

RunOutput run_workload(const WorkloadSpec& spec, const Args& args) {
  RunOutput out;
  Accounting& acct = out.acct;
  const double S = args.seconds;
  const std::string tag = spec.name + "-seed" + std::to_string(args.seed);
  std::filesystem::create_directories(args.work_dir);
  const std::string store_dir = args.work_dir + "/store-" + tag + "-" +
                                std::to_string(::getpid());

  std::printf("== %s (seed %llu, %.1fs, trace %d)\n", spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), S,
              args.trace ? 1 : 0);
  Instance inst = build_instance(spec, args.seed);
  SetupResult setup = measure_setup(spec, inst);
  RouteService& svc = *setup.service;
  build_reference(inst, svc, args.ref_seed_offset, acct);
  const Quality quality = measure_quality(svc, inst.stretch_sample,
                                          stretch_bound(spec), acct);
  out.stamp = instance_stamp(spec, args, inst, svc);
  std::printf("instance: %s\n", out.stamp.c_str());

  SpanLog spans(args.trace);
  std::unique_ptr<ChurnThread> churn;
  if (spec.churn) {
    // Cycles spread over the measured phases.
    const double span_s = (args.trace ? 0.6 : 1.0) * S;
    churn = std::make_unique<ChurnThread>(svc, inst, args.seed,
                                          spec.churn_cycles,
                                          span_s / spec.churn_cycles,
                                          store_dir, args.trace);
  }
  const Phases ph =
      run_phases(spec, args, setup, inst, spans, churn.get(), acct);

  std::vector<ChurnCycle> cycles;
  PersistResult persisted;
  if (churn) {
    churn->join();
    cycles = churn->cycles();
    spans.append(churn->spans());
    check_final_generation(svc, churn->final_graph(), inst, args, acct);
    Instance final_inst;
    final_inst.graph = churn->final_graph();
    final_inst.options = inst.options;
    final_inst.traffic.requests = inst.traffic.requests;
    persisted = measure_persist(store_dir, churn->last_artifact(), svc,
                                final_inst, false, spec.recover_reps, acct);
  } else {
    persisted = measure_persist(store_dir, "", svc, inst, true,
                                spec.recover_reps, acct);
  }
  std::filesystem::remove_all(store_dir);

  const auto add = [&](const std::string& name, double v,
                       const std::string& unit) {
    out.metrics.push_back({name, v, unit});
  };
  const croute::ServiceTelemetry tel = svc.snapshot();
  const ClosedResult& closed = ph.closed;
  // The serving path at saturation: the socket on wire workloads; in
  // process the serving path is route() itself, so serve_* restate the
  // route() closed loop there.
  const bool wire = spec.wire;
  if (!args.trace) {
    add("setup_s", median(setup.setup_s), "s");
    add("recover_s", median(persisted.recover_s), "s");
    add("route_cpu_ns", closed.cpu_ns_per_query(), "ns");
    add("serve_cpu_ns",
        wire ? ph.serve.service_cpu_ns_per_query : closed.cpu_ns_per_query(),
        "ns");
    add("stretch_mean", quality.stretch_mean, "ratio");
    add("stretch_max", quality.stretch_max, "ratio");
    add("scheme_mib", setup.scheme_mib, "MiB");
  } else {
    // Traced replay through each layer's public functions: at the
    // server's coalescing depth for the table (wire), and at the closed
    // loop's batch for the sum check.
    const double net_batches = static_cast<double>(
        counter_of(ph.nominal_delta, "croute_batches_total"));
    const double net_queries = static_cast<double>(
        counter_of(ph.nominal_delta, "croute_net_queries_total"));
    const ReplayResult full = replay_layers(svc, inst.traffic, kClosedBatch,
                                            spec.labels, 32, spans, acct);
    ReplayResult replay = full;
    if (spec.wire) {
      const double depth =
          net_batches > 0 ? net_queries / net_batches : kFrameQueries;
      replay = replay_layers(svc, inst.traffic,
                             static_cast<std::uint32_t>(depth + 0.5),
                             spec.labels, 32, spans, acct);
    }
    const PointResult& nominal = ph.nominal;
    const double sojourn_p50 = percentile(nominal.sojourn_us, 50);
    const double traced_p50 = percentile(ph.traced.sojourn_us, 50);
    double residual = 0;
    if (spec.wire) {
      residual = traced_p50 -
                 (replay.encode_query_us + replay.decode_query_us +
                  replay.route_us + replay.encode_answer_us +
                  replay.decode_answer_us);
    }
    const double closed_route_ns =
        median(closed.batch_us) * 1e3 / kClosedBatch;
    const double sum_gap =
        closed_route_ns > 0
            ? std::abs(full.dispatch_ns_per_query + full.engine_ns_per_query -
                       closed_route_ns) /
                  closed_route_ns
            : 0;
    std::vector<double> publish_us, rebuild_s, incr_s, enc_s, pub_s;
    std::uint64_t reused = 0, total = 0;
    for (const ChurnCycle& c : cycles) {
      publish_us.push_back(c.publish_us);
      rebuild_s.push_back(c.rebuild_s);
      incr_s.push_back(c.incr_preprocess_s);
      enc_s.push_back(c.encode_s);
      pub_s.push_back(c.persist_s);
      reused += c.clusters_reused;
      total += c.clusters_total;
    }
    const double nq = static_cast<double>(nominal.answered);
    add("sojourn_p50_us", sojourn_p50, "us");
    add("sojourn_p99_us",
        windowed_percentile(nominal.sojourn_us, 99, kTailWindows), "us");
    add("max_qps_at_slo", ph.max_qps, "1/s");
    add("route_qps", closed.qps(), "1/s");
    add("serve_qps",
        wire ? windowed_rate(ph.serve.done_ns, kFrameQueries, ph.serve.t0,
                             ph.serve.window_s, kTailWindows)
             : closed.qps(),
        "1/s");
    add("serve_p50_us",
        wire ? percentile(ph.serve.sojourn_us, 50)
             : percentile(closed.batch_us, 50),
        "us");
    add("batch_p99_us",
        windowed_percentile(closed.batch_us, 99, kTailWindows), "us");
    add("serve_p99_us",
        spec.wire
            ? windowed_percentile(ph.serve.sojourn_us, 99, kTailWindows)
            : windowed_percentile(closed.batch_us, 99, kTailWindows),
        "us");
    add("rebuild_s", median(rebuild_s), "s");
    add("net.send_us", median(nominal.send_us), "us");
    add("net.recv_us", median(nominal.recv_us), "us");
    add("net.bytes_per_query",
        nq > 0 ? static_cast<double>(
                     counter_of(ph.nominal_delta, "croute_net_bytes_rx_total") +
                     counter_of(ph.nominal_delta,
                                "croute_net_bytes_tx_total")) /
                     nq
               : 0,
        "B");
    add("net.queries_per_batch",
        spec.wire && net_batches > 0 ? net_queries / net_batches : 0,
        "count");
    add("net.rejected_frames",
        static_cast<double>(
            counter_of(ph.wire_delta, "croute_net_rejected_frames_total") +
            counter_of(ph.wire_delta,
                       "croute_net_overload_rejections_total")),
        "count");
    add("net.residual_us", residual, "us");
    add("service.route_p50_us",
        spec.wire ? hist_pct(ph.nominal_delta, "croute_batch_service_us", 50)
                  : percentile(closed.batch_us, 50),
        "us");
    add("service.route_p99_us",
        spec.wire ? hist_pct(ph.nominal_delta, "croute_batch_service_us", 99)
                  : percentile(closed.batch_us, 99),
        "us");
    add("service.queue_wait_p99_us",
        hist_pct(ph.nominal_delta, "croute_queue_wait_us", 99), "us");
    add("service.busy_frac",
        (ph.tel1.busy_seconds - ph.tel0.busy_seconds) /
            (nominal.window_s * kServiceWorkers),
        "ratio");
    add("service.dispatch_ns_per_query", full.dispatch_ns_per_query, "ns");
    add("service.distinct_dest_frac", replay.distinct_dest_frac, "ratio");
    add("service.publish_us", median(publish_us), "us");
    add("service.swap_blackout_us", tel.max_swap_blackout_us, "us");
    add("service.straddled_batches",
        static_cast<double>(tel.straddled_batches), "count");
    add("core.engine_ns_per_query", full.engine_ns_per_query, "ns");
    add("core.lane_occupancy", full.lane_occupancy, "ratio");
    add("core.hops_mean", quality.hops_mean, "count");
    add("core.header_bits_max", static_cast<double>(quality.header_bits_max),
        "bit");
    add("core.preprocess_s", median(setup.preprocess_s), "s");
    add("core.flat_compile_s", median(setup.flat_compile_s), "s");
    add("core.incr_preprocess_s", median(incr_s), "s");
    add("core.reuse_ratio",
        total > 0 ? static_cast<double>(reused) / total : 0, "ratio");
    add("persist.encode_s", spec.churn ? median(enc_s) : persisted.encode_s,
        "s");
    add("persist.publish_s",
        spec.churn ? median(pub_s) : persisted.publish_s, "s");
    add("persist.decode_s", persisted.decode_s, "s");
    add("persist.artifact_mib", persisted.artifact_mib, "MiB");
    add("driver.lag_p99_us", percentile(nominal.lag_us, 99), "us");
    add("driver.unanswered", static_cast<double>(ph.unanswered_frames),
        "count");
    add("driver.sojourn_samples",
        static_cast<double>(nominal.sojourn_us.size()), "count");
    add("trace.overhead_frac",
        sojourn_p50 > 0 ? (traced_p50 - sojourn_p50) / sojourn_p50 : 0,
        "ratio");
    add("trace.sum_gap_frac", sum_gap, "ratio");
    add("error_rate", 0, "ratio");  // set once every check has run

    // Per-layer self time on the blocking path of one query at the
    // nominal rate.
    std::printf("per-layer self time (us on one query's path at %.0f qps; "
                "replay depth %u, %u batches)\n",
                spec.nominal_qps, replay.depth, replay.batches);
    const auto row = [&](const char* layer, const char* part, double us) {
      std::printf("  %-8s %-36s %10.2f  %5.1f%%\n", layer, part, us,
                  traced_p50 > 0 ? 100 * us / traced_p50 : 0);
    };
    double route_us = replay.route_us;
    if (!spec.wire) {
      // In process a query waits for its own coalesced route() call.
      route_us = median(ph.traced.batch_us);
    }
    const double engine_share =
        replay.route_us > 0 ? replay.engine_us / replay.route_us : 0;
    if (spec.wire) {
      row("net", "encode_query (client, per frame)", replay.encode_query_us);
      row("net", "feed/next/decode_query (server)", replay.decode_query_us);
    }
    row("service", "route() minus engine (dispatch)",
        route_us * (1 - engine_share));
    row("core", "FlatBatchEngine::route share", route_us * engine_share);
    if (spec.wire) {
      row("net", "encode_answer (server, per frame)",
          replay.encode_answer_us);
      row("net", "decode_answer (client, per frame)",
          replay.decode_answer_us);
      row("net", "residual: socket, epoll, coalesce", residual);
    } else {
      row("service", "residual: coalesce and queue wait",
          traced_p50 - route_us);
    }
    row("total", "traced sojourn p50", traced_p50);
    for (const SelfTime& st : self_times(spans.spans())) {
      std::printf("  span %-22s n=%-8llu total %12.1f us  self %12.1f us\n",
                  st.name.c_str(), static_cast<unsigned long long>(st.count),
                  st.total_us, st.self_us);
    }
    std::printf("sum check: dispatch %.1f + engine %.1f ns/query vs "
                "bench-timed route() %.1f ns/query: gap %.1f%% "
                "(tolerance %.0f%%) %s\n",
                full.dispatch_ns_per_query, full.engine_ns_per_query,
                closed_route_ns, 100 * sum_gap, 100 * kSumTolerance,
                sum_gap <= kSumTolerance ? "ok" : "EXCEEDED");
    const std::string span_path = args.work_dir + "/spans-" + tag + ".json";
    std::ofstream(span_path) << spans_to_json(spans.spans());
    std::printf("spans: %zu written to %s (%llu dropped past the cap)\n",
                spans.spans().size(), span_path.c_str(),
                static_cast<unsigned long long>(spans.dropped()));
  }
  const double error_rate =
      acct.attempted > 0
          ? static_cast<double>(acct.failures()) / acct.attempted
          : 0;
  if (args.trace) out.metrics.back().value = error_rate;

  std::printf("checks: attempted %llu, failed %llu, mismatched %llu, "
              "bound violations %llu (stretch bound %.0f), error_rate %.3g\n",
              static_cast<unsigned long long>(acct.attempted),
              static_cast<unsigned long long>(acct.failed),
              static_cast<unsigned long long>(acct.mismatched),
              static_cast<unsigned long long>(acct.bound_violations),
              stretch_bound(spec), error_rate);
  std::printf("phases: route() closed loop %.2fs, %zu batches; wire closed "
              "loop %.2fs, %llu queries; nominal %.0f qps -> %.0f achieved, "
              "%zu samples; ladder %u probes\n",
              closed.wall_s, closed.batch_us.size(), ph.serve.window_s,
              static_cast<unsigned long long>(ph.serve.answered),
              spec.nominal_qps, ph.nominal.achieved_qps(),
              ph.nominal.sojourn_us.size(), ph.probes);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("peak RSS %.0f MiB\n", usage.ru_maxrss / 1024.0);
  for (const Metric& m : out.metrics) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics,
                         const std::string& prefix) {
  std::string s;
  char buf[256];
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  s.empty() ? "" : ",", prefix.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    s += buf;
  }
  return s;
}

int run(const Args& args) {
  const std::vector<WorkloadSpec> specs = workload_specs(args.tiny);
  std::vector<const WorkloadSpec*> chosen;
  for (const WorkloadSpec& s : specs) {
    if (args.workload == "all" || args.workload == s.name) {
      chosen.push_back(&s);
    }
  }
  if (chosen.empty()) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  Accounting total;
  std::string metrics;
  for (const WorkloadSpec* spec : chosen) {
    const RunOutput r = run_workload(*spec, args);
    total.merge(r.acct);
    // With several workloads in one process, names carry a workload/
    // prefix.
    const std::string part = metrics_json(
        r.metrics, chosen.size() > 1 ? spec->name + "/" : std::string());
    metrics += (metrics.empty() ? "" : ",") + part;
    const std::string path = args.work_dir + "/result-" + spec->name +
                             "-seed" + std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    std::ofstream(path) << "{\"instance\":" << r.stamp << ",\"correct\":"
                        << (r.acct.failures() == 0 ? "true" : "false")
                        << ",\"metrics\":{" << metrics_json(r.metrics, "")
                        << "}}\n";
  }
  const bool correct = total.failures() == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failures()),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
