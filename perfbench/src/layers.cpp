#include "layers.hpp"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <unordered_set>

#include "core/flat_batch.hpp"
#include "core/scheme_io.hpp"
#include "graph/delta.hpp"
#include "net/frame.hpp"
#include "net/wire.hpp"
#include "persist/artifact.hpp"
#include "persist/artifact_store.hpp"
#include "sim/experiment.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kStretchSample = 16384;
constexpr std::uint32_t kRouteOneSample = 512;
constexpr std::uint32_t kRecoverProbe = 4096;

/// Copies every answer of one route() call out of the service scratch.
class CollectSink final : public croute::RouteSink {
 public:
  void on_answers(std::uint32_t,
                  std::span<const RouteAnswer> answers) override {
    got.assign(answers.begin(), answers.end());
  }
  std::vector<RouteAnswer> got;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("perfbench: cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

double stretch_bound(const WorkloadSpec& spec) {
  const double k = spec.k;
  return spec.scheme == croute::SchemeKind::kTZHandshake ? 2 * k - 1
                                                         : 4 * k - 5;
}

Instance build_instance(const WorkloadSpec& spec, std::uint64_t seed) {
  Instance inst;
  croute::Rng graph_rng(spec.instance_seed);
  inst.graph = croute::make_workload(croute::GraphFamily::kErdosRenyi,
                                     spec.n, graph_rng);
  RouteServiceOptions& o = inst.options;
  o.scheme = spec.scheme;
  o.k = spec.k;
  o.seed = spec.instance_seed + 1;
  o.threads = kServiceWorkers;
  o.compile_threads = spec.compile_threads;
  o.metrics = true;
  const std::string err = o.validate();
  if (!err.empty()) throw std::invalid_argument(err);

  croute::TrafficOptions topt;
  topt.source_pool = spec.source_pool;
  croute::Rng traffic_rng(seed + 2);
  inst.traffic.queries = croute::make_traffic(
      inst.graph, spec.traffic, spec.traffic_queries, traffic_rng, topt);
  for (const RouteQuery& q : inst.traffic.queries) {
    inst.traffic.requests.push_back(croute::to_request(q));
  }

  // The quality sample belongs to the instance, not to the run seed:
  // stretch is a deterministic guard of the scheme, not a timing.
  croute::TrafficOptions sopt;
  sopt.source_pool = 64;  // bounds the Dijkstra runs exact distances need
  croute::Rng sample_rng(spec.instance_seed + 4);
  inst.stretch_sample = croute::make_traffic(inst.graph, spec.traffic,
                                             kStretchSample, sample_rng, sopt);
  croute::attach_exact_distances(inst.graph, inst.stretch_sample);
  inst.graph_fingerprint = croute::graph_fingerprint(inst.graph);
  inst.options_digest = croute::persist::content_options_digest(o);
  return inst;
}

SetupResult measure_setup(const WorkloadSpec& spec, const Instance& inst) {
  SetupResult out;
  for (std::uint32_t r = 0; r < spec.setup_reps; ++r) {
    out.server.reset();  // the server references the service: drop it first
    out.service.reset();
    const std::uint64_t t0 = now_ns();
    out.service = std::make_unique<RouteService>(inst.graph, inst.options);
    if (spec.wire) {
      out.server = std::make_unique<croute::net::NetServer>(
          *out.service, croute::net::NetServerOptions{});
    }
    out.setup_s.push_back(seconds_since(t0));
    const croute::SchemePackagePtr pkg = out.service->package();
    const double flat_s = pkg->flat_stats.total_ms / 1e3;
    out.preprocess_s.push_back(pkg->build_seconds - flat_s);
    out.flat_compile_s.push_back(flat_s);
    out.scheme_mib =
        static_cast<double>(pkg->flat_stats.pool_bytes) / (1 << 20);
  }
  return out;
}

void build_reference(Instance& inst, RouteService& service,
                     std::uint64_t ref_seed_offset, Accounting& acct) {
  RouteService* ref = &service;
  std::unique_ptr<RouteService> other;
  if (ref_seed_offset != 0) {
    RouteServiceOptions o = inst.options;
    o.seed += ref_seed_offset;
    other = std::make_unique<RouteService>(inst.graph, o);
    ref = other.get();
  }
  Traffic& t = inst.traffic;
  t.reference = ref->route_collect(std::span<const RouteRequest>(t.requests));
  // route_one is the scalar, single-query path: an independent check of
  // the batched reference.
  const std::size_t stride = std::max<std::size_t>(
      1, t.requests.size() / kRouteOneSample);
  for (std::size_t i = 0; i < t.requests.size(); i += stride) {
    const RouteAnswer a = service.route_one(t.requests[i]);
    ++acct.attempted;
    if (!same_answer(a, t.reference[i])) ++acct.mismatched;
  }
}

Quality measure_quality(RouteService& service,
                        const std::vector<RouteQuery>& sample, double bound,
                        Accounting& acct) {
  Quality q;
  const std::vector<RouteAnswer> answers =
      service.route_collect(std::span<const RouteQuery>(sample));
  double sum = 0;
  std::uint64_t hops = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const RouteAnswer& a = answers[i];
    ++acct.attempted;
    hops += a.hops;
    q.header_bits_max = std::max(q.header_bits_max, a.header_bits);
    if (!a.delivered()) {
      ++acct.failed;
      continue;
    }
    if (sample[i].exact <= 0) continue;
    const double s = a.length / sample[i].exact;
    sum += s;
    q.stretch_max = std::max(q.stretch_max, s);
    ++q.measured;
    if (s > bound + 1e-9) ++acct.bound_violations;
  }
  q.stretch_mean = q.measured > 0 ? sum / q.measured : 0;
  q.hops_mean = answers.empty() ? 0 : static_cast<double>(hops) / answers.size();
  return q;
}

PersistResult measure_persist(const std::string& dir,
                              std::string artifact_path,
                              RouteService& service, const Instance& inst,
                              bool publish, std::uint32_t reps,
                              Accounting& acct) {
  namespace persist = croute::persist;
  PersistResult out;
  if (publish) {
    std::filesystem::remove_all(dir);
    persist::ArtifactStore store(persist::StoreOptions{dir, 2});
    const std::uint64_t t0 = now_ns();
    const persist::PublishResult res =
        store.publish_generation(*service.package());
    out.publish_s = seconds_since(t0);
    if (!res.ok) {
      throw std::runtime_error("perfbench: artifact publish failed: " +
                               res.error);
    }
    out.encode_s = res.encode_s;
    artifact_path = res.path;
  }
  {
    // Scoped: the bytes and the decoded copy are freed before restarts.
    const std::string bytes = read_file(artifact_path);
    out.artifact_mib = static_cast<double>(bytes.size()) / (1 << 20);
    const std::uint64_t t0 = now_ns();
    const croute::SchemePackagePtr pkg =
        persist::decode_package(bytes, inst.options);
    out.decode_s = seconds_since(t0);
  }

  const std::size_t probe_n =
      std::min<std::size_t>(kRecoverProbe, inst.traffic.requests.size());
  const std::span<const RouteRequest> probe(inst.traffic.requests.data(),
                                            probe_n);
  const std::vector<RouteAnswer> expected = service.route_collect(probe);
  RouteServiceOptions o = inst.options;
  o.persist.dir = dir;
  // Restart 0 warms the page cache and the allocator and is not timed:
  // recover_s is the warm-cache restart.
  for (std::uint32_t r = 0; r <= reps; ++r) {
    const std::uint64_t t0 = now_ns();
    RouteService restarted(inst.graph, o);
    if (r > 0) out.recover_s.push_back(seconds_since(t0));
    ++acct.attempted;
    if (!restarted.recovered_from_artifact()) {
      ++acct.failed;
      continue;
    }
    const std::vector<RouteAnswer> got = restarted.route_collect(probe);
    for (std::size_t i = 0; i < probe_n; ++i) {
      ++acct.attempted;
      if (!same_answer(got[i], expected[i])) ++acct.mismatched;
    }
  }
  return out;
}

ReplayResult replay_layers(RouteService& service, const Traffic& traffic,
                           std::uint32_t depth, bool labeled,
                           std::uint32_t batches, SpanLog& spans,
                           Accounting& acct) {
  namespace net = croute::net;
  ReplayResult out;
  const std::size_t ring = traffic.requests.size();
  depth = std::max<std::uint32_t>(
      kFrameQueries, std::min<std::uint32_t>(depth, kClosedBatch));
  depth -= depth % kFrameQueries;
  out.depth = depth;
  out.batches = batches;

  const croute::SchemePackagePtr pkg = service.package();
  const RouteServiceOptions& opt = service.options();
  croute::FlatBatchTarget target;
  target.graph = pkg->graph.get();
  target.flat = pkg->flat.get();
  target.cowen = pkg->flat_cowen.get();
  target.full = pkg->flat_full.get();
  const bool direct = opt.scheme == croute::SchemeKind::kTZDirect;
  switch (opt.scheme) {
    case croute::SchemeKind::kTZDirect:
      target.kind = croute::FlatServeKind::kTZDirect;
      break;
    case croute::SchemeKind::kTZHandshake:
      target.kind = croute::FlatServeKind::kTZHandshake;
      break;
    case croute::SchemeKind::kCowen:
      target.kind = croute::FlatServeKind::kCowen;
      break;
    case croute::SchemeKind::kFullTable:
      target.kind = croute::FlatServeKind::kFullTable;
      break;
  }
  croute::FlatBatchEngine engine(opt.batch_group);
  engine.set_stats_sample_every(1);

  const bool codec = !traffic.wire.empty();
  std::vector<double> enc_q, dec_q, route_us, engine_us, enc_a, dec_a,
      distinct;
  std::vector<std::uint8_t> payload, stream;
  std::vector<net::WireQuery> decoded;
  std::vector<net::WireAnswer> wire_answers, decoded_answers;
  std::vector<std::uint32_t> order(depth);
  std::vector<croute::FlatBatchQuery> eq(depth);
  std::vector<croute::FlatBatchAnswer> ea(depth);
  CollectSink sink;
  const std::size_t slots = (ring - depth) / kFrameQueries + 1;

  for (std::uint32_t b = 0; b < batches; ++b) {
    const std::size_t pos =
        (static_cast<std::size_t>(b) * 7919 % slots) * kFrameQueries;
    const std::int32_t root = spans.open("replay.batch", b);
    const std::uint32_t frames = depth / kFrameQueries;

    // 1-2. Client encode and server decode of each QUERY frame.
    for (std::uint32_t f = 0; codec && f < frames; ++f) {
      const std::size_t fpos = pos + f * kFrameQueries;
      const std::span<const net::WireQuery> fq(traffic.wire.data() + fpos,
                                               kFrameQueries);
      std::int32_t sp = spans.open("net.encode_query", b, root);
      std::uint64_t t0 = now_ns();
      payload.clear();
      net::encode_query(payload, f + 1, fq, labeled);
      stream.clear();
      net::encode_header(static_cast<std::uint8_t>(
                             labeled ? net::FrameType::kQueryL
                                     : net::FrameType::kQueryV),
                         payload.size(), stream);
      stream.insert(stream.end(), payload.begin(), payload.end());
      std::uint64_t t1 = now_ns();
      spans.close(sp);
      enc_q.push_back(static_cast<double>(t1 - t0) / 1e3);

      net::FrameDecoder decoder;
      net::Frame frame;
      std::uint64_t req = 0;
      decoded.clear();
      sp = spans.open("net.decode_query", b, root);
      t0 = now_ns();
      decoder.feed(stream);
      const bool ok = decoder.next(frame) &&
                      net::decode_query(frame.payload, labeled, req, decoded);
      t1 = now_ns();
      spans.close(sp);
      dec_q.push_back(static_cast<double>(t1 - t0) / 1e3);
      acct.attempted += kFrameQueries;
      if (!ok || decoded.size() != kFrameQueries) {
        acct.failed += kFrameQueries;
        continue;
      }
      for (std::uint32_t i = 0; i < kFrameQueries; ++i) {
        const bool same =
            decoded[i].s == fq[i].s && decoded[i].t == fq[i].t &&
            decoded[i].label_bits == fq[i].label_bits &&
            std::equal(decoded[i].label.begin(), decoded[i].label.end(),
                       fq[i].label.begin(), fq[i].label.end());
        if (!same) ++acct.mismatched;
      }
    }

    // 3. The service on the same batch.
    const std::span<const RouteRequest> reqs(traffic.requests.data() + pos,
                                             depth);
    std::int32_t sp = spans.open("service.route", b, root);
    std::uint64_t t0 = now_ns();
    service.route(reqs, sink);
    std::uint64_t t1 = now_ns();
    spans.close(sp);
    route_us.push_back(static_cast<double>(t1 - t0) / 1e3);

    // 4. The engine alone on the same batch, destination-grouped as the
    // service orders it, on the pinned generation's pooled labels.
    for (std::uint32_t i = 0; i < depth; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t c) {
                       return traffic.queries[pos + a].t <
                              traffic.queries[pos + c].t;
                     });
    std::unordered_set<VertexId> dests;
    for (std::uint32_t j = 0; j < depth; ++j) {
      const RouteQuery& q = traffic.queries[pos + order[j]];
      dests.insert(q.t);
      eq[j].s = q.s;
      eq[j].t = q.t;
      eq[j].label = direct ? pkg->flat->label(q.t)
                           : std::span<const croute::FlatScheme::LabelEntryView>{};
      eq[j].light_pool = nullptr;
    }
    distinct.push_back(static_cast<double>(dests.size()) / depth);
    sp = spans.open("core.engine", b, root);
    t0 = now_ns();
    engine.route(target, eq, ea);
    t1 = now_ns();
    spans.close(sp);
    engine_us.push_back(static_cast<double>(t1 - t0) / 1e3 /
                        kServiceWorkers);
    for (std::uint32_t j = 0; j < depth; ++j) {
      const RouteAnswer& r = sink.got[order[j]];
      ++acct.attempted;
      if (r.status != ea[j].status || r.hops != ea[j].hops ||
          r.header_bits != ea[j].header_bits || r.length != ea[j].length) {
        ++acct.mismatched;
      }
    }

    // 5. Answer encode (server) and decode (client), per frame.
    for (std::uint32_t f = 0; codec && f < frames; ++f) {
      wire_answers.clear();
      for (std::uint32_t i = 0; i < kFrameQueries; ++i) {
        const RouteAnswer& a = sink.got[f * kFrameQueries + i];
        wire_answers.push_back(
            {static_cast<std::uint8_t>(a.status), a.hops, a.header_bits,
             static_cast<std::uint64_t>(a.latency_us * 1e3),
             static_cast<std::uint64_t>(a.queue_wait_us * 1e3)});
      }
      std::int32_t asp = spans.open("net.encode_answer", b, root);
      t0 = now_ns();
      payload.clear();
      net::encode_answer(payload, f + 1, net::kProtocolVersion, wire_answers);
      t1 = now_ns();
      spans.close(asp);
      enc_a.push_back(static_cast<double>(t1 - t0) / 1e3);
      std::uint64_t req = 0;
      decoded_answers.clear();
      asp = spans.open("net.decode_answer", b, root);
      t0 = now_ns();
      const bool ok = net::decode_answer(payload, net::kProtocolVersion, req,
                                         decoded_answers);
      t1 = now_ns();
      spans.close(asp);
      dec_a.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (!ok || decoded_answers.size() != kFrameQueries) {
        acct.failed += kFrameQueries;
      }
    }
    spans.close(root);
  }

  out.encode_query_us = median(enc_q);
  out.decode_query_us = median(dec_q);
  out.route_us = median(route_us);
  out.engine_us = median(engine_us);
  out.encode_answer_us = median(enc_a);
  out.decode_answer_us = median(dec_a);
  out.engine_ns_per_query = out.engine_us * 1e3 / depth;
  out.dispatch_ns_per_query =
      out.route_us * 1e3 / depth - out.engine_ns_per_query;
  out.distinct_dest_frac = median(distinct);
  out.lane_occupancy = engine.stats().occupancy();
  return out;
}

ChurnThread::ChurnThread(RouteService& service, const Instance& inst,
                         std::uint64_t seed, std::uint32_t cycles,
                         double spacing_s, std::string store_dir,
                         bool traced)
    : service_(service),
      graph_(inst.graph),
      store_dir_(std::move(store_dir)),
      spans_(traced),
      thread_([this, seed, cycles, spacing_s] {
        try {
          run(seed, cycles, spacing_s);
        } catch (...) {
          error_ = std::current_exception();
        }
      }) {}

std::uint64_t ChurnThread::cpu_ns() {
  clockid_t clock{};
  timespec ts{};
  // A finished thread's clock is gone: its CPU time stopped growing.
  if (thread_.joinable() &&
      pthread_getcpuclockid(thread_.native_handle(), &clock) == 0 &&
      clock_gettime(clock, &ts) == 0) {
    last_cpu_ns_ = static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
                   static_cast<std::uint64_t>(ts.tv_nsec);
  }
  return last_cpu_ns_;
}

ChurnThread::~ChurnThread() {
  if (thread_.joinable()) thread_.join();
}

void ChurnThread::join() {
  if (thread_.joinable()) thread_.join();
  if (error_) std::rethrow_exception(error_);
}

void ChurnThread::run(std::uint64_t seed, std::uint32_t cycles,
                      double spacing_s) {
  namespace persist = croute::persist;
  croute::Rng rng(seed + 3);
  croute::DeltaOptions delta;  // localized: a handful of links per cycle
  delta.reweight_fraction = 2.5e-4;
  delta.remove_fraction = 1.25e-4;
  delta.add_fraction = 1.25e-4;
  std::filesystem::remove_all(store_dir_);
  persist::ArtifactStore store(persist::StoreOptions{store_dir_, 2});
  RouteServiceOptions opt = service_.options();
  opt.warm_start_path.clear();
  const std::uint64_t start = now_ns();
  for (std::uint32_t i = 0; i < cycles; ++i) {
    const auto at = start + static_cast<std::uint64_t>(i * spacing_s * 1e9);
    while (now_ns() < at) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ChurnCycle c;
    const std::int32_t root = spans_.open("churn.cycle", i);
    std::int32_t sp = spans_.open("churn.delta", i, root);
    Graph next = croute::perturb_graph(graph_, rng, delta);
    spans_.close(sp);

    // The rebuild request: the new topology is known from here on.
    const std::uint64_t requested = now_ns();
    sp = spans_.open("core.rebuild", i, root);
    const croute::SchemePackagePtr pkg =
        croute::build_scheme_package_incremental(
            service_.package(), std::make_shared<const Graph>(next), opt);
    spans_.close(sp);
    service_.record_rebuild(*pkg);

    sp = spans_.open("service.publish", i, root);
    const std::uint64_t p0 = now_ns();
    service_.publish(pkg);
    const std::uint64_t p1 = now_ns();
    spans_.close(sp);
    c.publish_us = static_cast<double>(p1 - p0) / 1e3;
    c.rebuild_s = static_cast<double>(p1 - requested) / 1e9;
    c.incr_preprocess_s = pkg->incr_stats.used ? pkg->incr_stats.total_s : 0;
    c.clusters_reused = pkg->incr_stats.clusters_reused;
    c.clusters_total = pkg->incr_stats.clusters_total;

    sp = spans_.open("persist.publish", i, root);
    const std::uint64_t s0 = now_ns();
    const persist::PublishResult res = store.publish_generation(*pkg);
    c.persist_s = seconds_since(s0);
    spans_.close(sp);
    spans_.close(root);
    if (!res.ok) {
      throw std::runtime_error("perfbench: churn persist failed: " +
                               res.error);
    }
    c.encode_s = res.encode_s;
    last_artifact_ = res.path;
    graph_ = std::move(next);
    cycles_.push_back(c);
  }
}

}  // namespace perfbench
