/// \file layers.hpp
/// \brief Instance construction and the per-layer measurements: set-up,
/// persist/recover, the traced replay of frames through each layer's
/// public functions, and the churn (rebuild → publish → persist) thread.

#pragma once

#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "drivers.hpp"
#include "harness.hpp"
#include "net/server.hpp"

namespace perfbench {

/// The generated inputs of one (workload, seed) plus the serving options.
struct Instance {
  Graph graph;
  RouteServiceOptions options;
  Traffic traffic;
  /// Queries with known exact distances (stretch and paper bound).
  std::vector<RouteQuery> stretch_sample;
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t options_digest = 0;
};

/// The instance — graph, scheme seed and stretch sample — comes from the
/// workload's fixed instance seed (graph from it, scheme seed + 1, the
/// repository CLI's convention); the run \p seed generates the traffic
/// (seed + 2) and the churn deltas (seed + 3). Requests start
/// vertex-addressed; wire label workloads re-point them at labels
/// fetched over the wire.
Instance build_instance(const WorkloadSpec& spec, std::uint64_t seed);

/// Paper stretch bound of the scheme kind (4k-5 direct, 2k-1 handshake).
double stretch_bound(const WorkloadSpec& spec);

/// Set-up: `reps` timed RouteService constructions (+ NetServer bind on
/// wire workloads); the last pair is kept for serving.
struct SetupResult {
  std::unique_ptr<RouteService> service;
  std::unique_ptr<croute::net::NetServer> server;
  std::vector<double> setup_s;
  std::vector<double> preprocess_s;
  std::vector<double> flat_compile_s;
  double scheme_mib = 0;  ///< flat pool bytes of the initial generation
};
SetupResult measure_setup(const WorkloadSpec& spec, const Instance& inst);

/// Fills traffic.reference by route_collect — from \p service, or from a
/// fresh service with scheme seed shifted by \p ref_seed_offset — and
/// checks a fixed sample of it against route_one (a separate, scalar
/// serving path).
void build_reference(Instance& inst, RouteService& service,
                     std::uint64_t ref_seed_offset, Accounting& acct);

/// Stretch over the sample's delivered answers; counts paper-bound
/// violations into \p acct.
struct Quality {
  double stretch_mean = 0;
  double stretch_max = 0;
  std::uint64_t measured = 0;
  double hops_mean = 0;
  std::uint64_t header_bits_max = 0;
};
Quality measure_quality(RouteService& service,
                        const std::vector<RouteQuery>& sample, double bound,
                        Accounting& acct);

/// Persist the serving generation to an artifact store under \p dir,
/// decode it back, and time `reps` restarts (RouteService construction
/// from the store) after one untimed warm-up restart. Every restarted
/// service must answer the first 4096 traffic requests exactly as
/// \p service does.
struct PersistResult {
  double encode_s = 0;
  double publish_s = 0;
  double decode_s = 0;
  double artifact_mib = 0;
  std::vector<double> recover_s;
};
/// With \p publish the serving generation is published first; otherwise
/// \p artifact_path names the newest artifact already in the store.
PersistResult measure_persist(const std::string& dir,
                              std::string artifact_path,
                              RouteService& service, const Instance& inst,
                              bool publish, std::uint32_t reps,
                              Accounting& acct);

/// One replay of sampled batches through each layer's public functions,
/// in the order a wire query meets them. Times are medians per batch of
/// `depth` queries; codec times are per 64-query frame.
struct ReplayResult {
  std::uint32_t depth = 0;
  std::uint32_t batches = 0;
  double encode_query_us = 0;   ///< encode_query, per frame
  double decode_query_us = 0;   ///< FrameDecoder feed/next + decode_query
  double route_us = 0;          ///< RouteService::route, per batch
  double engine_us = 0;         ///< FlatBatchEngine::route, per batch / W
  double encode_answer_us = 0;  ///< encode_answer, per frame
  double decode_answer_us = 0;  ///< decode_answer, per frame
  double engine_ns_per_query = 0;    ///< engine wall share at W workers
  double dispatch_ns_per_query = 0;  ///< route − engine share
  double distinct_dest_frac = 0;
  double lane_occupancy = 0;
};
ReplayResult replay_layers(RouteService& service, const Traffic& traffic,
                           std::uint32_t depth, bool labeled,
                           std::uint32_t batches, SpanLog& spans,
                           Accounting& acct);

/// Background churn: `cycles` localized link-churn cycles, cycle i
/// starting at start + i·spacing: perturb → incremental rebuild →
/// publish → persist to the artifact store at \p store_dir.
struct ChurnCycle {
  double rebuild_s = 0;   ///< request → generation published
  double incr_preprocess_s = 0;
  double publish_us = 0;  ///< RouteService::publish
  double encode_s = 0;    ///< encode inside publish_generation
  double persist_s = 0;   ///< ArtifactStore::publish_generation
  std::uint64_t clusters_reused = 0;
  std::uint64_t clusters_total = 0;
};
class ChurnThread {
 public:
  ChurnThread(RouteService& service, const Instance& inst,
              std::uint64_t seed, std::uint32_t cycles, double spacing_s,
              std::string store_dir, bool traced);
  ~ChurnThread();
  ChurnThread(const ChurnThread&) = delete;
  ChurnThread& operator=(const ChurnThread&) = delete;

  /// Joins; rethrows a rebuild failure.
  void join();
  const std::vector<ChurnCycle>& cycles() const { return cycles_; }
  const Graph& final_graph() const { return graph_; }
  const std::string& last_artifact() const { return last_artifact_; }
  const SpanLog& spans() const { return spans_; }
  /// CPU time the rebuild thread has used so far (its last reading once
  /// it has finished). Call from one thread only.
  std::uint64_t cpu_ns();

 private:
  void run(std::uint64_t seed, std::uint32_t cycles, double spacing_s);

  RouteService& service_;
  Graph graph_;
  std::string store_dir_;
  SpanLog spans_;
  std::vector<ChurnCycle> cycles_;
  std::string last_artifact_;
  std::exception_ptr error_;
  std::uint64_t last_cpu_ns_ = 0;
  std::thread thread_;  ///< last: starts after every member it uses
};

}  // namespace perfbench
