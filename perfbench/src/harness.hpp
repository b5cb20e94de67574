/// \file harness.hpp
/// \brief Shared types of the repository benchmark (perfbench).
///
/// The benchmark drives the croute library only through its public
/// functions — RouteService::route, NetClient/NetServer, the wire codecs,
/// FlatBatchEngine, the persist encoders and the obs snapshots — and
/// times those calls from outside. Nothing in src/ is instrumented for
/// it: per-layer time comes from the bench's own spans around each call
/// plus deltas of the croute_* instruments the layers already register.

#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"

namespace perfbench {

using croute::Graph;
using croute::RouteAnswer;
using croute::RouteQuery;
using croute::RouteRequest;
using croute::RouteService;
using croute::RouteServiceOptions;
using croute::VertexId;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// CPU time consumed so far by the whole process / the calling thread.
inline std::uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t process_cpu_ns() {
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
}
inline std::uint64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample; 0 when
/// empty. Sorts a copy.
double percentile(std::vector<double> sample, double q);
double median(std::vector<double> sample);

/// Median over windows of each window's q-th percentile. Tail
/// percentiles of a whole run swing with one OS hiccup; the median of
/// per-window tails is the steadier statistic the bounds are set on.
double windowed_percentile(const std::vector<double>& sample, double q,
                           std::size_t windows);

/// Completions per second as the median over \p windows equal slices of
/// [t0, t0 + window_s) of the units completed in each slice (\p done_ns:
/// completion times, \p unit queries each). A stalled slice moves the
/// median far less than it moves a whole-window mean.
double windowed_rate(const std::vector<std::uint64_t>& done_ns, double unit,
                     std::uint64_t t0, double window_s, std::size_t windows);

// --- spans -----------------------------------------------------------------

/// One timed interval around a call into a layer. Spans of one frame or
/// batch share \ref id; \ref parent indexes the enclosing span (-1 =
/// root).
struct Span {
  const char* name = "";
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::int32_t parent = -1;
  std::uint64_t id = 0;
};

/// In-memory span log, written out at exit. Disabled logs record
/// nothing (open() returns -1), so untraced runs pay one branch per call.
/// A full log (kMaxSpans) drops further spans and counts them. One log
/// per thread; merge after joining.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 16;

  explicit SpanLog(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  std::int32_t open(const char* name, std::uint64_t id,
                    std::int32_t parent = -1) {
    if (!take()) return -1;
    spans_.push_back({name, now_ns(), 0, parent, id});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].t1 = now_ns();
  }
  /// Records a finished interval.
  void add(const char* name, std::uint64_t t0, std::uint64_t t1,
           std::uint64_t id, std::int32_t parent = -1) {
    if (take()) spans_.push_back({name, t0, t1, parent, id});
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  void append(const SpanLog& other);

 private:
  bool take() {
    if (!enabled_) return false;
    if (spans_.size() < kMaxSpans) return true;
    ++dropped_;
    return false;
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Self time (µs) per span name: duration minus the part covered by
/// direct children, summed over every span of that name, with counts.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Chrome-trace JSON of \p spans (complete events, µs from the first).
std::string spans_to_json(const std::vector<Span>& spans);

// --- workloads -------------------------------------------------------------

/// One named workload: instance shape, traffic matrix, transport and the
/// fixed absolute rates of its open-loop phases.
struct WorkloadSpec {
  std::string name;
  bool wire = false;    ///< served over loopback TCP by NetServer
  bool labels = false;  ///< QUERY_L (label-addressed) frames
  bool churn = false;   ///< background rebuild cycles during the run
  VertexId n = 10000;
  /// Seeds the graph and the scheme: the instance is part of the
  /// workload's definition, so runs with different --seed values vary
  /// the traffic over ONE instance (stamped by its fingerprints).
  std::uint64_t instance_seed = 1;
  croute::SchemeKind scheme = croute::SchemeKind::kTZDirect;
  std::uint32_t k = 3;
  croute::WorkloadKind traffic = croute::WorkloadKind::kUniform;
  std::uint32_t traffic_queries = 1u << 16;  ///< cycled, a multiple of 64
  std::uint32_t source_pool = 0;  ///< 0 = unrestricted sources
  double nominal_qps = 0;   ///< the fixed rate sojourn is reported at
  double ladder_lo = 0;     ///< lowest rung of the SLO ladder (qps)
  double ladder_ratio = 1.1;
  std::uint32_t ladder_rungs = 0;
  std::uint32_t churn_cycles = 0;
  std::uint32_t setup_reps = 3;    ///< service constructions timed
  std::uint32_t recover_reps = 3;  ///< restarts from the artifact store
  unsigned compile_threads = 0;  ///< 0 = all cores (set-up only)
};

/// The named workloads (BENCHMARK.json), shrunk when \p tiny (self-test).
std::vector<WorkloadSpec> workload_specs(bool tiny);

/// Thread budget of the measured phase (nproc = 4).
inline constexpr unsigned kServiceWorkers = 2;
inline constexpr std::uint32_t kFrameQueries = 64;
inline constexpr std::uint32_t kClosedBatch = 2048;
/// Latency limit of the SLO ladder: p99 sojourn, taken as the median of
/// per-window p99s (see windowed_percentile).
inline constexpr double kSloP99Us = 10000.0;
inline constexpr std::size_t kTailWindows = 10;

/// Frame-or-batch wise correctness and failure accounting of one run.
struct Accounting {
  std::uint64_t attempted = 0;   ///< queries offered
  std::uint64_t failed = 0;      ///< error, unanswered, undelivered
  std::uint64_t mismatched = 0;  ///< answers differing from the reference
  std::uint64_t bound_violations = 0;
  void merge(const Accounting& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
    bound_violations += o.bound_violations;
  }
  std::uint64_t failures() const {
    return failed + mismatched + bound_violations;
  }
};

/// Deterministic fields of an answer, as they cross the wire.
inline bool same_wire_fields(const RouteAnswer& a, std::uint8_t status,
                             std::uint32_t hops, std::uint64_t header_bits) {
  return static_cast<std::uint8_t>(a.status) == status && a.hops == hops &&
         a.header_bits == header_bits;
}

/// Everything deterministic about an answer except paths and timing.
inline bool same_answer(const RouteAnswer& a, const RouteAnswer& b) {
  return a.status == b.status && a.length == b.length && a.hops == b.hops &&
         a.header_bits == b.header_bits;
}

/// What one open-loop point (fixed offered rate) observed.
struct PointResult {
  double offered_qps = 0;
  double window_s = 0;
  std::uint64_t answered = 0;  ///< queries answered
  std::uint64_t answered_in_window = 0;  ///< ... by the window's end
  std::uint64_t failed = 0;    ///< errored or never answered
  std::uint64_t unanswered_frames = 0;
  std::vector<double> sojourn_us;  ///< per query, schedule → answer
  std::vector<double> lag_us;      ///< per frame, schedule → send (wire)
  std::vector<double> send_us;     ///< per frame send_query call (wire)
  std::vector<double> recv_us;     ///< per try_read_reply with a frame
  std::vector<double> batch_us;    ///< per route() call (in process)
  std::uint64_t t0 = 0;                ///< window start
  /// Wire closed loop: CPU time of the server and the service workers
  /// per answered query (median over slices of the window).
  double service_cpu_ns_per_query = 0;
  std::vector<std::uint64_t> done_ns;  ///< per frame (closed wire loop)
  Accounting acct;

  /// Answers that arrived within the window, per second of window: the
  /// drain after the window never inflates it, so a growing backlog
  /// shows as achieved < offered.
  double achieved_qps() const {
    return window_s > 0 ? static_cast<double>(answered_in_window) / window_s
                        : 0;
  }
  double p99() const {
    return windowed_percentile(sojourn_us, 99, kTailWindows);
  }
  bool meets_slo() const {
    return failed == 0 && acct.failures() == 0 && !sojourn_us.empty() &&
           p99() <= kSloP99Us && achieved_qps() >= 0.99 * offered_qps;
  }
};

}  // namespace perfbench
