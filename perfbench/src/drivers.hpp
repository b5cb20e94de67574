/// \file drivers.hpp
/// \brief Load generators: the in-process closed loop, the in-process and
/// wire open loops at fixed absolute rates, and the SLO ladder search.
///
/// Each generator runs on ONE driver thread. The open loops schedule
/// query i (or frame j) at start + i / rate and charge its sojourn from
/// that schedule, so a stall delays every later answer and shows in the
/// tail. Nothing scheduled is ever dropped from the accounting: a query
/// or frame still unanswered when the drain deadline passes counts as
/// failed, and a failed point misses the SLO.

#pragma once

#include <functional>
#include <vector>

#include "harness.hpp"
#include "net/client.hpp"

namespace perfbench {

/// The traffic ring a run cycles through, plus its correctness reference.
struct Traffic {
  std::vector<RouteQuery> queries;     ///< size is a multiple of 2048
  std::vector<RouteRequest> requests;  ///< vertex- or label-addressed
  std::vector<RouteAnswer> reference;  ///< route_collect before serving
  std::vector<croute::net::WireQuery> wire;      ///< frames' queries
  std::vector<croute::net::OwnedLabel> labels;   ///< backs label spans
};

/// Closed loop: route() batches of kClosedBatch back to back.
struct ClosedResult {
  double wall_s = 0;
  std::vector<double> batch_us;      ///< bench-timed route() per batch
  std::vector<double> batch_cpu_ns;  ///< process CPU time per batch
  Accounting acct;

  /// Throughput of the median batch: kClosedBatch / median route()
  /// time. A wake-up stall slows a few batches by milliseconds; the
  /// median batch ignores them where a whole-run mean would not.
  double qps() const {
    const double med_us = median(batch_us);
    return med_us > 0 ? kClosedBatch * 1e6 / med_us : 0;
  }
  /// CPU cost of the median batch, per query: every thread's time
  /// (the driver's share of route() and the workers'), which a wake-up
  /// stall does not inflate.
  double cpu_ns_per_query() const {
    return median(batch_cpu_ns) / kClosedBatch;
  }
};

/// Runs the closed loop for \p seconds. With \p check every answer is
/// compared against traffic.reference (off under churn, where the
/// generation changes mid-run); undelivered answers always fail.
/// \p background_cpu_ns, when set, returns the CPU time so far of
/// threads that do not serve (the churn rebuild thread); it is left out
/// of batch_cpu_ns.
ClosedResult run_closed_loop(
    RouteService& service, const Traffic& traffic, double seconds,
    bool check, SpanLog& spans,
    const std::function<std::uint64_t()>& background_cpu_ns = nullptr);

/// In-process open loop: the driver thread coalesces every query due by
/// now (up to kClosedBatch) into one route() call, the same serving
/// model as NetServer's loop minus the sockets.
PointResult run_open_inproc(RouteService& service, const Traffic& traffic,
                            double rate, double window_s, bool check,
                            SpanLog& spans);

/// Wire open loop over \p conns (frames of kFrameQueries assigned round
/// robin). Every ANSWER is compared with traffic.reference.
PointResult run_open_wire(std::vector<croute::net::NetClient>& conns,
                          const Traffic& traffic, bool labeled, double rate,
                          double window_s, SpanLog& spans);

/// Wire closed loop: every connection keeps \p inflight frames
/// outstanding and sends the next as each answer arrives — the socket
/// path at saturation (threads never idle, so no wake-up costs).
/// sojourn_us holds per-query round trips; achieved_qps() is the
/// saturation throughput.
PointResult run_closed_wire(std::vector<croute::net::NetClient>& conns,
                            const Traffic& traffic, bool labeled,
                            std::uint32_t inflight, double window_s);

/// Reads and discards replies until the connections stay quiet for
/// \p quiet_ms (bounded by \p max_ms): clears a backlog left by an
/// overloaded point before the next one starts.
void drain_wire(std::vector<croute::net::NetClient>& conns, int quiet_ms,
                int max_ms);

/// Highest rung of the fixed ladder lo·ratio^i (i < rungs) whose probe
/// meets the SLO, by bisection (the predicate is monotone in rate up to
/// noise). Returns that probe's achieved rate (0 when even rung 0
/// fails) and the number of probes in \p probes_out.
double ladder_search(const WorkloadSpec& spec,
                     const std::function<PointResult(double)>& probe,
                     std::uint32_t* probes_out);

}  // namespace perfbench
