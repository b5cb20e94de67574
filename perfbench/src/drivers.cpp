#include "drivers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "net/protocol.hpp"

namespace perfbench {

namespace {

/// Receives route() answers and checks them against the reference slice
/// they answer (ring offset \p base).
class CheckSink final : public croute::RouteSink {
 public:
  CheckSink(const Traffic& traffic, bool check)
      : traffic_(traffic), check_(check) {}

  void reset(std::size_t base) { base_ = base; }

  void on_answers(std::uint32_t first,
                  std::span<const RouteAnswer> answers) override {
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const RouteAnswer& a = answers[i];
      if (!a.delivered()) ++acct.failed;
      if (check_ &&
          !same_answer(a, traffic_.reference[base_ + first + i])) {
        ++acct.mismatched;
      }
    }
    acct.attempted += answers.size();
  }

  Accounting acct;

 private:
  const Traffic& traffic_;
  bool check_;
  std::size_t base_ = 0;
};

}  // namespace

ClosedResult run_closed_loop(
    RouteService& service, const Traffic& traffic, double seconds,
    bool check, SpanLog& spans,
    const std::function<std::uint64_t()>& background_cpu_ns) {
  const auto serving_cpu_ns = [&] {
    return process_cpu_ns() - (background_cpu_ns ? background_cpu_ns() : 0);
  };
  ClosedResult out;
  CheckSink sink(traffic, check);
  const std::size_t ring = traffic.requests.size();
  const std::uint64_t start = now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t pos = 0;
  std::uint64_t batch = 0;
  while (now_ns() < deadline) {
    const std::span<const RouteRequest> slice(traffic.requests.data() + pos,
                                              kClosedBatch);
    sink.reset(pos);
    const std::int32_t span = spans.open("service.route", batch);
    const std::uint64_t c0 = serving_cpu_ns();
    const std::uint64_t t0 = now_ns();
    service.route(slice, sink);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t c1 = serving_cpu_ns();
    spans.close(span);
    out.batch_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    out.batch_cpu_ns.push_back(static_cast<double>(c1 - c0));
    pos = (pos + kClosedBatch) % ring;
    ++batch;
  }
  out.wall_s = seconds_since(start);
  out.acct = sink.acct;
  return out;
}

PointResult run_open_inproc(RouteService& service, const Traffic& traffic,
                            double rate, double window_s, bool check,
                            SpanLog& spans) {
  PointResult out;
  out.offered_qps = rate;
  out.window_s = window_s;
  CheckSink sink(traffic, check);
  const std::size_t ring = traffic.requests.size();
  const auto total = static_cast<std::uint64_t>(rate * window_s);
  out.sojourn_us.reserve(total);
  const double ns_per_query = 1e9 / rate;
  const double grace_s = std::max(0.2, 0.5 * window_s);
  const std::uint64_t t0 = now_ns();
  const auto window_end = t0 + static_cast<std::uint64_t>(window_s * 1e9);
  const auto drain_deadline =
      t0 + static_cast<std::uint64_t>((window_s + grace_s) * 1e9);
  std::uint64_t next = 0;
  std::uint64_t batch = 0;
  while (next < total) {
    const std::uint64_t now = now_ns();
    if (now > drain_deadline) break;
    // Queries with schedule <= now: i * ns_per_query <= now - t0.
    const auto due = std::min<std::uint64_t>(
        total,
        static_cast<std::uint64_t>(static_cast<double>(now - t0) /
                                   ns_per_query) +
            1);
    if (due <= next) continue;  // spin until the next query is due
    const std::size_t pos = next % ring;
    const std::uint64_t count = std::min<std::uint64_t>(
        {due - next, kClosedBatch, ring - pos});
    sink.reset(pos);
    const std::int32_t span = spans.open("service.route", batch);
    const std::uint64_t b0 = now_ns();
    service.route(std::span<const RouteRequest>(
                      traffic.requests.data() + pos, count),
                  sink);
    const std::uint64_t done = now_ns();
    spans.close(span);
    out.batch_us.push_back(static_cast<double>(done - b0) / 1e3);
    for (std::uint64_t i = next; i < next + count; ++i) {
      const double sched = static_cast<double>(t0) + i * ns_per_query;
      out.sojourn_us.push_back((static_cast<double>(done) - sched) / 1e3);
    }
    if (done <= window_end) out.answered_in_window += count;
    next += count;
    ++batch;
  }
  out.answered = next;
  out.failed = total - next;  // scheduled but never served in time
  out.acct = sink.acct;
  out.acct.failed += out.failed;
  out.acct.attempted += out.failed;
  return out;
}

PointResult run_open_wire(std::vector<croute::net::NetClient>& conns,
                          const Traffic& traffic, bool labeled, double rate,
                          double window_s, SpanLog& spans) {
  namespace net = croute::net;
  PointResult out;
  out.offered_qps = rate;
  out.window_s = window_s;
  const std::size_t ring = traffic.wire.size();
  const auto frames =
      static_cast<std::uint64_t>(rate * window_s / kFrameQueries);
  out.sojourn_us.reserve(frames * kFrameQueries);
  const double ns_per_frame = 1e9 * kFrameQueries / rate;
  const double grace_s = std::max(0.2, 0.5 * window_s);
  const std::size_t nc = conns.size();

  // Frame j goes to connection j % nc; req ids per connection are
  // consecutive, so (req_id - base) * nc + c recovers j.
  std::vector<std::uint64_t> sched(frames);
  std::vector<std::uint8_t> settled(frames, 0);
  // Until a connection's first send, every reply on it is an earlier
  // point's straggler.
  std::vector<std::uint64_t> base(nc, ~std::uint64_t{0});
  std::uint64_t settled_count = 0;

  const std::uint64_t t0 = now_ns();
  const auto window_end = t0 + static_cast<std::uint64_t>(window_s * 1e9);
  net::Reply reply;
  const auto handle = [&](std::size_t c, std::uint64_t arrival) {
    const bool is_answer =
        reply.type == static_cast<std::uint8_t>(net::FrameType::kAnswer);
    const bool is_error =
        reply.type == static_cast<std::uint8_t>(net::FrameType::kError);
    if (!is_answer && !is_error) return;
    if (reply.req_id < base[c]) return;  // left over from an earlier point
    const std::uint64_t j = (reply.req_id - base[c]) * nc + c;
    if (j >= frames || settled[j] != 0) return;
    settled[j] = 1;
    ++settled_count;
    if (is_error) {
      out.failed += kFrameQueries;
      out.acct.failed += kFrameQueries;
      out.acct.attempted += kFrameQueries;
      return;
    }
    const double sojourn =
        static_cast<double>(arrival - sched[j]) / 1e3;
    const std::size_t pos = (j * kFrameQueries) % ring;
    out.acct.attempted += kFrameQueries;
    if (reply.answers.size() != kFrameQueries) {
      out.failed += kFrameQueries;
      out.acct.failed += kFrameQueries;
      return;
    }
    for (std::size_t i = 0; i < kFrameQueries; ++i) {
      const net::WireAnswer& a = reply.answers[i];
      const RouteAnswer& ref = traffic.reference[pos + i];
      if (!same_wire_fields(ref, a.status, a.hops, a.header_bits)) {
        ++out.acct.mismatched;
      }
      if (a.status != static_cast<std::uint8_t>(
                          croute::RouteStatus::kDelivered)) {
        ++out.acct.failed;
      }
      out.sojourn_us.push_back(sojourn);
    }
    out.answered += kFrameQueries;
    if (arrival <= window_end) out.answered_in_window += kFrameQueries;
  };

  const auto drain_deadline =
      t0 + static_cast<std::uint64_t>((window_s + grace_s) * 1e9);
  std::uint64_t j = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (j < frames) {
      const auto due = t0 + static_cast<std::uint64_t>(j * ns_per_frame);
      if (now >= due) {
        const std::size_t c = j % nc;
        const std::size_t pos = (j * kFrameQueries) % ring;
        sched[j] = due;
        const std::int32_t span = spans.open("net.send_query", j);
        const std::uint64_t s0 = now_ns();
        const std::uint64_t req = conns[c].send_query(
            std::span<const net::WireQuery>(traffic.wire.data() + pos,
                                            kFrameQueries),
            labeled);
        const std::uint64_t s1 = now_ns();
        spans.close(span);
        if (j < nc) base[c] = req;
        out.lag_us.push_back(static_cast<double>(s0 - due) / 1e3);
        out.send_us.push_back(static_cast<double>(s1 - s0) / 1e3);
        ++j;
        continue;  // keep sending while frames are due
      }
    } else if (settled_count == frames || now > drain_deadline) {
      break;
    }
    for (std::size_t c = 0; c < nc; ++c) {
      for (;;) {
        const std::uint64_t r0 = now_ns();
        if (!conns[c].try_read_reply(reply, 0)) break;
        const std::uint64_t r1 = now_ns();
        spans.add("net.read_reply", r0, r1, reply.req_id);
        out.recv_us.push_back(static_cast<double>(r1 - r0) / 1e3);
        handle(c, r1);
      }
      if (conns[c].eof()) {
        throw std::runtime_error("perfbench: server closed a connection");
      }
    }
  }
  const std::uint64_t unanswered = frames - settled_count;
  out.unanswered_frames = unanswered;
  out.failed += unanswered * kFrameQueries;
  out.acct.failed += unanswered * kFrameQueries;
  out.acct.attempted += unanswered * kFrameQueries;
  return out;
}

PointResult run_closed_wire(std::vector<croute::net::NetClient>& conns,
                            const Traffic& traffic, bool labeled,
                            std::uint32_t inflight, double window_s) {
  namespace net = croute::net;
  PointResult out;
  out.window_s = window_s;
  const std::size_t ring = traffic.wire.size();
  const std::size_t nc = conns.size();
  // Per connection, frames by (req id - first req id): req ids of one
  // connection are consecutive, so answers may arrive in any order.
  struct Sent {
    std::size_t pos = 0;
    std::uint64_t at = 0;
    bool settled = false;
  };
  std::vector<std::vector<Sent>> sent(nc);
  std::vector<std::uint64_t> base(nc, 0);
  std::size_t next_pos = 0;
  const std::uint64_t t0 = now_ns();
  out.t0 = t0;
  // Service CPU (every thread but the busy-polling driver, whose CPU
  // time is wall time) per answered query, per slice of the window.
  std::vector<double> slice_cpu;
  const auto slice_ns = static_cast<std::uint64_t>(window_s * 1e9) / kTailWindows;
  std::uint64_t slice_end = t0 + slice_ns;
  std::uint64_t slice_answered = 0;
  std::uint64_t slice_cpu0 = process_cpu_ns() - thread_cpu_ns();
  const auto window_end = t0 + static_cast<std::uint64_t>(window_s * 1e9);
  const auto send = [&](std::size_t c) {
    const std::uint64_t at = now_ns();
    const std::uint64_t req = conns[c].send_query(
        std::span<const net::WireQuery>(traffic.wire.data() + next_pos,
                                        kFrameQueries),
        labeled);
    if (sent[c].empty()) base[c] = req;
    sent[c].push_back({next_pos, at, false});
    next_pos = (next_pos + kFrameQueries) % ring;
  };
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::uint32_t i = 0; i < inflight; ++i) send(c);
  }
  net::Reply reply;
  std::size_t outstanding = nc * inflight;
  const auto drain_deadline = window_end + 2'000'000'000ULL;
  while (outstanding > 0 && now_ns() < drain_deadline) {
    for (std::size_t c = 0; c < nc; ++c) {
      while (conns[c].try_read_reply(reply, 0)) {
        const std::uint64_t arrival = now_ns();
        if (reply.req_id < base[c] ||
            reply.req_id - base[c] >= sent[c].size() ||
            sent[c][reply.req_id - base[c]].settled) {
          continue;  // not ours (an earlier phase's straggler)
        }
        Sent& f = sent[c][reply.req_id - base[c]];
        f.settled = true;
        --outstanding;
        out.acct.attempted += kFrameQueries;
        if (reply.type != static_cast<std::uint8_t>(net::FrameType::kAnswer) ||
            reply.answers.size() != kFrameQueries) {
          out.failed += kFrameQueries;
          out.acct.failed += kFrameQueries;
        } else {
          const double rtt = static_cast<double>(arrival - f.at) / 1e3;
          for (std::size_t i = 0; i < kFrameQueries; ++i) {
            const net::WireAnswer& a = reply.answers[i];
            if (!same_wire_fields(traffic.reference[f.pos + i], a.status,
                                  a.hops, a.header_bits)) {
              ++out.acct.mismatched;
            }
            if (a.status != static_cast<std::uint8_t>(
                                croute::RouteStatus::kDelivered)) {
              ++out.acct.failed;
            }
            out.sojourn_us.push_back(rtt);
          }
          out.done_ns.push_back(arrival);
          out.answered += kFrameQueries;
          if (arrival <= window_end) out.answered_in_window += kFrameQueries;
        }
        if (arrival < window_end) {
          send(c);
          ++outstanding;
        }
        if (arrival >= slice_end && arrival < window_end) {
          const std::uint64_t cpu = process_cpu_ns() - thread_cpu_ns();
          if (out.answered > slice_answered) {
            slice_cpu.push_back(static_cast<double>(cpu - slice_cpu0) /
                                static_cast<double>(out.answered -
                                                    slice_answered));
          }
          slice_cpu0 = cpu;
          slice_answered = out.answered;
          slice_end += slice_ns;
        }
      }
    }
  }
  out.service_cpu_ns_per_query = median(slice_cpu);
  out.unanswered_frames = outstanding;
  out.failed += outstanding * kFrameQueries;
  out.acct.failed += outstanding * kFrameQueries;
  out.acct.attempted += outstanding * kFrameQueries;
  return out;
}

void drain_wire(std::vector<croute::net::NetClient>& conns, int quiet_ms,
                int max_ms) {
  croute::net::Reply reply;
  const std::uint64_t start = now_ns();
  std::uint64_t last = start;
  while (seconds_since(start) * 1e3 < max_ms &&
         static_cast<double>(now_ns() - last) / 1e6 < quiet_ms) {
    for (auto& c : conns) {
      while (c.try_read_reply(reply, 1)) last = now_ns();
    }
  }
}

double ladder_search(const WorkloadSpec& spec,
                     const std::function<PointResult(double)>& probe,
                     std::uint32_t* probes_out) {
  std::uint32_t probes = 0;
  const auto rate = [&](std::uint32_t i) {
    return spec.ladder_lo * std::pow(spec.ladder_ratio, i);
  };
  const auto pass = [&](std::uint32_t i, double* achieved) {
    ++probes;
    const PointResult r = probe(rate(i));
    if (achieved != nullptr) *achieved = r.achieved_qps();
    std::printf("  ladder rung %2u: offered %9.0f achieved %9.0f p50 %8.1fus "
                "p99 %8.1fus failed %llu -> %s\n",
                i, rate(i), r.achieved_qps(), percentile(r.sojourn_us, 50),
                r.p99(), static_cast<unsigned long long>(r.acct.failures()),
                r.meets_slo() ? "meets SLO" : "misses SLO");
    return r.meets_slo();
  };
  double best = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = spec.ladder_rungs - 1;
  if (!pass(lo, &best)) {
    best = 0;
  } else {
    double top = 0;
    if (pass(hi, &top)) {
      best = top;
    } else {
      while (hi - lo > 1) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        double got = 0;
        if (pass(mid, &got)) {
          lo = mid;
          best = got;
        } else {
          hi = mid;
        }
      }
    }
  }
  if (probes_out != nullptr) *probes_out = probes;
  return best;
}

}  // namespace perfbench
