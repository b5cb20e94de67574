#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sample.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sample[std::min(idx, sample.size() - 1)];
}

double median(std::vector<double> sample) { return percentile(sample, 50); }

double windowed_percentile(const std::vector<double>& sample, double q,
                           std::size_t windows) {
  if (sample.empty()) return 0;
  windows = std::max<std::size_t>(1, std::min(windows, sample.size()));
  std::vector<double> tails;
  const std::size_t per = sample.size() / windows;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto lo = sample.begin() + static_cast<std::ptrdiff_t>(w * per);
    const auto hi = w + 1 == windows
                        ? sample.end()
                        : lo + static_cast<std::ptrdiff_t>(per);
    tails.push_back(percentile(std::vector<double>(lo, hi), q));
  }
  return median(tails);
}

double windowed_rate(const std::vector<std::uint64_t>& done_ns, double unit,
                     std::uint64_t t0, double window_s, std::size_t windows) {
  if (window_s <= 0 || windows == 0) return 0;
  const double slice_ns = window_s * 1e9 / static_cast<double>(windows);
  std::vector<double> counts(windows, 0);
  for (const std::uint64_t t : done_ns) {
    if (t < t0) continue;
    const auto w = static_cast<std::size_t>(static_cast<double>(t - t0) /
                                            slice_ns);
    if (w < windows) counts[w] += unit;
  }
  return median(counts) / (slice_ns / 1e9);
}

void SpanLog::append(const SpanLog& other) {
  if (!enabled_) return;
  // Appended whole (parents must stay in the log), past the cap if need
  // be: the other log is itself capped.
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
  dropped_ += other.dropped_;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.t1 >= s.t0) {
      child_us[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.t1 - s.t0) / 1e3;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.t1 < s.t0) continue;  // never closed
    SelfTime& st = by_name[s.name];
    st.name = s.name;
    const double dur = static_cast<double>(s.t1 - s.t0) / 1e3;
    ++st.count;
    st.total_us += dur;
    st.self_us += std::max(0.0, dur - child_us[i]);
  }
  std::vector<SelfTime> out;
  for (auto& [name, st] : by_name) out.push_back(st);
  return out;
}

std::string spans_to_json(const std::vector<Span>& spans) {
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& s : spans) origin = std::min(origin, s.t0);
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.t1 < s.t0) continue;
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.t0 - origin) / 1e3,
                  static_cast<double>(s.t1 - s.t0) / 1e3,
                  static_cast<unsigned long long>(s.id), i, s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::vector<WorkloadSpec> workload_specs(bool tiny) {
  using croute::SchemeKind;
  using croute::WorkloadKind;
  std::vector<WorkloadSpec> specs;

  WorkloadSpec wire;
  wire.name = "wire-uniform";
  wire.wire = true;
  wire.n = 10000;
  wire.scheme = SchemeKind::kTZDirect;
  wire.traffic = WorkloadKind::kUniform;
  wire.nominal_qps = 100e3;
  wire.ladder_lo = 100e3;
  wire.ladder_ratio = 1.1;
  wire.ladder_rungs = 35;
  wire.recover_reps = 5;
  specs.push_back(wire);

  WorkloadSpec hot = wire;
  hot.name = "wire-hotspot-labels";
  hot.labels = true;
  hot.traffic = WorkloadKind::kHotspot;
  specs.push_back(hot);

  WorkloadSpec far;
  far.name = "inproc-far";
  far.n = 50000;
  far.scheme = SchemeKind::kTZHandshake;
  far.traffic = WorkloadKind::kFarPairs;
  far.source_pool = 64;
  far.nominal_qps = 300e3;
  far.ladder_lo = 100e3;
  far.ladder_ratio = 1.1;
  far.ladder_rungs = 30;
  specs.push_back(far);

  WorkloadSpec churn;
  churn.name = "churn";
  churn.churn = true;
  churn.n = 10000;
  churn.scheme = SchemeKind::kTZDirect;
  churn.traffic = WorkloadKind::kUniform;
  churn.nominal_qps = 300e3;
  churn.ladder_lo = 100e3;
  churn.ladder_ratio = 1.1;
  churn.ladder_rungs = 35;
  churn.churn_cycles = 4;
  churn.recover_reps = 5;
  churn.compile_threads = 1;
  specs.push_back(churn);

  if (tiny) {
    for (WorkloadSpec& s : specs) {
      s.n = 600;
      s.traffic_queries = 4096;
      s.nominal_qps = 20e3;
      s.ladder_lo = 10e3;
      s.ladder_ratio = 1.5;
      s.ladder_rungs = 4;
      s.setup_reps = 1;
      s.recover_reps = 1;
      if (s.churn) s.churn_cycles = 2;
    }
  }
  return specs;
}

}  // namespace perfbench
