/// \file bench_common.hpp
/// \brief Shared scaffolding for the experiment binaries.
///
/// Every bench prints a uniform banner (experiment id, the paper claim it
/// reproduces, the workload recipe) followed by TextTable rows;
/// EXPERIMENTS.md quotes these tables verbatim. All binaries accept
/// `--seed`, `--pairs` and a size scale so reviewers can rerun larger
/// instances; the defaults complete on a single core in tens of seconds.
///
/// Benches that track a trajectory across PRs additionally accept
/// `--json out.json` and dump their headline numbers through JsonReport —
/// a deliberately tiny writer (flat object of scalars plus arrays of flat
/// objects) so results land in version-controllable BENCH_*.json files
/// without pulling in a JSON library.

#pragma once

#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "simd/simd.hpp"

namespace croute::bench {

/// Prints the experiment banner.
inline void banner(const char* id, const char* claim, const char* workload) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("[%s] %s\n", id, claim);
  std::printf("workload: %s\n", workload);
  std::printf("---------------------------------------------------------------"
              "-----------------\n");
}

/// Wall-clock stopwatch in seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Machine-readable results: an insertion-ordered flat JSON object whose
/// values are numbers, strings, or arrays of flat objects ("rows").
class JsonReport {
 public:
  JsonReport& set(const std::string& key, double value) {
    scalars_.emplace_back(key, number(value));
    return *this;
  }
  JsonReport& set(const std::string& key, std::uint64_t value) {
    scalars_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& set(const std::string& key, int value) {
    scalars_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& set(const std::string& key, const std::string& value) {
    scalars_.emplace_back(key, quote(value));
    return *this;
  }

  /// One row of the array named \p array_key (created on first use;
  /// arrays render after the scalars, in first-use order). Returned
  /// references stay valid across later add_row calls (deque-backed), so
  /// rows may be filled incrementally across statements.
  class Row {
   public:
    Row& set(const std::string& key, double value) {
      fields_.emplace_back(key, number(value));
      return *this;
    }
    Row& set(const std::string& key, std::uint64_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Row& set(const std::string& key, int value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Row& set(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, quote(value));
      return *this;
    }

   private:
    friend class JsonReport;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Row& add_row(const std::string& array_key) {
    for (auto& [name, rows] : arrays_) {
      if (name == array_key) {
        rows.emplace_back();
        return rows.back();
      }
    }
    arrays_.emplace_back(array_key, std::deque<Row>{});
    arrays_.back().second.emplace_back();
    return arrays_.back().second.back();
  }

  /// Serializes the report (pretty-printed, stable order).
  std::string dump() const {
    std::string out = "{\n";
    bool first = true;
    for (const auto& [key, value] : scalars_) {
      if (!first) out += ",\n";
      first = false;
      out += "  " + quote(key) + ": " + value;
    }
    for (const auto& [key, rows] : arrays_) {
      if (!first) out += ",\n";
      first = false;
      out += "  " + quote(key) + ": [\n";
      for (std::size_t r = 0; r < rows.size(); ++r) {
        out += "    {";
        for (std::size_t f = 0; f < rows[r].fields_.size(); ++f) {
          if (f > 0) out += ", ";
          out += quote(rows[r].fields_[f].first) + ": " +
                 rows[r].fields_[f].second;
        }
        out += r + 1 < rows.size() ? "},\n" : "}\n";
      }
      out += "  ]";
    }
    out += "\n}\n";
    return out;
  }

  /// Writes dump() to \p path; throws std::runtime_error on I/O failure.
  void write(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open " + path);
    os << dump();
    if (!os) throw std::runtime_error("failed writing " + path);
  }

 private:
  static std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  std::vector<std::pair<std::string, std::string>> scalars_;
  std::deque<std::pair<std::string, std::deque<Row>>> arrays_;
};

/// Stamps host metadata into \p report (host_cores, host_compiler,
/// host_build_flags): the BENCH_*.json trajectory spans machines — dev
/// container, CI runners, contributors' laptops — and absolute ns/qps
/// numbers are only interpretable next to the hardware and build that
/// produced them. CROUTE_BUILD_FLAGS is injected by CMakeLists.txt for
/// bench targets; a build outside CMake reports "unknown".
inline void add_host_metadata(JsonReport& report) {
  report.set("host_cores",
             std::uint64_t{std::thread::hardware_concurrency()});
#if defined(__clang__)
  report.set("host_compiler", std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  report.set("host_compiler", std::string("gcc ") + __VERSION__);
#else
  report.set("host_compiler", std::string("unknown"));
#endif
#ifdef CROUTE_BUILD_FLAGS
  report.set("host_build_flags", std::string(CROUTE_BUILD_FLAGS));
#else
  report.set("host_build_flags", std::string("unknown"));
#endif
  // The SIMD implementation the run dispatched to (honors CROUTE_SIMD /
  // force()): a 55 ns decision on avx2 and a 70 ns one on generic are
  // different experiments, so the trajectory files must say which ran.
  report.set("host_simd_isa", std::string(simd::ops().name));
}

/// Parses and validates a `--batch-group N` value: the pipeline group
/// size must be a power of two up to 4096 (the sweep grid is 16/32/64).
/// Throws std::runtime_error with a message naming the flag.
inline std::uint32_t parse_batch_group(const std::string& value) {
  std::size_t used = 0;
  unsigned long parsed = 0;
  try {
    parsed = std::stoul(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  const bool numeric = used == value.size() && !value.empty();
  const bool pow2 =
      parsed > 0 && parsed <= 4096 && (parsed & (parsed - 1)) == 0;
  if (!numeric || !pow2) {
    throw std::runtime_error(
        "--batch-group expects a power of two (e.g. 16, 32, 64), got '" +
        value + "'");
  }
  return static_cast<std::uint32_t>(parsed);
}

}  // namespace croute::bench
