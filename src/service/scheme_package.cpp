#include "service/scheme_package.hpp"

#include <chrono>
#include <stdexcept>

#include "baseline/cowen.hpp"
#include "baseline/full_table.hpp"
#include "core/scheme_io.hpp"
#include "graph/connectivity.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace croute {

const char* scheme_name(SchemeKind kind) noexcept {
  switch (kind) {
    case SchemeKind::kTZDirect: return "tz";
    case SchemeKind::kTZHandshake: return "tz-handshake";
    case SchemeKind::kCowen: return "cowen";
    case SchemeKind::kFullTable: return "full";
  }
  return "?";
}

SchemeKind parse_scheme(const std::string& name) {
  if (name == "tz") return SchemeKind::kTZDirect;
  if (name == "tz-handshake" || name == "handshake")
    return SchemeKind::kTZHandshake;
  if (name == "cowen") return SchemeKind::kCowen;
  if (name == "full" || name == "full-table") return SchemeKind::kFullTable;
  throw std::invalid_argument("unknown scheme: " + name +
                              " (want tz|tz-handshake|cowen|full)");
}

const char* sampling_name(SamplingMode mode) noexcept {
  return mode == SamplingMode::kCentered ? "centered" : "bernoulli";
}

SamplingMode parse_sampling(const std::string& name) {
  if (name == "centered") return SamplingMode::kCentered;
  if (name == "bernoulli") return SamplingMode::kBernoulli;
  throw std::invalid_argument("unknown sampling mode: " + name +
                              " (want centered|bernoulli)");
}

std::string RouteServiceOptions::validate() const {
  if (batch_group == 0) {
    return "batch_group = 0 (scalar batch serving) was removed: every "
           "batch runs through the pipelined engine; set batch_group to a "
           "power of two up to " +
           std::to_string(kMaxBatchGroup) + " (1 = one descent at a time)";
  }
  if ((batch_group & (batch_group - 1)) != 0 ||
      batch_group > kMaxBatchGroup) {
    return "batch_group must be a power of two up to " +
           std::to_string(kMaxBatchGroup) + " (e.g. 16, 32, 64); got " +
           std::to_string(batch_group);
  }
  const bool is_tz =
      scheme == SchemeKind::kTZDirect || scheme == SchemeKind::kTZHandshake;
  if (is_tz && k < 1) {
    return "k must be >= 1 for TZ schemes; got " + std::to_string(k);
  }
  if (is_tz && k > 64) {
    return "k = " + std::to_string(k) +
           " is past any useful hierarchy depth (want 1..64)";
  }
  if (!warm_start_path.empty() && !is_tz) {
    return std::string("warm start: '") + warm_start_path +
           "' is a scheme_io TZ preprocessing file, which scheme '" +
           scheme_name(scheme) +
           "' cannot load — drop --warm, or use --artifact-dir (the persist "
           "tier covers every scheme kind)";
  }
  if (persist.dir.empty() && persist.retain != 2) {
    return "persist.retain is set but persist.dir is empty — persistence "
           "is off; set persist.dir or drop the retain override";
  }
  if (!persist.dir.empty() && persist.retain < 1) {
    return "persist.retain must be >= 1 (the live artifact itself); got 0";
  }
  return "";
}

std::uint64_t SchemePackage::table_bits(VertexId v) const {
  switch (options.scheme) {
    case SchemeKind::kTZDirect:
    case SchemeKind::kTZHandshake: return tz->table_bits(v);
    case SchemeKind::kCowen: return flat_cowen->table_bits(v);
    case SchemeKind::kFullTable: return flat_full->table_bits(v);
  }
  return 0;
}

FlatBatchTarget flat_batch_target(const SchemePackage& pkg) {
  FlatBatchTarget target;
  target.graph = pkg.graph.get();
  target.flat = pkg.flat.get();
  target.cowen = pkg.flat_cowen.get();
  target.full = pkg.flat_full.get();
  switch (pkg.options.scheme) {
    case SchemeKind::kTZDirect:
      target.kind = FlatServeKind::kTZDirect;
      break;
    case SchemeKind::kTZHandshake:
      target.kind = FlatServeKind::kTZHandshake;
      break;
    case SchemeKind::kCowen:
      target.kind = FlatServeKind::kCowen;
      break;
    case SchemeKind::kFullTable:
      target.kind = FlatServeKind::kFullTable;
      break;
  }
  return target;
}

std::unique_ptr<ThreadPool> make_setup_pool(
    const RouteServiceOptions& options) {
  const unsigned threads = options.compile_threads != 0
                               ? options.compile_threads
                               : worker_count();
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

void compile_flat_view(SchemePackage& pkg, ThreadPool* pool) {
  FlatSchemeOptions fopt;
  fopt.pool = pool;
  pkg.flat = std::make_unique<const FlatScheme>(*pkg.tz, fopt);
  pkg.flat_router = std::make_unique<const FlatRouter>(*pkg.flat);
  pkg.flat_stats = pkg.flat->compile_stats();
}

namespace {

/// Shared body of the two public builders. When \p previous is non-null
/// the TZ preprocessing runs delta-aware (the caller has already
/// verified compatibility); everything else — flat compile, baselines,
/// timings — is identical, as are the produced bytes.
SchemePackagePtr build_package(std::shared_ptr<const Graph> graph,
                               const RouteServiceOptions& options,
                               const SchemePackage* previous,
                               IncrementalRebuildStats incr_stats) {
  using clock = std::chrono::steady_clock;
  CROUTE_REQUIRE(graph != nullptr, "build_scheme_package needs a graph");
  const Graph& g = *graph;
  CROUTE_REQUIRE(g.num_vertices() >= 2, "RouteService needs >= 2 vertices");
  CROUTE_REQUIRE(is_connected(g),
                 "RouteService requires a connected graph (route per "
                 "component via PartitionedScheme upstream)");
  const bool is_tz = options.scheme == SchemeKind::kTZDirect ||
                     options.scheme == SchemeKind::kTZHandshake;
  if (!options.warm_start_path.empty() && !is_tz) {
    // User input (a CLI flag combination) lands here: be actionable, not
    // terse — say what to change, and point at the path that does cover
    // this scheme kind.
    throw std::invalid_argument(
        std::string("warm start: '") + options.warm_start_path +
        "' is a scheme_io TZ preprocessing file, which scheme '" +
        scheme_name(options.scheme) +
        "' cannot load — drop --warm, or use --artifact-dir (the persist "
        "tier covers every scheme kind)");
  }

  const auto begin = clock::now();
  auto pkg = std::make_shared<SchemePackage>();
  pkg->options = options;
  pkg->graph = std::move(graph);
  switch (options.scheme) {
    case SchemeKind::kTZDirect:
    case SchemeKind::kTZHandshake: {
      // One set-up pool, created before preprocessing and shared by the
      // TZ build (sampling, cluster sweep, finalize) and the flat
      // compile; both produce the same bytes at every pool size.
      const std::unique_ptr<ThreadPool> setup_pool = make_setup_pool(options);
      ThreadPool* pool = setup_pool.get();
      TZSchemeOptions opt;
      opt.pre.k = options.k;
      opt.pre.hierarchy.mode = options.sampling;
      Rng rng(options.seed);
      if (!options.warm_start_path.empty()) {
        pkg->tz = std::make_unique<const TZScheme>(
            load_scheme_file(options.warm_start_path, g));
      } else if (previous != nullptr) {
        const auto diff_begin = clock::now();
        const GraphDelta delta = diff_graphs(*previous->graph, g);
        incr_stats.diff_s =
            std::chrono::duration<double>(clock::now() - diff_begin).count();
        pkg->tz = std::make_unique<const TZScheme>(rebuild_tz_incremental(
            *previous->tz, g, delta, opt, rng, &incr_stats, pool));
      } else {
        pkg->tz = std::make_unique<const TZScheme>(g, opt, rng, pool,
                                                   &pkg->tz_phases);
      }
      compile_flat_view(*pkg, pool);
      break;
    }
    case SchemeKind::kCowen: {
      Rng rng(options.seed);
      // Preprocess, compile the pooled view, drop the preprocessing.
      const CowenScheme cowen(g, rng);
      pkg->flat_cowen = std::make_unique<const FlatCowen>(cowen, g);
      break;
    }
    case SchemeKind::kFullTable: {
      FullTableScheme full(g);
      pkg->flat_full =
          std::make_unique<const FlatFullTable>(std::move(full), g);
      break;
    }
  }
  pkg->incr_stats = incr_stats;
  pkg->build_seconds = std::chrono::duration<double>(clock::now() - begin).count();
  return pkg;
}

}  // namespace

SchemePackagePtr build_scheme_package(std::shared_ptr<const Graph> graph,
                                      const RouteServiceOptions& options) {
  return build_package(std::move(graph), options, nullptr, {});
}

SchemePackagePtr build_scheme_package_incremental(
    SchemePackagePtr previous, std::shared_ptr<const Graph> graph,
    const RouteServiceOptions& options) {
  const bool is_tz = options.scheme == SchemeKind::kTZDirect ||
                     options.scheme == SchemeKind::kTZHandshake;
  // Every fallback keeps the build correct (full preprocessing produces
  // the same bytes); the reason is recorded so telemetry can say why a
  // rebuild did not reuse.
  const char* fallback = nullptr;
  if (!is_tz) {
    fallback = "non-tz scheme";
  } else if (!options.warm_start_path.empty()) {
    fallback = "warm start requested";
  } else if (previous == nullptr || previous->tz == nullptr ||
             previous->graph == nullptr) {
    fallback = "no previous generation";
  } else if (!previous->options.warm_start_path.empty()) {
    // A warm-started generation's preprocessing bytes are not a
    // function of options.seed, so its trees cannot anchor the
    // byte-identity contract.
    fallback = "previous generation was warm-started";
  } else if (previous->graph->num_vertices() != graph->num_vertices()) {
    fallback = "vertex set changed";
  } else if (previous->options.k != options.k ||
             previous->options.seed != options.seed ||
             previous->options.sampling != options.sampling) {
    fallback = "construction options changed";
  }
  if (fallback != nullptr) {
    IncrementalRebuildStats stats;
    stats.fallback_reason = fallback;
    return build_package(std::move(graph), options, nullptr, stats);
  }
  return build_package(std::move(graph), options, previous.get(), {});
}

}  // namespace croute
