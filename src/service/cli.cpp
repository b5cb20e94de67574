#include "service/cli.hpp"

#include <limits>
#include <stdexcept>
#include <type_traits>

#include "graph/io.hpp"

namespace croute {

namespace {

/// Flags::get_int narrowed to the unsigned field it sets. A bare
/// static_cast would wrap out-of-range input silently (--threads=-1
/// asking for 2^32 - 1 workers), so anything the field cannot hold is
/// rejected with the flag's name.
template <typename T>
T get_unsigned(const Flags& flags, const std::string& name, T fallback) {
  static_assert(std::is_unsigned_v<T>);
  const std::int64_t v =
      flags.get_int(name, static_cast<std::int64_t>(fallback));
  if (v < 0 ||
      static_cast<std::uint64_t>(v) > std::numeric_limits<T>::max()) {
    throw std::invalid_argument(
        "--" + name + "=" + std::to_string(v) + " is out of range (want 0.." +
        std::to_string(std::numeric_limits<T>::max()) + ")");
  }
  return static_cast<T>(v);
}

}  // namespace

GraphFamily parse_family(const std::string& name) {
  if (name == "er") return GraphFamily::kErdosRenyi;
  if (name == "geometric") return GraphFamily::kGeometric;
  if (name == "grid") return GraphFamily::kGrid;
  if (name == "torus") return GraphFamily::kTorus;
  if (name == "ba") return GraphFamily::kBarabasiAlbert;
  if (name == "ws") return GraphFamily::kWattsStrogatz;
  if (name == "ring") return GraphFamily::kRingOfCliques;
  if (name == "tree") return GraphFamily::kRandomTree;
  if (name == "path") return GraphFamily::kPath;
  if (name == "caterpillar") return GraphFamily::kCaterpillar;
  throw std::invalid_argument(
      "unknown family: " + name +
      " (want er|geometric|grid|torus|ba|ws|ring|tree|path|caterpillar)");
}

std::string ServiceSetup::validate() const {
  if (graph_path.empty() && n < 2) {
    return "need --n >= 2 to generate a graph (or pass --graph=FILE)";
  }
  std::string err = service.validate();
  if (!err.empty()) return err;
  err = traffic.validate();
  if (!err.empty()) return err;
  err = driver.validate();
  if (!err.empty()) return err;
  if (queries == 0) return "need --queries >= 1";
  return "";
}

Graph ServiceSetup::build_graph() const {
  if (!graph_path.empty()) return load_graph(graph_path);
  Rng rng(seed);
  return make_workload(family, n, rng, weighted);
}

std::vector<RouteQuery> ServiceSetup::build_traffic(const Graph& g) const {
  Rng rng(seed + 2);
  std::vector<RouteQuery> out = make_traffic(g, workload, queries, rng,
                                             traffic);
  if (exact || workload == WorkloadKind::kFarPairs) {
    attach_exact_distances(g, out);
  }
  return out;
}

ServiceSetup parse_service_setup(const Flags& flags) {
  ServiceSetup setup;
  setup.seed = get_unsigned<std::uint64_t>(flags, "seed", 7);
  setup.graph_path = flags.get_string("graph", "");
  setup.family = parse_family(flags.get_string("family", "er"));
  setup.n = get_unsigned<VertexId>(flags, "n", 10000);
  setup.weighted = flags.get_bool("weighted", false);

  RouteServiceOptions& opt = setup.service;
  opt.scheme = parse_scheme(flags.get_string("scheme", "tz"));
  // Benches sweep --threads as a comma list ("1,2,4") and override
  // per run; a list here means "binary handles it", not a parse error.
  if (flags.get_string("threads", "").find(',') == std::string::npos) {
    opt.threads = get_unsigned<unsigned>(flags, "threads", 0);
  }
  opt.k = get_unsigned<std::uint32_t>(flags, "k", 3);
  opt.sampling = parse_sampling(flags.get_string("sampling", "centered"));
  opt.seed = setup.seed + 1;
  opt.warm_start_path = flags.get_string("warm", "");
  if (flags.has("legacy")) {
    throw std::invalid_argument(
        "--legacy was removed: the service has one (flat) serving path; "
        "sim/ is the reference it is tested against");
  }
  if (flags.has("lookup")) {
    throw std::invalid_argument(
        "--lookup was removed: the flat view has one lookup layout "
        "(Eytzinger)");
  }
  opt.batch_group = get_unsigned(flags, "batch-group", opt.batch_group);
  opt.persist.dir = flags.get_string("artifact-dir", "");
  opt.persist.retain =
      get_unsigned(flags, "artifact-retain", opt.persist.retain);
  opt.persist.rebuild_retries =
      get_unsigned(flags, "rebuild-retries", opt.persist.rebuild_retries);
  opt.metrics = !flags.get_bool("no-metrics", false);

  setup.workload = parse_workload(flags.get_string("workload", "uniform"));
  setup.queries = get_unsigned<std::uint32_t>(flags, "queries", 100000);
  setup.exact = flags.get_bool("exact", false);
  setup.traffic.source_pool =
      get_unsigned<std::uint32_t>(flags, "source-pool", 64);
  setup.driver.batch_size = get_unsigned<std::uint32_t>(flags, "batch", 2048);

  const std::string err = setup.validate();
  if (!err.empty()) throw std::invalid_argument(err);
  return setup;
}

}  // namespace croute
