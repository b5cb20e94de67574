/// \file cli.hpp
/// \brief Shared command-line setup for serving binaries.
///
/// The example front end and the serving benches all answer the same four
/// questions — which graph, which scheme, which traffic, how to drive it —
/// and before this helper each binary parsed and validated its own copy of
/// the flags, so defaults and error messages drifted (the example accepted
/// `--family=grid`, the bench didn't; both re-implemented the batch-group
/// power-of-two check). ServiceSetup centralizes the parse, funnels every
/// consistency check through the options' own validate() methods, and
/// leaves binary-specific flags (thread sweeps, JSON output, listen ports)
/// to the binaries.
///
/// Shared flags: --graph=FILE | --family=NAME --n=N [--weighted]
/// --scheme --k --sampling --seed --threads --batch-group
/// --warm=FILE --artifact-dir --artifact-retain --rebuild-retries
/// [--no-metrics] --workload --queries --batch --source-pool
///
/// Integer flags are range-checked against the field they set: a value
/// the field cannot hold (--threads=-1, --batch-group=4294967312) is
/// rejected with the flag's name instead of wrapping. --batch-group is
/// the pipeline depth of batched serving, a power of two from 1 to 4096;
/// validate() rejects 0.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/flags.hpp"

namespace croute {

/// Parses an experiment-family name ("er", "ba", "grid", ...). Throws
/// std::invalid_argument listing the accepted names on anything else.
GraphFamily parse_family(const std::string& name);

/// Everything a serving binary needs to stand up a RouteService and a
/// traffic stream, parsed from shared flags. Binary-specific knobs stay
/// in the binary.
struct ServiceSetup {
  // --- graph source ---
  std::string graph_path;              ///< --graph; wins over family/n
  GraphFamily family = GraphFamily::kErdosRenyi;
  VertexId n = 10000;
  bool weighted = false;

  std::uint64_t seed = 7;  ///< base seed; nested seeds derive from it

  // --- service / traffic / driver, each with its own validate() ---
  RouteServiceOptions service;
  WorkloadKind workload = WorkloadKind::kUniform;
  std::uint32_t queries = 100000;
  bool exact = false;  ///< attach exact distances (stretch accounting)
  TrafficOptions traffic;
  DriverOptions driver;

  /// First inconsistency across every nested options struct (service,
  /// traffic, driver) plus the cross-field checks only the aggregate can
  /// see; "" when the whole setup is serviceable.
  std::string validate() const;

  /// Loads --graph when given, else generates the (family, n) workload
  /// deterministically from \ref seed.
  Graph build_graph() const;

  /// Generates the configured traffic over \p g (deterministic in seed),
  /// attaching exact distances when \ref exact or the workload needs
  /// them.
  std::vector<RouteQuery> build_traffic(const Graph& g) const;
};

/// Parses the shared flags into a ServiceSetup and validates it (throws
/// std::invalid_argument on an out-of-range integer flag, and with the
/// validate() message on inconsistency).
ServiceSetup parse_service_setup(const Flags& flags);

}  // namespace croute
