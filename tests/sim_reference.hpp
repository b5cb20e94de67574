// SimReference: the sim/ harness as the reference a RouteService is
// checked against. Shared by the service equivalence tests and the S1
// bench's per-run identity column.

#pragma once

#include <memory>

#include "core/scheme_io.hpp"
#include "service/scheme_package.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace croute {

/// The sim/ reference for a service configuration: the scheme
/// preprocessed from the same seeds build_scheme_package uses (or loaded
/// from the same warm-start file), routed hop by hop through the
/// Simulator's per-scheme adapters.
struct SimReference {
  SchemeKind kind;
  Simulator sim;
  std::unique_ptr<TZScheme> tz;
  std::unique_ptr<CowenScheme> cowen;
  std::unique_ptr<FullTableScheme> full;

  SimReference(const Graph& g, const RouteServiceOptions& opt,
               bool record_path = true)
      : kind(opt.scheme), sim(g, SimOptions{0, record_path}) {
    Rng rng(opt.seed);
    switch (kind) {
      case SchemeKind::kTZDirect:
      case SchemeKind::kTZHandshake: {
        if (!opt.warm_start_path.empty()) {
          tz = std::make_unique<TZScheme>(
              load_scheme_file(opt.warm_start_path, g));
          break;
        }
        TZSchemeOptions topt;
        topt.pre.k = opt.k;
        topt.pre.hierarchy.mode = opt.sampling;
        tz = std::make_unique<TZScheme>(g, topt, rng);
        break;
      }
      case SchemeKind::kCowen:
        cowen = std::make_unique<CowenScheme>(g, rng);
        break;
      case SchemeKind::kFullTable:
        full = std::make_unique<FullTableScheme>(g);
        break;
    }
  }

  RouteResult route(VertexId s, VertexId t) const {
    switch (kind) {
      case SchemeKind::kTZDirect: return route_tz(sim, *tz, s, t);
      case SchemeKind::kTZHandshake:
        return route_tz_handshake(sim, *tz, s, t);
      case SchemeKind::kCowen: return route_cowen(sim, *cowen, s, t);
      case SchemeKind::kFullTable: return route_full(sim, *full, s, t);
    }
    return {};
  }

  std::uint64_t table_bits(VertexId v) const {
    switch (kind) {
      case SchemeKind::kTZDirect:
      case SchemeKind::kTZHandshake: return tz->table_bits(v);
      case SchemeKind::kCowen: return cowen->table_bits(v);
      case SchemeKind::kFullTable: return full->table_bits(v);
    }
    return 0;
  }
};

}  // namespace croute
