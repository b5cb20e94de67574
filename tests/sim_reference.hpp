// SimReference: the sim/ harness as the reference a RouteService is
// checked against. Shared by the service equivalence tests and the S1
// bench's per-run identity column.

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/scheme_io.hpp"
#include "service/route_service.hpp"
#include "service/scheme_package.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace croute {

/// Reference answers for a batch, shaped as RouteAnswers so a served
/// batch compares with same_route. answers[i].path views paths[i].
struct ReferenceBatch {
  std::vector<std::vector<VertexId>> paths;
  std::vector<RouteAnswer> answers;
};

/// The sim/ reference for a service configuration: the scheme
/// preprocessed from the same seeds build_scheme_package uses (or loaded
/// from the same warm-start file), routed hop by hop through the
/// Simulator's per-scheme adapters.
struct SimReference {
  SchemeKind kind;
  bool record_path;
  Simulator sim;
  std::unique_ptr<TZScheme> tz;
  std::unique_ptr<CowenScheme> cowen;
  std::unique_ptr<FullTableScheme> full;

  SimReference(const Graph& g, const RouteServiceOptions& opt,
               bool record_path = true)
      : kind(opt.scheme),
        record_path(record_path),
        sim(g, SimOptions{0, record_path}) {
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

  /// The reference answers for \p queries. Self-queries get the
  /// service's defined answer (delivered, 0 hops, 0 header bits, stretch
  /// 1, path {s}); the Simulator has no notion of them. Stretch is
  /// length / exact for delivered queries with a known distance.
  ReferenceBatch serve(std::span<const RouteQuery> queries) const {
    ReferenceBatch out;
    out.paths.resize(queries.size());
    out.answers.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const RouteQuery& q = queries[i];
      RouteAnswer& a = out.answers[i];
      std::vector<VertexId>& path = out.paths[i];
      if (q.s == q.t) {
        a.status = RouteStatus::kDelivered;
        a.stretch = 1.0;
        if (record_path) path.push_back(q.s);
      } else {
        RouteResult r = route(q.s, q.t);
        a.status = r.status;
        a.length = r.length;
        a.hops = r.hops;
        a.header_bits = r.header_bits;
        if (a.delivered() && q.exact > 0) a.stretch = a.length / q.exact;
        path = std::move(r.path);
      }
      a.path = PathView{path.data(), path.size(), nullptr, 0};
    }
    return out;
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
