/// \file scheme_io.hpp
/// \brief Persisting preprocessed routing schemes.
///
/// Preprocessing costs Õ(n^{1+1/k}); routing state is Õ(n^{1/k}) per
/// vertex. A deployment preprocesses once, saves, and ships tables to
/// routers. save_scheme/load_scheme persist everything the routing
/// algorithms consult — hierarchy, pivots, tables, cluster directories,
/// labels — in a versioned binary format with a graph fingerprint so a
/// scheme cannot silently be loaded against the wrong network.
///
/// Loaded schemes are behaviorally identical: every header prepared and
/// every hop decided from a loaded scheme equals the original's (tested
/// exhaustively in test_scheme_io). The optional FKS index is rebuilt on
/// load (it is derived state; its randomness does not affect results).
///
/// This stream is the only stored copy of a TZ generation's routing
/// state: artifact recovery (src/persist) loads it and recompiles the
/// flat serving view from it. So the loader trusts nothing it reads —
/// every count is bounded by the bytes left, and every vertex id, level
/// and light-port slice the flat compile or the routers index through is
/// range-checked; a corrupt stream throws std::invalid_argument.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/tz_scheme.hpp"

namespace croute {

/// Writes \p scheme to \p os. Throws std::invalid_argument on I/O errors.
void save_scheme(std::ostream& os, const TZScheme& scheme);

/// Reads a scheme bound to \p g from the bytes save_scheme wrote. Throws
/// std::invalid_argument on format, version, or graph-fingerprint
/// mismatch, and on any truncated or out-of-range field. The graph must
/// outlive the returned scheme; \p bytes need not.
TZScheme load_scheme(std::string_view bytes, const Graph& g);

/// File convenience wrappers (load_scheme_file reads the whole file, then
/// calls load_scheme).
void save_scheme_file(const std::string& path, const TZScheme& scheme);
TZScheme load_scheme_file(const std::string& path, const Graph& g);

/// Structural fingerprint of a graph (order-independent over arcs):
/// detects routing state loaded against the wrong network.
std::uint64_t graph_fingerprint(const Graph& g);

}  // namespace croute
