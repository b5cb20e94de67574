/// \file tz_build.hpp
/// \brief Shared internals of TZ scheme construction (fresh + incremental).
///
/// The delta-aware rebuilder (incremental_rebuild.cpp) promises results
/// **byte-identical** to the fresh constructor (tz_scheme.cpp). That
/// contract would be one unsynchronized edit away from silently breaking
/// if the two kept private copies of the construction bodies, so the
/// pieces both must agree on live here and nowhere else:
///
///  - the per-vertex scatter buffers (PendingTable) whose append order
///    defines the serialized light-pool layout;
///  - the label-skeleton pass (effective pivots per destination and the
///    needed[w] extraction lists);
///  - the per-cluster consumer (tree-routing structures, rule-0
///    directory, table scatter, label extraction);
///  - the fresh constructor's cluster sweep, serial or on a pool.
///
/// Consuming a cluster splits into two halves. prepare_cluster writes
/// only slots owned by its center (the rule-0 directory of w and the
/// label entries listed in needed[w]), so distinct centers may run it
/// concurrently. scatter_cluster appends to the members' PendingTables,
/// whose order is the byte layout: per vertex, appends must arrive in
/// ascending center order, but disjoint vertex ranges are independent.
///
/// Internal header: not part of the public scheme API.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/tz_labels.hpp"
#include "core/tz_tables.hpp"
#include "graph/spt.hpp"

namespace croute {

class TZPreprocessing;
class ThreadPool;

namespace tz_build {

/// Scatter buffers for one vertex's table under construction. The
/// append order (interleaved across the ascending-center sweep) defines
/// every pool offset the serializer writes verbatim.
struct PendingTable {
  std::vector<TableEntry> entries;
  std::vector<Port> light_pool;
};

/// Per-center extraction list: (destination, label entry index) pairs
/// whose tree label must be filled from T_w during the cluster sweep.
using NeededLabels =
    std::vector<std::vector<std::pair<VertexId, std::uint32_t>>>;

/// Dense label-extraction scratch: entry v holds v's local index in the
/// tree being consumed and kNoLocal everywhere else. Sized n (all
/// kNoLocal) once; prepare_cluster sets and resets only the tree's
/// members, so each cluster costs O(|C(w)|) no matter how large an
/// earlier tree was. One per thread.
using LocalIndex = std::vector<std::uint32_t>;

/// The scheme under construction: where consuming a cluster writes.
struct BuildTarget {
  const TreeRoutingScheme::Codec& tree_codec;
  std::uint32_t id_bits;
  std::vector<PendingTable>& pending;  ///< one per vertex
  std::vector<ClusterDirectory>& dirs;  ///< one per vertex
  std::vector<RoutingLabel>& labels;   ///< skeletons from label_skeletons
  const NeededLabels& needed;
};

/// Fills \p labels with the per-destination skeletons (distinct
/// effective pivots, ascending level; tree labels left empty) and
/// returns the needed[w] extraction lists.
NeededLabels label_skeletons(const TZPreprocessing& pre,
                             std::vector<RoutingLabel>& labels);

/// The order-free half of consuming T_w: builds the tree-routing
/// structures, records the rule-0 directory (level 0) in out.dirs[w],
/// and extracts the labels out.needed[w] asks for from this tree.
/// Writes only slots owned by \p w. Returns the routing structures for
/// scatter_cluster.
TreeRoutingScheme prepare_cluster(const BuildTarget& out, VertexId w,
                                  std::uint32_t level, const LocalTree& tree,
                                  LocalIndex& index);

/// The order-defining half: appends, for every member v of T_w with
/// v ∈ [v_begin, v_end), v's entry for T_w to out.pending[v].
/// \p fresh_contrib (optional) marks vertices that received an entry.
void scatter_cluster(const BuildTarget& out, VertexId w, std::uint32_t level,
                     const LocalTree& tree, const TreeRoutingScheme& trs,
                     VertexId v_begin, VertexId v_end,
                     std::vector<std::uint8_t>* fresh_contrib = nullptr);

/// Both halves for one cluster over every vertex: the serial consumer
/// (the incremental rebuild's freshly built trees use it too).
void consume_cluster(const BuildTarget& out, VertexId w, std::uint32_t level,
                     const LocalTree& tree, LocalIndex& index,
                     std::vector<std::uint8_t>* fresh_contrib = nullptr);

/// The fresh constructor's sweep: builds and consumes every cluster of
/// \p pre. Without a pool (or with one worker) it streams clusters in
/// ascending center id, one tree in memory at a time. With a pool it
/// processes windows of ascending centers: the trees of a window are
/// built and prepared in parallel, then scattered by vertex range, each
/// range walking the window in center order. Every PendingTable thus
/// sees the serial append order, and the result is byte-identical at
/// every pool size. A window holds at most kSweepWindow trees, and at
/// most one whole-graph (top-level) tree per pool worker.
void sweep_clusters(const TZPreprocessing& pre, const BuildTarget& out,
                    ThreadPool* pool);

/// Most centers one parallel sweep window holds.
inline constexpr std::uint32_t kSweepWindow = 2048;

}  // namespace tz_build
}  // namespace croute
