/// \file flat_scheme.hpp
/// \brief Flat, read-optimized compilation of a TZScheme for the serving
/// hot path.
///
/// The mutable-friendly structures a TZScheme is built into (one
/// `VertexTable` object per vertex, `ClusterDirectory` objects with their
/// own little vectors, `RoutingLabel`s whose tree labels each own a
/// `std::vector<Port>`) are exactly wrong for serving: every query chases
/// pointers across unrelated heap blocks, and every `prepare` materializes
/// a TreeLabel — a heap allocation per query. FlatScheme recompiles an
/// immutable scheme into structure-of-arrays pools shared by all vertices:
///
///  - **tables**: one CSR over all vertices' bunch entries. The *hot* key
///    array (tree roots, the only field a lookup compares) is contiguous
///    and separated from the cold payloads (node record, own-label
///    slices), so a search touches the minimum number of cache lines;
///  - **directories**: the rule-0 member ids pooled the same way, with
///    dfs indices and light-port slices alongside;
///  - **labels**: every destination's entries in one pool; tree labels are
///    (dfs, slice-into-port-pool) views — nothing owns memory per entry.
///
/// One lookup layout sits behind `find` / `dir_find`: each vertex's key
/// slice is permuted into the Eytzinger (BFS-of-a-binary-tree) order and
/// searched by the branch-free descent `i = 2i + (key[i] < w)`. Same
/// O(log |B(v)|) probe count as `std::lower_bound`, but the first few
/// probes share cache lines and the loop has no unpredictable branches.
/// The paper's O(1) two-level (FKS) hash tables stay in the reference
/// TZScheme (`TZSchemeOptions::hash_index`, hash/perfect_hash.hpp); on
/// the serving path a global FKS index lost to this layout on every
/// measured metric — slower walks, larger pools, slower compiles.
///
/// FlatRouter mirrors TZRouter::prepare (the paper's rule: rule 0, then
/// the lowest level whose pivot is in B(s) — TZRouter's kMinLevel) /
/// prepare_handshake / step over the flat view with **zero heap
/// allocation per query**. The pools hold exactly what that rule and the
/// tree walk read; the ablation policies (kMinEstimate, kLabelOnly) and
/// the per-entry levels and distances only they need stay in the sim/
/// reference (TZRouter). Headers carry a pointer into the pooled light
/// ports instead of owning a vector, and wire sizes come from a
/// precomputed bits-by-length table instead of a BitWriter run. Answers
/// are bit-identical to the legacy path (tests/test_flat_scheme.cpp
/// proves it pairwise).
///
/// Compilation parallelizes over an optional ThreadPool (per-vertex table,
/// directory and label slices are disjoint once the CSR offsets are prefix-
/// summed, so the fill passes shard by vertex and the result is
/// byte-identical at every thread count), and `compile_stats()` reports
/// where the compile time went (rebuild telemetry surfaces it per swap).
///
/// The pooled-SoA story extends to the baselines: `FlatCowen` and
/// `FlatFullTable` compile Cowen / full-table preprocessing into the same
/// kind of read-optimized state (Eytzinger cluster keys with ports
/// alongside, label entries with the landmark column pre-resolved, the hop
/// matrix taken over wholesale), so every SchemeKind serves from a flat
/// view and the batch engine (core/flat_batch.hpp) can pipeline all of
/// them.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/tz_router.hpp"
#include "core/tz_scheme.hpp"
#include "simd/simd.hpp"
#include "util/annotations.hpp"
#include "util/prefetch.hpp"

namespace croute {

class ThreadPool;
class CowenScheme;
class FullTableScheme;

namespace flat_detail {

/// Branch-free Eytzinger lower-bound probe over one slice. Returns the
/// 0-based slice position of the key equal to \p x, or len (miss).
CROUTE_HOT inline std::uint32_t eytzinger_find(const VertexId* keys,
                                               std::uint32_t len,
                                               VertexId x) noexcept {
  std::uint32_t i = 1;
  while (i <= len) i = 2 * i + (keys[i - 1] < x);
  i >>= std::countr_one(i) + 1;
  if (i == 0 || keys[i - 1] != x) return len;
  return i - 1;
}

/// Prefetches the cache lines of [p, p + bytes), capped at 8 lines. The
/// per-vertex key slices this guards are a few lines; for the rare larger
/// slice the descent's upper levels (the slice front — that is the point
/// of the Eytzinger order) are still covered.
CROUTE_HOT inline void prefetch_span(const void* p,
                                     std::size_t bytes) noexcept {
  const char* c = static_cast<const char*>(p);
  const std::size_t lines = std::min<std::size_t>((bytes + 63) / 64, 8);
  for (std::size_t l = 0; l < lines; ++l) CROUTE_PREFETCH(c + 64 * l);
}

}  // namespace flat_detail

/// Compilation options.
struct FlatSchemeOptions {
  /// Optional pool to shard the compile passes over (borrowed for the
  /// constructor call only and not kept; nullptr = serial). The compiled
  /// bytes are identical at every pool size.
  ThreadPool* pool = nullptr;
};

/// Where one flat compile's time and space went (rebuild telemetry).
struct FlatCompileStats {
  double tables_ms = 0;       ///< bunch-table pools (offsets + fill)
  double directories_ms = 0;  ///< rule-0 directory pools
  double labels_ms = 0;       ///< destination label pools
  double total_ms = 0;
  std::uint64_t pool_bytes = 0;
  unsigned threads = 1;  ///< compile workers used
};

/// The header carried by packets on the flat path. Unlike TZHeader it owns
/// nothing: `light` points into the FlatScheme pools (or a caller-decoded
/// buffer) and stays valid as long as the scheme does.
struct FlatHeader {
  VertexId target = kNoVertex;     ///< destination vertex (diagnostics)
  VertexId tree_root = kNoVertex;  ///< which tree the packet descends
  std::uint32_t dfs_in = 0;        ///< destination's dfs index in that tree
  const Port* light = nullptr;     ///< light ports of the root → t path
  std::uint32_t light_len = 0;
  std::uint64_t bits = 0;          ///< exact wire size (root id + label)
};

/// An immutable, read-optimized view compiled from a TZScheme. The base
/// scheme must stay alive (pools reference its preprocessing only, but
/// equivalence and diagnostics go through it).
class FlatScheme {
 public:
  /// "not found" sentinel of find / dir_find.
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};

  /// One pooled label entry: the fields the pivot scan and the tree walk
  /// read from a LabelEntry (16 bytes; its level and carried distance
  /// serve only the sim/ ablation policies and are not pooled).
  struct LabelEntryView {
    VertexId w = kNoVertex;
    std::uint32_t dfs_in = 0;     ///< t's dfs index in T_w
    std::uint32_t light_off = 0;  ///< slice into label_light_pool()
    std::uint32_t light_len = 0;
  };

  /// Compiles the flat view (deterministic: the pooled bytes are a pure
  /// function of the scheme — at every pool size).
  CROUTE_DETERMINISTIC explicit FlatScheme(
      const TZScheme& scheme, const FlatSchemeOptions& options = {});

  CROUTE_HOT const TZScheme& base() const noexcept { return *base_; }
  const Graph& graph() const noexcept { return base_->graph(); }
  CROUTE_HOT std::uint32_t k() const noexcept { return base_->k(); }

  /// --- bunch lookups ------------------------------------------------------
  /// Pool index of v's entry for tree root w, or kNotFound. This is the
  /// per-hop operation: one Eytzinger descent over v's key slice.
  CROUTE_HOT std::uint32_t find(VertexId v, VertexId w) const noexcept;

  /// --- staged probes (software-pipelined batch engine) --------------------
  /// One find split into three rounds so a caller can keep G probes in
  /// flight and hide each round's cache miss behind the other lanes'
  /// compute (core/flat_batch.hpp):
  ///   stage0 — prefetch the CSR offset entry; no loads;
  ///   stage1 — read the offsets, prefetch the key slice's cache lines;
  ///   stage2 — resolve: the branch-free descent.
  /// stage2 returns exactly find(v, w) / dir_find(v, t); the stages only
  /// move the dependent misses off the critical path.
  struct FindProbe {
    VertexId v = kNoVertex;
    VertexId w = kNoVertex;
    std::uint32_t off = 0;  ///< slice offset (set by stage1)
    std::uint32_t len = 0;  ///< slice length (set by stage1)
  };

  CROUTE_HOT void find_stage0(FindProbe& p) const noexcept {
    CROUTE_PREFETCH(&tbl_off_[p.v]);
  }
  CROUTE_HOT void find_stage1(FindProbe& p) const noexcept {
    load_slice(tbl_off_, tbl_key_, p);
  }
  CROUTE_HOT std::uint32_t find_stage2(const FindProbe& p) const noexcept {
    return resolve(tbl_key_, p);
  }

  CROUTE_HOT void dir_find_stage0(FindProbe& p) const noexcept {
    CROUTE_PREFETCH(&dir_off_[p.v]);
  }
  CROUTE_HOT void dir_find_stage1(FindProbe& p) const noexcept {
    load_slice(dir_off_, dir_key_, p);
  }
  CROUTE_HOT std::uint32_t dir_find_stage2(
      const FindProbe& p) const noexcept {
    return resolve(dir_key_, p);
  }

  /// --- batched stage2 (SIMD kernels, src/simd/) ---------------------------
  /// SoA scratch for resolving a whole round of staged probes in one
  /// kernel call. The batch engine compacts its live lanes' probes here
  /// each round — comparands contiguous in memory, so on AVX2 one
  /// 256-bit register carries 8 lanes' search keys — and reads the pool
  /// indices back from out[]. One instance per engine, reused across
  /// generations (no allocation once warm).
  struct FindBatchScratch {
    std::vector<std::uint32_t> offs, lens, xs, out;
    std::uint32_t count = 0;

    CROUTE_HOT void clear() noexcept { count = 0; }
    /// Pre-sizes all arrays for \p n lanes (push never grows them).
    void reserve(std::uint32_t n) {
      offs.resize(n);
      lens.resize(n);
      xs.resize(n);
      out.resize(n);
    }
    /// Pushes one staged probe (after its stage1).
    CROUTE_HOT void push(const FindProbe& p) noexcept {
      push_slice(p.off, p.len, p.w);
    }
    /// Pushes one bare Eytzinger slice probe (FlatCowen's cluster scan).
    CROUTE_HOT void push_slice(std::uint32_t off, std::uint32_t len,
                               std::uint32_t x) noexcept {
      offs[count] = off;
      lens[count] = len;
      xs[count] = x;
      ++count;
    }
  };

  /// Resolves every pushed probe at once: b.out[i] = find(v_i, w_i) —
  /// exactly find_stage2 per lane, computed by the selected SIMD
  /// implementation (simd::ops() is re-read per call, so force() /
  /// CROUTE_SIMD take effect on the next batch).
  CROUTE_HOT void find_stage2_batch(FindBatchScratch& b) const noexcept {
    resolve_batch(tbl_key_.data(), b);
  }
  /// Batched dir_find_stage2 (rule-0 directory probes).
  CROUTE_HOT void dir_find_stage2_batch(FindBatchScratch& b) const noexcept {
    resolve_batch(dir_key_.data(), b);
  }
  /// The shared batched-stage2 body (FlatCowen's cluster probe too): one
  /// kernel call over the probes pushed into \p b, each mapped to its
  /// pool index in \p keys or kNotFound, as find_stage2 does per lane.
  CROUTE_HOT static void resolve_batch(const VertexId* keys,
                                       FindBatchScratch& b) noexcept {
    simd::ops().eytzinger_batch(keys, b.offs.data(), b.lens.data(),
                                b.xs.data(), b.out.data(), b.count);
    for (std::uint32_t i = 0; i < b.count; ++i) {
      b.out[i] = b.out[i] == b.lens[i] ? kNotFound : b.offs[i] + b.out[i];
    }
  }

  /// Payload prefetches for resolved pool indices (next round's loads).
  CROUTE_HOT void prefetch_record(std::uint32_t idx) const noexcept {
    CROUTE_PREFETCH(&tbl_record_[idx]);
  }
  CROUTE_HOT void prefetch_own_label(std::uint32_t idx) const noexcept {
    CROUTE_PREFETCH(&tbl_own_dfs_[idx]);
    CROUTE_PREFETCH(&tbl_own_light_off_[idx]);
    CROUTE_PREFETCH(&tbl_own_light_len_[idx]);
  }
  CROUTE_HOT void prefetch_dir_payload(std::uint32_t idx) const noexcept {
    CROUTE_PREFETCH(&dir_dfs_[idx]);
    CROUTE_PREFETCH(&dir_light_off_[idx]);
    CROUTE_PREFETCH(&dir_light_len_[idx]);
  }

  std::uint32_t table_size(VertexId v) const noexcept {
    return tbl_off_[v + 1] - tbl_off_[v];
  }
  CROUTE_HOT const TreeNodeRecord& record(std::uint32_t idx) const noexcept {
    return tbl_record_[idx];
  }
  /// v's own tree label in T_w for entry \p idx (handshake destination
  /// side), as non-owning pieces.
  CROUTE_HOT std::uint32_t own_dfs(std::uint32_t idx) const noexcept {
    return tbl_own_dfs_[idx];
  }
  CROUTE_HOT std::span<const Port> own_light_ports(
      std::uint32_t idx) const noexcept {
    return {tbl_light_pool_.data() + tbl_own_light_off_[idx],
            tbl_own_light_len_[idx]};
  }

  /// --- rule-0 directory lookups -------------------------------------------
  /// Pool index of t within v's cluster directory, or kNotFound.
  CROUTE_HOT std::uint32_t dir_find(VertexId v, VertexId t) const noexcept;

  std::uint32_t dir_size(VertexId v) const noexcept {
    return dir_off_[v + 1] - dir_off_[v];
  }
  CROUTE_HOT std::uint32_t dir_dfs(std::uint32_t idx) const noexcept {
    return dir_dfs_[idx];
  }
  CROUTE_HOT std::span<const Port> dir_light_ports(
      std::uint32_t idx) const noexcept {
    return {dir_light_pool_.data() + dir_light_off_[idx],
            dir_light_len_[idx]};
  }

  /// --- pooled destination labels ------------------------------------------
  CROUTE_HOT std::span<const LabelEntryView> label(VertexId t) const noexcept {
    return {lab_entries_.data() + lab_off_[t],
            lab_off_[t + 1] - lab_off_[t]};
  }
  CROUTE_HOT std::span<const Port> label_light_ports(
      const LabelEntryView& e) const noexcept {
    return {lab_light_pool_.data() + e.light_off, e.light_len};
  }
  CROUTE_HOT const Port* label_light_pool() const noexcept {
    return lab_light_pool_.data();
  }

  /// Exact wire size of a header whose tree label has \p light_len light
  /// ports: root id + dfs + gamma(len+1) + len ports. Precomputed table
  /// for every length the pools contain, closed form beyond it (a
  /// caller-decoded label may be longer); agrees bit-for-bit with
  /// TZRouter::header_bits.
  CROUTE_HOT std::uint64_t header_bits_for(
      std::uint32_t light_len) const noexcept {
    if (light_len < bits_by_len_.size()) return bits_by_len_[light_len];
    return header_fixed_bits_ +
           2 * floor_log2(std::uint64_t{light_len} + 1) + 1 +
           std::uint64_t{light_len} * port_bits_;
  }

  /// Length of the precomputed bits-by-length table (max pooled light
  /// count + 1). header_bits_for serves lengths below this from the
  /// table and at/beyond it from the closed form — exposed so tests can
  /// pin that boundary exactly against TZRouter::header_bits.
  std::uint32_t header_bits_table_len() const noexcept {
    return static_cast<std::uint32_t>(bits_by_len_.size());
  }

  /// Total bytes held by the pools (diagnostics for the layout story).
  std::uint64_t pool_bytes() const noexcept;

  /// Where this compile's time/space went (set once by the constructor).
  const FlatCompileStats& compile_stats() const noexcept { return stats_; }

 private:
  void compile_tables(ThreadPool* pool);
  void compile_directories(ThreadPool* pool);
  void compile_labels(ThreadPool* pool);

  /// stage1 body shared by the bunch tables and the directories.
  CROUTE_HOT static void load_slice(const std::vector<std::uint32_t>& offs,
                                    const std::vector<VertexId>& keys,
                                    FindProbe& p) noexcept {
    p.off = offs[p.v];
    p.len = offs[p.v + 1] - p.off;
    flat_detail::prefetch_span(keys.data() + p.off, p.len * sizeof(VertexId));
  }
  /// stage2 body: the descent over a loaded slice, mapped to a pool index.
  CROUTE_HOT static std::uint32_t resolve(const std::vector<VertexId>& keys,
                                          const FindProbe& p) noexcept {
    const std::uint32_t pos =
        flat_detail::eytzinger_find(keys.data() + p.off, p.len, p.w);
    return pos == p.len ? kNotFound : p.off + pos;
  }

  const TZScheme* base_ = nullptr;
  FlatCompileStats stats_;

  // Tables: CSR over all vertices, keys separated from payloads. Every
  // per-vertex slice of ALL arrays is stored in that vertex's Eytzinger
  // permutation (one shared order, no indirection).
  std::vector<std::uint32_t> tbl_off_;       ///< n+1
  std::vector<VertexId> tbl_key_;            ///< hot: tree roots
  std::vector<TreeNodeRecord> tbl_record_;   ///< cold payloads …
  std::vector<std::uint32_t> tbl_own_dfs_;
  std::vector<std::uint32_t> tbl_own_light_off_;
  std::vector<std::uint32_t> tbl_own_light_len_;
  std::vector<Port> tbl_light_pool_;

  // Directories, pooled the same way (keys = member ids).
  std::vector<std::uint32_t> dir_off_;  ///< n+1
  std::vector<VertexId> dir_key_;
  std::vector<std::uint32_t> dir_dfs_;
  std::vector<std::uint32_t> dir_light_off_;
  std::vector<std::uint32_t> dir_light_len_;
  std::vector<Port> dir_light_pool_;

  // Labels.
  std::vector<std::uint32_t> lab_off_;  ///< n+1
  std::vector<LabelEntryView> lab_entries_;
  std::vector<Port> lab_light_pool_;

  std::vector<std::uint64_t> bits_by_len_;  ///< header bits by light count
  std::uint64_t header_fixed_bits_ = 0;     ///< root id bits + dfs bits
  std::uint32_t port_bits_ = 1;
};

/// TZRouter's algorithms over the flat view; every operation is
/// allocation-free. Stateless: safe to share across threads.
class FlatRouter {
 public:
  explicit FlatRouter(const FlatScheme& flat) : flat_(&flat) {}

  CROUTE_HOT const FlatScheme& scheme() const noexcept { return *flat_; }

  /// Source decision without handshake (stretch ≤ 4k−5). Uses the pooled
  /// label of \p t; chooses the same pivot as TZRouter::prepare under
  /// its kMinLevel policy.
  CROUTE_HOT FlatHeader prepare(VertexId s, VertexId t) const;

  /// prepare with the label already resolved (the batched serving path
  /// resolves each distinct destination once per batch and reuses it).
  CROUTE_HOT FlatHeader prepare_resolved(
      VertexId s, VertexId t,
      std::span<const FlatScheme::LabelEntryView> label) const {
    return prepare_resolved(s, t, label, flat_->label_light_pool());
  }

  /// prepare_resolved with the label's light ports in a caller-owned pool:
  /// each entry's light_off indexes \p light_pool instead of the scheme's
  /// pooled ports. This is the wire seam — a LabelCodec-decoded label
  /// lives in batch-owned buffers, and the header it produces is
  /// byte-identical to the pooled-label one as long as the decoded
  /// contents match (the codec round-trips exactly). \p light_pool must
  /// outlive the returned header's use.
  CROUTE_HOT FlatHeader prepare_resolved(
      VertexId s, VertexId t, std::span<const FlatScheme::LabelEntryView> label,
      const Port* light_pool) const;

  /// Source decision with handshake (stretch ≤ 2k−1).
  CROUTE_HOT FlatHeader prepare_handshake(VertexId s, VertexId t) const;

  /// Per-hop decision at vertex v. Requires v ∈ C(header.tree_root).
  CROUTE_HOT TreeDecision step(VertexId v, const FlatHeader& header) const;

  /// Exact wire size of \p header (precomputed at compile time).
  CROUTE_HOT std::uint64_t header_bits(const FlatHeader& header) const noexcept {
    return header.bits;
  }

 private:
  const FlatScheme* flat_;
};

/// Pooled, read-optimized serving state compiled from a CowenScheme. The
/// source scheme is only read during compilation — afterwards this view
/// serves alone (SchemePackage drops the preprocessing-layout baseline on
/// the flat path). Differences from CowenScheme::step's layout:
///  - per-vertex cluster member keys are Eytzinger-permuted with the
///    first-hop port alongside (no branchy lower_bound, no separate
///    offset arithmetic on the cold path);
///  - the label carries the home landmark's *column* in the port matrix,
///    resolved once at compile time instead of per hop.
/// Decisions are identical to CowenScheme::step for every (v, label).
class FlatCowen {
 public:
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoColumn = ~std::uint32_t{0};

  struct Label {
    VertexId t = kNoVertex;
    VertexId home = kNoVertex;    ///< a_t, t's nearest landmark
    Port port_at_home = kNoPort;  ///< first hop of the a_t → t path
    std::uint32_t home_col = kNoColumn;  ///< column of a_t in the port rows
  };

  /// Compiles the pooled view; \p cowen may be destroyed afterwards.
  CROUTE_DETERMINISTIC FlatCowen(const CowenScheme& cowen, const Graph& g);

  CROUTE_HOT Label label(VertexId t) const noexcept { return labels_[t]; }
  std::uint32_t num_landmarks() const noexcept { return num_landmarks_; }

  /// Scalar per-hop decision, same contract as CowenScheme::step.
  CROUTE_HOT TreeDecision step(VertexId v, const Label& dest) const;

  /// Exact table bits at v (same accounting as CowenScheme::table_bits).
  std::uint64_t table_bits(VertexId v) const noexcept;
  CROUTE_HOT std::uint64_t label_bits() const noexcept { return label_bits_; }

  /// --- staged probe pieces for the batch engine ---------------------------
  CROUTE_HOT void prefetch_label(VertexId t) const noexcept {
    CROUTE_PREFETCH(&labels_[t]);
  }
  CROUTE_HOT void prefetch_meta(VertexId v, const Label& dest) const noexcept {
    CROUTE_PREFETCH(&cl_off_[v]);
    if (dest.home_col != kNoColumn) {
      CROUTE_PREFETCH(
          &lport_[std::size_t{v} * num_landmarks_ + dest.home_col]);
    }
  }
  CROUTE_HOT void load_slice(VertexId v, std::uint32_t& off,
                             std::uint32_t& len) const noexcept {
    off = cl_off_[v];
    len = cl_off_[v + 1] - off;
    flat_detail::prefetch_span(cl_key_.data() + off, len * sizeof(VertexId));
  }
  CROUTE_HOT std::uint32_t find_at(std::uint32_t off, std::uint32_t len,
                                   VertexId t) const noexcept {
    const std::uint32_t pos =
        flat_detail::eytzinger_find(cl_key_.data() + off, len, t);
    return pos == len ? kNotFound : off + pos;
  }
  /// Batched find_at over probes pushed with push_slice: b.out[i] =
  /// find_at(off_i, len_i, t_i), via the selected SIMD kernel (the
  /// cluster probe is the same Eytzinger descent the TZ tables use).
  CROUTE_HOT void find_at_batch(
      FlatScheme::FindBatchScratch& b) const noexcept {
    FlatScheme::resolve_batch(cl_key_.data(), b);
  }
  CROUTE_HOT void prefetch_cluster_port(std::uint32_t idx) const noexcept {
    CROUTE_PREFETCH(&cl_port_[idx]);
  }
  CROUTE_HOT Port cluster_port(std::uint32_t idx) const noexcept {
    return cl_port_[idx];
  }
  CROUTE_HOT Port landmark_port(VertexId v,
                                std::uint32_t col) const noexcept {
    return lport_[std::size_t{v} * num_landmarks_ + col];
  }

 private:
  friend class ArtifactCodec;  ///< persistence: pools in, pools out
  FlatCowen() = default;

  const Graph* g_ = nullptr;
  VertexId n_ = 0;
  std::uint32_t id_bits_ = 0;
  std::uint32_t num_landmarks_ = 0;
  std::uint64_t label_bits_ = 0;
  std::vector<std::uint32_t> cl_off_;  ///< n+1
  std::vector<VertexId> cl_key_;       ///< Eytzinger-permuted member ids
  std::vector<Port> cl_port_;          ///< first-hop ports, same permutation
  std::vector<Port> lport_;            ///< n × |L| row-major landmark ports
  std::vector<Label> labels_;
};

/// Pooled serving state for the full-table baseline: the n×n hop matrix
/// taken over from FullTableScheme (the matrix *is* already SoA; what
/// this view adds is ownership without the preprocessing object and the
/// prefetch hooks the batch engine pipelines through).
class FlatFullTable {
 public:
  /// Takes the hop matrix over (no copy); \p full is empty afterwards.
  FlatFullTable(FullTableScheme&& full, const Graph& g);

  CROUTE_HOT Port next_hop(VertexId v, VertexId t) const noexcept {
    return hops_[std::size_t{v} * n_ + t];
  }
  CROUTE_HOT void prefetch_hop(VertexId v, VertexId t) const noexcept {
    CROUTE_PREFETCH(&hops_[std::size_t{v} * n_ + t]);
  }

  std::uint64_t table_bits(VertexId v) const noexcept;
  CROUTE_HOT std::uint64_t label_bits() const noexcept { return label_bits_; }

 private:
  friend class ArtifactCodec;  ///< persistence: pools in, pools out
  FlatFullTable() = default;

  const Graph* g_ = nullptr;
  VertexId n_ = 0;
  std::uint64_t label_bits_ = 0;
  std::vector<Port> hops_;  ///< n*n, row per source
};

/// Decodes one LabelCodec-encoded routing label from \p r into flat entry
/// views — the wire seam of label-addressed serving. Each entry's level
/// and (when the codec carries them) distance are read and discarded:
/// the views do not hold them. Appends the entries
/// to \p entries and their light ports to \p ports (light_off fields are
/// absolute offsets into \p ports; pass ports.data() as the light pool
/// once the batch's decodes are done). Returns the label's target vertex.
///
/// Unlike LabelCodec::decode this parser is *incremental*: it never
/// pre-sizes a container from an untrusted count, so a hostile length
/// field exhausts the bit stream (throwing std::invalid_argument) before
/// it can balloon memory — every claimed entry/port must actually be
/// present in the bits. Also validated: the target and every pivot id are
/// < \p n, and the label has at least one entry. On throw the containers
/// may hold a partial append; callers treat the batch arenas as
/// invalidated (the service rewinds, the tests expect the throw).
VertexId decode_wire_label(const LabelCodec& codec, VertexId n, BitReader& r,
                           std::vector<FlatScheme::LabelEntryView>& entries,
                           std::vector<Port>& ports);

/// The target id in a wire label's leading id field (\p bits bits packed
/// LSB-first in \p bytes), read without decoding the rest. Throws
/// std::invalid_argument when the label is shorter than that field; the
/// id itself is not range-checked.
VertexId wire_label_target(const LabelCodec& codec,
                           std::span<const std::uint8_t> bytes,
                           std::uint64_t bits);

}  // namespace croute
