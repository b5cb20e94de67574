#include "core/scheme_io.hpp"

#include <fstream>
#include <sstream>

#include "util/serialize.hpp"

namespace croute {

namespace {

constexpr std::uint64_t kMagic = 0x63726F7574657A31ULL;  // "croutez1"
constexpr std::uint32_t kVersion = 1;
/// Serialized sizes that bound the per-table and per-label entry counts:
/// a table entry is fixed-width; a label entry is at least its fixed
/// fields plus an empty light-port vector's length prefix.
constexpr std::uint64_t kTableEntryBytes = 4 + 4 + 8 + 7 * 4 + 4 + 4;
constexpr std::uint64_t kLabelEntryMinBytes = 4 + 4 + 8 + 4 + 8;

}  // namespace

std::uint64_t graph_fingerprint(const Graph& g) {
  // Order-independent over arcs (XOR of per-arc mixes) plus the counts;
  // weight bits participate so a reweighted graph is a different network.
  std::uint64_t h = mix64(g.num_vertices()) ^ mix64(g.num_edges() + 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Arc& a : g.arcs(v)) {
      std::uint64_t wbits;
      static_assert(sizeof(Weight) == 8);
      std::memcpy(&wbits, &a.weight, 8);
      h ^= mix64((std::uint64_t{v} << 32) ^ a.head) + mix64(wbits);
    }
  }
  return h;
}

/// Befriended by TZScheme, TZPreprocessing, VertexTable, ClusterDirectory:
/// the only code with cross-class layout knowledge.
class SchemeSerializer {
 public:
  static void save(BinaryWriter& w, const TZScheme& s) {
    w.u64(kMagic);
    w.u32(kVersion);
    w.u64(graph_fingerprint(*s.g_));

    // Options.
    w.u32(s.options_.pre.k);
    w.u8(s.options_.pre.hierarchy.mode == SamplingMode::kCentered ? 1 : 0);
    w.f64(s.options_.pre.hierarchy.cap_factor);
    w.u32(s.options_.pre.hierarchy.max_rounds);
    w.u8(s.options_.hash_index ? 1 : 0);
    w.u8(s.options_.labels_carry_distances ? 1 : 0);

    // Preprocessing: rank, hierarchy, pivots.
    const TZPreprocessing& pre = s.pre_;
    w.vec_u32(pre.rank_);
    w.u32(pre.hierarchy_.k);
    for (const auto& level : pre.hierarchy_.levels) w.vec_u32(level);
    w.vec_u32(pre.hierarchy_.level_of);
    w.u64(pre.pivots_.size());
    for (const MultiSourceResult& ms : pre.pivots_) {
      w.vec_f64(ms.dist);
      w.vec_u32(ms.owner);
      w.vec_u32(ms.parent);
      w.vec_u32(ms.parent_port);
    }

    // Codecs.
    w.u32(s.tree_codec_.dfs_bits);
    w.u32(s.tree_codec_.port_bits);

    // Tables.
    w.u64(s.tables_.size());
    for (const VertexTable& t : s.tables_) {
      w.u64(t.entries_.size());
      for (const TableEntry& e : t.entries_) {
        w.u32(e.w);
        w.u32(e.level);
        w.f64(e.dist);
        w.u32(e.record.dfs_in);
        w.u32(e.record.dfs_out);
        w.u32(e.record.heavy_in);
        w.u32(e.record.heavy_out);
        w.u32(e.record.heavy_port);
        w.u32(e.record.parent_port);
        w.u32(e.record.light_depth);
        w.u32(e.light_off);
        w.u32(e.light_len);
      }
      w.vec_u32(t.light_pool_);
      w.u64(t.bit_size_);
    }

    // Directories.
    w.u64(s.dirs_.size());
    for (const ClusterDirectory& d : s.dirs_) {
      w.vec_u32(d.ts_);
      w.vec_u32(d.dfs_);
      w.vec_u32(d.light_off_);
      w.vec_u32(d.pool_);
      w.u64(d.bit_size_);
    }

    // Labels.
    w.u64(s.labels_.size());
    for (const RoutingLabel& l : s.labels_) {
      w.u32(l.t);
      w.u64(l.entries.size());
      for (const LabelEntry& e : l.entries) {
        w.u32(e.level);
        w.u32(e.w);
        w.f64(e.dist);
        w.u32(e.tree.dfs_in);
        w.vec_u32(e.tree.light_ports);
      }
    }
  }

  /// Everything the flat compile (core/flat_scheme.cpp) and the routers
  /// index through is checked here — counts against the bytes left,
  /// vertex ids against n, levels against k, light-port slices against
  /// their pools — so a corrupt stream throws instead of loading a
  /// scheme whose compile reads out of bounds.
  static TZScheme load(SpanReader& r, const Graph& g) {
    CROUTE_REQUIRE(r.u64() == kMagic, "not a croute scheme stream");
    CROUTE_REQUIRE(r.u32() == kVersion, "unsupported scheme version");
    CROUTE_REQUIRE(r.u64() == graph_fingerprint(g),
                   "scheme was built for a different graph");
    const VertexId n = g.num_vertices();
    const auto require_vertex = [n](VertexId v) {
      CROUTE_REQUIRE(v < n, "vertex id out of range");
    };

    TZScheme s;
    s.g_ = &g;
    s.options_.pre.k = r.u32();
    s.options_.pre.hierarchy.mode =
        r.u8() != 0 ? SamplingMode::kCentered : SamplingMode::kBernoulli;
    s.options_.pre.hierarchy.cap_factor = r.f64();
    s.options_.pre.hierarchy.max_rounds = r.u32();
    s.options_.hash_index = r.u8() != 0;
    s.options_.labels_carry_distances = r.u8() != 0;

    TZPreprocessing& pre = s.pre_;
    pre.g_ = &g;
    pre.rank_ = r.vec_u32<std::uint32_t>();
    pre.hierarchy_.k = r.u32();
    const std::uint32_t k = pre.hierarchy_.k;
    CROUTE_REQUIRE(k >= 1 && k <= 64 && k == s.options_.pre.k,
                   "implausible hierarchy height");
    pre.hierarchy_.levels.resize(k);
    for (auto& level : pre.hierarchy_.levels) {
      level = r.vec_u32<VertexId>();
      for (const VertexId v : level) require_vertex(v);
    }
    pre.hierarchy_.level_of = r.vec_u32<std::uint32_t>();
    CROUTE_REQUIRE(
        pre.rank_.size() == n && pre.hierarchy_.level_of.size() == n,
        "rank/level arrays disagree with the graph");
    for (const std::uint32_t level : pre.hierarchy_.level_of) {
      CROUTE_REQUIRE(level < k, "center level out of range");
    }
    const std::uint64_t num_pivots = r.u64();
    CROUTE_REQUIRE(num_pivots == k, "pivot level count mismatch");
    pre.pivots_.resize(num_pivots);
    for (MultiSourceResult& ms : pre.pivots_) {
      ms.dist = r.vec_f64();
      ms.owner = r.vec_u32<VertexId>();
      ms.parent = r.vec_u32<VertexId>();
      ms.parent_port = r.vec_u32<Port>();
      CROUTE_REQUIRE(ms.dist.size() == n && ms.owner.size() == n &&
                         ms.parent.size() == n && ms.parent_port.size() == n,
                     "pivot arrays disagree with the graph");
      for (const VertexId p : ms.owner) {
        if (p != kNoVertex) require_vertex(p);
      }
    }

    s.tree_codec_.dfs_bits = r.u32();
    s.tree_codec_.port_bits = r.u32();
    CROUTE_REQUIRE(
        s.tree_codec_.dfs_bits <= 32 && s.tree_codec_.port_bits <= 32,
        "implausible tree codec widths");
    s.codec_ = LabelCodec(n, g.max_degree(), s.options_.labels_carry_distances);

    const std::uint64_t num_tables = r.u64();
    CROUTE_REQUIRE(num_tables == n, "table count mismatch");
    s.tables_.resize(num_tables);
    Rng hash_rng(graph_fingerprint(g) ^ 0x68617368u);  // derived state only
    for (VertexTable& t : s.tables_) {
      t.entries_.resize(r.count(kTableEntryBytes));
      for (TableEntry& e : t.entries_) {
        e.w = r.u32();
        e.level = r.u32();
        e.dist = r.f64();
        e.record.dfs_in = r.u32();
        e.record.dfs_out = r.u32();
        e.record.heavy_in = r.u32();
        e.record.heavy_out = r.u32();
        e.record.heavy_port = r.u32();
        e.record.parent_port = r.u32();
        e.record.light_depth = r.u32();
        e.light_off = r.u32();
        e.light_len = r.u32();
      }
      t.light_pool_ = r.vec_u32<Port>();
      t.bit_size_ = r.u64();
      // Keys strictly ascending: binary search and the hash index assume
      // unique sorted roots.
      for (std::size_t i = 0; i < t.entries_.size(); ++i) {
        const TableEntry& e = t.entries_[i];
        require_vertex(e.w);
        CROUTE_REQUIRE(i == 0 || t.entries_[i - 1].w < e.w,
                       "table keys not strictly ascending");
        CROUTE_REQUIRE(e.level < k, "table entry level out of range");
        CROUTE_REQUIRE(std::uint64_t{e.light_off} + e.light_len <=
                           t.light_pool_.size(),
                       "table light slice out of pool bounds");
      }
      if (s.options_.hash_index) t.build_hash_index(hash_rng);
    }

    const std::uint64_t num_dirs = r.u64();
    CROUTE_REQUIRE(num_dirs == n, "directory count mismatch");
    s.dirs_.resize(num_dirs);
    for (ClusterDirectory& d : s.dirs_) {
      d.ts_ = r.vec_u32<VertexId>();
      d.dfs_ = r.vec_u32<std::uint32_t>();
      d.light_off_ = r.vec_u32<std::uint32_t>();
      d.pool_ = r.vec_u32<Port>();
      d.bit_size_ = r.u64();
      for (std::size_t i = 0; i < d.ts_.size(); ++i) {
        require_vertex(d.ts_[i]);
        CROUTE_REQUIRE(i == 0 || d.ts_[i - 1] < d.ts_[i],
                       "directory members not strictly ascending");
      }
      // light_off_ is a CSR over pool_: size()+1 monotone offsets from 0
      // to pool_.size() (an empty directory may store no offsets).
      const std::vector<std::uint32_t>& off = d.light_off_;
      const bool empty_ok = d.ts_.empty() && off.size() <= 1;
      CROUTE_REQUIRE(d.dfs_.size() == d.ts_.size() &&
                         (empty_ok || off.size() == d.ts_.size() + 1),
                     "corrupt directory block");
      CROUTE_REQUIRE(off.empty() ? d.pool_.empty()
                                 : off.front() == 0 &&
                                       off.back() == d.pool_.size(),
                     "directory light offsets do not span the pool");
      for (std::size_t i = 1; i < off.size(); ++i) {
        CROUTE_REQUIRE(off[i - 1] <= off[i],
                       "directory light offsets not monotone");
      }
    }

    const std::uint64_t num_labels = r.u64();
    CROUTE_REQUIRE(num_labels == n, "label count mismatch");
    s.labels_.resize(num_labels);
    for (RoutingLabel& l : s.labels_) {
      l.t = r.u32();
      require_vertex(l.t);
      const std::uint64_t entries = r.count(kLabelEntryMinBytes);
      CROUTE_REQUIRE(entries >= 1 && entries <= 64, "corrupt label block");
      l.entries.resize(entries);
      for (LabelEntry& e : l.entries) {
        e.level = r.u32();
        e.w = r.u32();
        require_vertex(e.w);
        CROUTE_REQUIRE(e.level < k, "label entry level out of range");
        e.dist = r.f64();
        e.tree.dfs_in = r.u32();
        e.tree.light_ports = r.vec_u32<Port>();
      }
    }
    return s;
  }
};

void save_scheme(std::ostream& os, const TZScheme& scheme) {
  BinaryWriter w(os);
  SchemeSerializer::save(w, scheme);
}

TZScheme load_scheme(std::string_view bytes, const Graph& g) {
  SpanReader r(bytes);
  return SchemeSerializer::load(r, g);
}

void save_scheme_file(const std::string& path, const TZScheme& scheme) {
  std::ofstream os(path, std::ios::binary);
  CROUTE_REQUIRE(os.good(), "cannot open " + path + " for writing");
  save_scheme(os, scheme);
}

TZScheme load_scheme_file(const std::string& path, const Graph& g) {
  std::ifstream is(path, std::ios::binary);
  CROUTE_REQUIRE(is.good(), "cannot open " + path);
  std::ostringstream bytes;
  bytes << is.rdbuf();
  CROUTE_REQUIRE(!is.bad(), "cannot read " + path);
  return load_scheme(std::move(bytes).str(), g);
}

}  // namespace croute
