#include "persist/artifact.hpp"

#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/scheme_io.hpp"
#include "simd/simd.hpp"
#include "util/crc32c.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/serialize.hpp"

namespace croute {
namespace {

/// "croutea1" as a little-endian u64 (artifact, format family 1).
constexpr std::uint64_t kMagic = 0x31616574756F7263ULL;

// Section ids. An artifact carries whichever of these its package does;
// the loader locates them by id, so the order on disk is irrelevant
// (relocatable), and a section it does not look up is covered by the
// whole-file CRC and otherwise skipped. Id 3 is retired, not free: older
// artifacts store a copy of the compiled TZ pools (FLAT_TZ) there, which
// this loader skips and recompiles from the TZ section instead.
constexpr std::uint32_t kSecGraph = 1;      ///< edge list, rebuilt via GraphBuilder
constexpr std::uint32_t kSecTZ = 2;         ///< scheme_io bytes (TZ scheme)
constexpr std::uint32_t kSecFlatCowen = 4;  ///< FlatCowen pools
constexpr std::uint32_t kSecFlatFull = 5;   ///< FlatFullTable pools

constexpr std::uint32_t kMaxSections = 16;
constexpr std::uint32_t kMaxHostLen = 256;

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("artifact: " + what);
}

struct Section {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

struct ParsedHeader {
  persist::ArtifactMeta meta;
  std::vector<Section> sections;
  std::uint64_t header_bytes = 0;  ///< size of header incl. its CRC
};

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSecGraph: return "GRAPH";
    case kSecTZ: return "TZ";
    case kSecFlatCowen: return "FLAT_COWEN";
    case kSecFlatFull: return "FLAT_FULL";
  }
  return "?";
}

}  // namespace

/// The friend serializer FlatCowen/FlatFullTable grant pool access to
/// (the SchemeSerializer pattern scheme_io uses over TZScheme). Not in
/// the anonymous namespace — the friend declarations name
/// croute::ArtifactCodec. Encode writes pools verbatim; decode fills a
/// default-constructed view, validates every invariant the routers rely
/// on, and rebinds the graph pointer. The baselines' preprocessing is not
/// stored, so these pools are their whole serving state.
class ArtifactCodec {
 public:
  // --- FlatCowen ------------------------------------------------------------
  static void encode_cowen(BinaryWriter& w, const FlatCowen& c) {
    w.u32(c.n_);
    w.u32(c.id_bits_);
    w.u32(c.num_landmarks_);
    w.u64(c.label_bits_);
    w.vec_u32(c.cl_off_);
    w.vec_u32(c.cl_key_);
    w.vec_u32(c.cl_port_);
    w.vec_u32(c.lport_);
    w.u64(c.labels_.size());
    for (const FlatCowen::Label& l : c.labels_) {
      w.u32(l.t);
      w.u32(l.home);
      w.u32(l.port_at_home);
      w.u32(l.home_col);
    }
  }

  static std::unique_ptr<const FlatCowen> decode_cowen(SpanReader& r,
                                                       const Graph& g) {
    std::unique_ptr<FlatCowen> c(new FlatCowen());
    c->n_ = r.u32();
    if (c->n_ != g.num_vertices()) {
      reject("FLAT_COWEN: vertex count disagrees with the graph section");
    }
    c->id_bits_ = r.u32();
    c->num_landmarks_ = r.u32();
    c->label_bits_ = r.u64();
    c->cl_off_ = r.vec_u32<std::uint32_t>();
    c->cl_key_ = r.vec_u32<VertexId>();
    c->cl_port_ = r.vec_u32<Port>();
    c->lport_ = r.vec_u32<Port>();
    check_csr("FLAT_COWEN clusters", c->n_, c->cl_off_, c->cl_key_.size());
    if (c->cl_port_.size() != c->cl_key_.size()) {
      reject("FLAT_COWEN: cluster port/key count mismatch");
    }
    if (c->lport_.size() !=
        std::uint64_t{c->n_} * c->num_landmarks_) {
      reject("FLAT_COWEN: landmark port matrix has the wrong shape");
    }
    const std::uint64_t nlab = r.u64();
    if (nlab != c->n_) reject("FLAT_COWEN: label count != n");
    c->labels_.resize(nlab);
    for (FlatCowen::Label& l : c->labels_) {
      l.t = r.u32();
      l.home = r.u32();
      l.port_at_home = r.u32();
      l.home_col = r.u32();
      if (l.home_col != FlatCowen::kNoColumn &&
          l.home_col >= c->num_landmarks_) {
        reject("FLAT_COWEN: label home column out of range");
      }
    }
    c->g_ = &g;
    return c;
  }

  // --- FlatFullTable --------------------------------------------------------
  static void encode_full(BinaryWriter& w, const FlatFullTable& t) {
    w.u32(t.n_);
    w.u64(t.label_bits_);
    w.vec_u32(t.hops_);
  }

  static std::unique_ptr<const FlatFullTable> decode_full(SpanReader& r,
                                                          const Graph& g) {
    std::unique_ptr<FlatFullTable> t(new FlatFullTable());
    t->n_ = r.u32();
    if (t->n_ != g.num_vertices()) {
      reject("FLAT_FULL: vertex count disagrees with the graph section");
    }
    t->label_bits_ = r.u64();
    t->hops_ = r.vec_u32<Port>();
    if (t->hops_.size() != std::uint64_t{t->n_} * t->n_) {
      reject("FLAT_FULL: hop matrix has the wrong shape");
    }
    t->g_ = &g;
    return t;
  }

 private:
  /// CSR offsets invariants every router lookup assumes: size n+1,
  /// starts at 0, monotone, last == pool size.
  static void check_csr(const char* what, VertexId n,
                        const std::vector<std::uint32_t>& off,
                        std::uint64_t pool) {
    if (off.size() != std::uint64_t{n} + 1 || off.front() != 0 ||
        off.back() != pool) {
      reject(std::string(what) + ": CSR offsets have the wrong shape");
    }
    for (std::size_t i = 1; i < off.size(); ++i) {
      if (off[i] < off[i - 1]) {
        reject(std::string(what) + ": CSR offsets not monotone");
      }
    }
  }
};

}  // namespace croute

namespace croute::persist {

namespace {

std::string isa_stamp() {
  return std::string(simd::ops().name) + "/" + crc32c_backend();
}

std::string encode_graph_section(const Graph& g) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter w(os);
  w.u32(g.num_vertices());
  w.u64(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Arc& a : g.arcs(v)) {
      if (a.head > v) {
        w.u32(v);
        w.u32(a.head);
        w.f64(a.weight);
      }
    }
  }
  return std::move(os).str();
}

std::shared_ptr<const Graph> decode_graph_section(std::string_view bytes,
                                                  std::uint64_t base) {
  SpanReader r(bytes, base);
  const VertexId n = r.u32();
  const std::uint64_t m = r.u64();
  if (m > bytes.size() / 16) {  // 16 bytes per edge record
    reject("GRAPH: implausible edge count");
  }
  GraphBuilder builder(n);
  for (std::uint64_t i = 0; i < m; ++i) {
    const VertexId u = r.u32();
    const VertexId v = r.u32();
    const Weight w = r.f64();
    if (u >= n || v >= n) reject("GRAPH: edge endpoint out of range");
    builder.add_edge(u, v, w);
  }
  // GraphBuilder::build canonicalizes (sorted arcs, deterministic
  // reverse ports), so this reconstruction is bit-identical to the
  // graph the artifact was written from — the fingerprint check in
  // decode_package pins it.
  return std::make_shared<const Graph>(builder.build());
}

void write_header(BinaryWriter& w, const ArtifactMeta& meta,
                  const std::vector<Section>& sections) {
  w.u64(kMagic);
  w.u32(kArtifactFormatVersion);
  w.u8(static_cast<std::uint8_t>(meta.scheme));
  w.u8(static_cast<std::uint8_t>(meta.sampling));
  w.u8(1);  // byte 14, formerly use_flat: see parse_header
  w.u8(0);  // byte 15, formerly the flat lookup layout: see parse_header
  w.u8(meta.warm_started ? 1 : 0);
  w.u32(meta.k);
  w.u32(meta.n);
  w.u64(meta.seed);
  w.u64(meta.options_digest);
  w.u64(meta.graph_digest);
  w.u64(meta.generation);
  w.u32(static_cast<std::uint32_t>(meta.build_host.size()));
  for (const char c : meta.build_host) {
    w.u8(static_cast<std::uint8_t>(c));
  }
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const Section& s : sections) {
    w.u32(s.id);
    w.u64(s.offset);
    w.u64(s.size);
    w.u32(s.crc);
  }
}

/// Parses and validates the header: magic, version, field sanity, the
/// header CRC, and the section table's geometry (contiguous, inside the
/// payload area, no duplicate ids). Everything after this function is
/// entitled to trust the table's offsets.
ParsedHeader parse_header(std::string_view bytes) {
  SpanReader r(bytes);
  ParsedHeader h;
  const std::uint64_t magic = r.u64();
  if (magic != kMagic) {
    reject("bad magic (not an artifact, or the header is corrupt)");
  }
  h.meta.format_version = r.u32();
  if (h.meta.format_version != kArtifactFormatVersion) {
    reject("format version " + std::to_string(h.meta.format_version) +
           " (this build reads version " +
           std::to_string(kArtifactFormatVersion) + ")");
  }
  const std::uint8_t scheme = r.u8();
  if (scheme > static_cast<std::uint8_t>(SchemeKind::kFullTable)) {
    reject("unknown scheme kind in header");
  }
  h.meta.scheme = static_cast<SchemeKind>(scheme);
  const std::uint8_t sampling = r.u8();
  if (sampling > 1) reject("unknown sampling mode in header");
  h.meta.sampling = static_cast<SamplingMode>(sampling);
  // Byte 14 held the since-removed use_flat option. Every artifact this
  // build serves carries 1; a 0 names a generation of the deleted
  // sim/-adapter serving path, which has nothing this build can load.
  if (r.u8() != 1) {
    reject("header byte 14 is not 1: the artifact was written for the "
           "removed legacy (sim/-adapter) serving path");
  }
  // Byte 15 held the since-removed flat lookup layout. Every artifact
  // this build serves carries 0 (Eytzinger); a 1 names a generation of
  // the deleted FKS layout, whose pools this build cannot search.
  if (r.u8() != 0) {
    reject("header byte 15 is not 0: the artifact was written for the "
           "removed FKS lookup layout");
  }
  h.meta.warm_started = r.u8() != 0;
  h.meta.k = r.u32();
  h.meta.n = r.u32();
  h.meta.seed = r.u64();
  h.meta.options_digest = r.u64();
  h.meta.graph_digest = r.u64();
  h.meta.generation = r.u64();
  h.meta.build_host = r.str(kMaxHostLen);
  const std::uint32_t nsec = r.u32();
  if (nsec == 0 || nsec > kMaxSections) {
    reject("implausible section count in header");
  }
  h.sections.resize(nsec);
  for (Section& s : h.sections) {
    s.id = r.u32();
    s.offset = r.u64();
    s.size = r.u64();
    s.crc = r.u32();
  }
  const std::uint64_t crc_at = r.offset();
  const std::uint32_t header_crc = r.u32();
  if (crc32c(bytes.data(), crc_at) != header_crc) {
    reject("header checksum mismatch (torn or corrupted header)");
  }
  h.header_bytes = r.offset();

  // Geometry: sections are laid out back to back between the header and
  // the 4-byte whole-file CRC trailer. Anything else — overlap, gaps,
  // duplicated sections, a table pointing past the end — is rejected
  // here so no later stage computes an out-of-bounds slice.
  if (bytes.size() < h.header_bytes + 4) reject("no room for the file trailer");
  std::uint64_t expect = h.header_bytes;
  std::uint32_t seen_ids = 0;
  for (const Section& s : h.sections) {
    if (s.id == 0 || s.id > 31) reject("unknown section id in table");
    if (seen_ids & (1u << s.id)) {
      reject(std::string("duplicated section ") + section_name(s.id));
    }
    seen_ids |= 1u << s.id;
    if (s.offset != expect) reject("section table is not contiguous");
    if (s.size > bytes.size() - 4 - s.offset) {
      reject("section table points past the end of the file");
    }
    expect = s.offset + s.size;
  }
  if (expect != bytes.size() - 4) {
    reject("payload size disagrees with the section table");
  }
  return h;
}

void verify_file_crc(std::string_view bytes) {
  std::uint32_t file_crc;
  std::memcpy(&file_crc, bytes.data() + bytes.size() - 4, 4);
  if (crc32c(bytes.data(), bytes.size() - 4) != file_crc) {
    reject("whole-file checksum mismatch (torn or truncated artifact)");
  }
}

const Section* find_section(const ParsedHeader& h, std::uint32_t id) {
  for (const Section& s : h.sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::string_view section_bytes(std::string_view bytes, const ParsedHeader& h,
                               std::uint32_t id) {
  const Section* s = find_section(h, id);
  if (s == nullptr) {
    reject(std::string("missing required section ") + section_name(id));
  }
  // Localize corruption: the per-section sum says WHICH section rotted,
  // where the whole-file sum only says "something did".
  if (crc32c(bytes.data() + s->offset, s->size) != s->crc) {
    reject(std::string("section ") + section_name(id) +
           " checksum mismatch (payload corrupted at bytes [" +
           std::to_string(s->offset) + ", " +
           std::to_string(s->offset + s->size) + "))");
  }
  return bytes.substr(s->offset, s->size);
}

}  // namespace

std::uint64_t content_options_digest(const RouteServiceOptions& options) {
  // Only fields that determine the package's *bytes* participate;
  // serving knobs (threads, batch_group, metrics, record_paths) change
  // how a package is driven, never what it contains.
  std::uint64_t h = 0x6172746966616374ULL;  // "artifact"
  h = mix64(h ^ static_cast<std::uint64_t>(options.scheme));
  h = mix64(h ^ options.k);
  h = mix64(h ^ static_cast<std::uint64_t>(options.sampling));
  h = mix64(h ^ options.seed);
  // The former use_flat term, fixed at its flat value: dropping it would
  // change every digest, and a service upgraded past its removal must
  // still recover the artifacts its predecessor wrote.
  h = mix64(h ^ 1);
  // The former lookup-layout term, fixed at its Eytzinger value (0) for
  // the same reason.
  h = mix64(h ^ 0);
  return h;
}

std::string encode_package(const SchemePackage& pkg,
                           std::uint64_t generation) {
  std::vector<std::pair<std::uint32_t, std::string>> payloads;
  payloads.emplace_back(kSecGraph, encode_graph_section(*pkg.graph));
  if (pkg.tz != nullptr) {
    std::ostringstream os(std::ios::binary);
    save_scheme(os, *pkg.tz);
    payloads.emplace_back(kSecTZ, std::move(os).str());
  }
  const auto pooled = [&](std::uint32_t id, const auto& view, auto encode) {
    std::ostringstream os(std::ios::binary);
    BinaryWriter w(os);
    encode(w, view);
    payloads.emplace_back(id, std::move(os).str());
  };
  if (pkg.flat_cowen != nullptr) {
    pooled(kSecFlatCowen, *pkg.flat_cowen, ArtifactCodec::encode_cowen);
  }
  if (pkg.flat_full != nullptr) {
    pooled(kSecFlatFull, *pkg.flat_full, ArtifactCodec::encode_full);
  }

  ArtifactMeta meta;
  meta.format_version = kArtifactFormatVersion;
  meta.scheme = pkg.options.scheme;
  meta.sampling = pkg.options.sampling;
  meta.warm_started = !pkg.options.warm_start_path.empty();
  meta.k = pkg.options.k;
  meta.n = pkg.graph->num_vertices();
  meta.seed = pkg.options.seed;
  meta.options_digest = content_options_digest(pkg.options);
  meta.graph_digest = graph_fingerprint(*pkg.graph);
  meta.generation = generation;
  meta.build_host = isa_stamp();

  std::vector<Section> sections(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    sections[i].id = payloads[i].first;
    sections[i].size = payloads[i].second.size();
    sections[i].crc =
        crc32c(payloads[i].second.data(), payloads[i].second.size());
  }

  // Two-pass header: the fields are fixed-width, so a dry run with zero
  // offsets yields the exact header size, which fixes every offset.
  std::ostringstream dry(std::ios::binary);
  {
    BinaryWriter w(dry);
    write_header(w, meta, sections);
  }
  const std::uint64_t header_size = dry.str().size() + 4;  // + header CRC
  std::uint64_t off = header_size;
  for (Section& s : sections) {
    s.offset = off;
    off += s.size;
  }
  std::ostringstream hs(std::ios::binary);
  {
    BinaryWriter w(hs);
    write_header(w, meta, sections);
  }
  std::string header = std::move(hs).str();
  const std::uint32_t header_crc = crc32c(header.data(), header.size());
  header.append(reinterpret_cast<const char*>(&header_crc), 4);

  std::string out;
  out.reserve(off + 4);
  out += header;
  for (const auto& [id, body] : payloads) out += body;
  const std::uint32_t file_crc = crc32c(out.data(), out.size());
  out.append(reinterpret_cast<const char*>(&file_crc), 4);
  return out;
}

ArtifactMeta read_artifact_meta(std::string_view bytes) {
  ParsedHeader h = parse_header(bytes);
  verify_file_crc(bytes);
  return std::move(h.meta);
}

SchemePackagePtr decode_package(std::string_view bytes,
                                const RouteServiceOptions& serving,
                                ArtifactMeta* meta_out) {
  using clock = std::chrono::steady_clock;
  const auto begin = clock::now();

  const ParsedHeader h = parse_header(bytes);
  verify_file_crc(bytes);
  if (h.meta.scheme != serving.scheme) {
    reject(std::string("built for scheme '") + scheme_name(h.meta.scheme) +
           "', service runs '" + scheme_name(serving.scheme) + "'");
  }
  if (h.meta.options_digest != content_options_digest(serving)) {
    reject(
        "built under different construction options (digest mismatch: "
        "k/sampling/seed changed) — refusing to serve it");
  }

  auto pkg = std::make_shared<SchemePackage>();
  pkg->options = serving;
  // A recovered generation is NOT a warm start: its bytes are the fresh
  // build's bytes on (graph, seed), so it can anchor incremental rebuilds
  // — unless the artifact itself came from a warm-started build, whose
  // preprocessing is not a function of the seed.
  pkg->options.warm_start_path = h.meta.warm_started ? "(artifact)" : "";

  const Section* graph_sec = find_section(h, kSecGraph);
  const std::string_view graph_bytes = section_bytes(bytes, h, kSecGraph);
  pkg->graph = decode_graph_section(graph_bytes, graph_sec->offset);
  if (graph_fingerprint(*pkg->graph) != h.meta.graph_digest) {
    reject("graph payload does not match its recorded fingerprint");
  }
  const Graph& g = *pkg->graph;

  const bool is_tz = serving.scheme == SchemeKind::kTZDirect ||
                     serving.scheme == SchemeKind::kTZHandshake;
  if (is_tz) {
    pkg->tz = std::make_unique<const TZScheme>(
        load_scheme(section_bytes(bytes, h, kSecTZ), g));
    // The flat view is derived state: compile it exactly as a fresh
    // build does, on a set-up pool sized the same way.
    const std::unique_ptr<ThreadPool> pool = make_setup_pool(serving);
    compile_flat_view(*pkg, pool.get());
  } else if (serving.scheme == SchemeKind::kCowen) {
    const Section* sec = find_section(h, kSecFlatCowen);
    const std::string_view cb = section_bytes(bytes, h, kSecFlatCowen);
    SpanReader r(cb, sec->offset);
    pkg->flat_cowen = ArtifactCodec::decode_cowen(r, g);
  } else {
    const Section* sec = find_section(h, kSecFlatFull);
    const std::string_view fb = section_bytes(bytes, h, kSecFlatFull);
    SpanReader r(fb, sec->offset);
    pkg->flat_full = ArtifactCodec::decode_full(r, g);
  }

  pkg->incr_stats.fallback_reason = "recovered from artifact";
  pkg->build_seconds =
      std::chrono::duration<double>(clock::now() - begin).count();
  if (meta_out != nullptr) *meta_out = h.meta;
  return pkg;
}

}  // namespace croute::persist
