/// \file artifact.hpp
/// \brief The on-disk scheme artifact: a versioned, section-checksummed,
/// relocatable container for one full SchemePackage generation.
///
/// A million-user routing service must survive being killed; paying full
/// TZ preprocessing on every start is the cost this tier removes. An
/// artifact carries each generation's state once — the graph copy, plus
/// the TZ routing state (scheme_io bytes: tables, directories, labels)
/// for the TZ kinds or the compiled pools for the baselines, whose
/// preprocessing is not stored — so a restart is a read + verify + load,
/// not a rebuild.
///
/// Layout (all little-endian, util/serialize.hpp):
///
///   header   magic "croutea1" · format version · generation metadata
///            (scheme kind, k, sampling, seed, n, options digest, graph
///            fingerprint, generation number, build host/ISA stamp) ·
///            section table (id, absolute offset, size, CRC32C each) ·
///            CRC32C of the header bytes
///   payload  sections back to back (GRAPH, then TZ for the TZ kinds,
///            FLAT_COWEN or FLAT_FULL for the baselines)
///   trailer  CRC32C of everything before it (whole-file)
///
/// The dual stamps — format version for the *container*, the metadata
/// digests for the *generation* — mean a loader rejects incompatible or
/// torn artifacts from the header alone, before touching payload bytes;
/// per-section sums then localize any corruption to the section that
/// rotted. Loaded state is byte-identical to a fresh build on the same
/// (graph, options): the TZ bytes go through scheme_io's proven
/// round-trip, and the flat serving view is derived state — recovery
/// recompiles it with the fresh build's own compile, on a set-up pool
/// sized by compile_threads. The baseline pools are stored verbatim.
///
/// Two header bytes and one section id outlive what they held, so a
/// predecessor's artifacts keep their layout and still recover: byte 14
/// (former use_flat) is written as 1 and byte 15 (former flat lookup
/// layout) as 0, and a loader rejects any other value with a reason
/// naming the byte; section id 3 (a stored copy of the compiled TZ
/// pools) is no longer written, and one found in an older artifact is
/// covered by the whole-file CRC and otherwise skipped.
///
/// Everything here is pure bytes-in/bytes-out; the atomic file lifecycle
/// (tmp → fsync → rename, MANIFEST, retention, fault injection) lives in
/// artifact_store.hpp.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/scheme_package.hpp"

namespace croute::persist {

/// Container format version (bump on layout changes; loaders reject
/// anything else — version skew falls back to fresh preprocessing).
inline constexpr std::uint32_t kArtifactFormatVersion = 1;

/// Generation metadata, readable from the header alone.
struct ArtifactMeta {
  std::uint32_t format_version = 0;
  SchemeKind scheme = SchemeKind::kTZDirect;
  SamplingMode sampling = SamplingMode::kCentered;
  bool warm_started = false;  ///< generation originated from a warm start
  std::uint32_t k = 0;
  VertexId n = 0;             ///< vertex count of the payload graph
  std::uint64_t seed = 0;
  std::uint64_t options_digest = 0;  ///< content_options_digest at build
  std::uint64_t graph_digest = 0;    ///< graph_fingerprint of the payload
  std::uint64_t generation = 0;      ///< store generation number
  std::string build_host;            ///< SIMD ISA + CRC backend stamp
};

/// Digest over the options fields that determine a package's bytes
/// (scheme, k, sampling, seed). Serving knobs
/// (threads, batch_group, metrics, record_paths) do not participate: a
/// recovered artifact serves under whatever serving options the process
/// was started with.
std::uint64_t content_options_digest(const RouteServiceOptions& options);

/// Serializes \p pkg into artifact bytes.
std::string encode_package(const SchemePackage& pkg,
                           std::uint64_t generation);

/// Header-only validation: magic, format version, header CRC, whole-file
/// CRC, section table sanity. Throws std::invalid_argument (with byte
/// offsets) on anything torn or alien; does not touch payload decoding.
ArtifactMeta read_artifact_meta(std::string_view bytes);

/// Full decode: verifies the header AND every section checksum, then
/// reconstructs the package. Content options must match \p serving
/// (digest equality); serving-only knobs are taken from \p serving. The
/// returned package owns its graph and is indistinguishable from a fresh
/// build_scheme_package on the same (graph, content options) — the
/// byte-identity contract tests/test_persist.cpp pins. Throws
/// std::invalid_argument on any mismatch or corruption; never crashes on
/// hostile bytes (tests/test_fuzz.cpp's mutation corpus).
SchemePackagePtr decode_package(std::string_view bytes,
                                const RouteServiceOptions& serving,
                                ArtifactMeta* meta_out = nullptr);

}  // namespace croute::persist
