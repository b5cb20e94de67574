/// \file simd.hpp
/// \brief Multi-ISA SIMD kernels for the batch descent, behind one
/// runtime-dispatched ops table.
///
/// The batch-pipelined engine (core/flat_batch.hpp) runs G lanes through
/// lockstep stage loops: every live lane executes the *same* Eytzinger
/// compare-and-step per round, over comparands the engine compacts into
/// contiguous SoA scratch arrays. That shape is
/// textbook data parallelism — gather the lanes' current keys, compare
/// against the lanes' search keys, blend the stepped indices — so each
/// round is one call into a lane-parallel kernel instead of a scalar
/// loop.
///
/// This header is the only thing callers see. Behind it sit one
/// implementation per ISA (simd_generic.cpp, simd_avx2.cpp,
/// simd_neon.cpp), each compiled in its own translation unit with that
/// ISA's `-m` flags (CMakeLists.txt) so the fat binary
/// still runs on baseline hardware: no SIMD instruction executes unless
/// the runtime dispatcher (dispatch.cpp) verified CPU support first —
/// CPUID feature bits via `__builtin_cpu_supports` on x86, architecture
/// baseline on AArch64 (NEON is mandatory there).
///
/// **Every implementation is byte-identical to the generic one**: the
/// kernels compute pure integer functions (no floating point, no
/// reassociation), the vector code evaluates exactly the scalar
/// recurrence per lane, and tests/test_simd.cpp pins every compiled-in
/// ISA against the generic path and the sim/ reference walk across
/// scheme kinds and group sizes.
///
/// Selection: the best supported ISA wins at first use; the
/// `CROUTE_SIMD` environment variable (generic|avx2|neon) forces a
/// specific one (an unknown or unavailable forced ISA warns on stderr and
/// falls back to generic — deterministic, never faulting); `force()` does
/// the same programmatically (the cross-ISA test matrix and the bench
/// sweep drive it). Pre-AVX2 x86 runs the generic table: an SSE4.2 table
/// (4 lanes, scalar loads) measured no faster than generic and was
/// removed.

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"

namespace croute::simd {

/// The implementations this layer knows. Order is preference order for
/// auto-selection (widest usable first on each architecture).
enum class Isa : std::uint8_t {
  kGeneric,  ///< portable scalar loops, always available
  kAVX2,     ///< 8 × 32-bit lanes with hardware gathers (x86)
  kNEON,     ///< 4 × 32-bit lanes (AArch64; loads stay scalar)
};

/// Stable lowercase name ("generic", "avx2", "neon") — the
/// CROUTE_SIMD vocabulary, bench row labels, and the metric label value.
const char* isa_name(Isa isa) noexcept;

/// Parses isa_name's vocabulary; nullopt on anything else.
std::optional<Isa> isa_from_name(std::string_view name) noexcept;

/// One ISA's kernel table. The kernel pointer is non-null in a
/// compiled-in implementation; `ops()` only ever returns tables whose
/// ISA the running CPU supports.
struct Ops {
  Isa isa = Isa::kGeneric;
  const char* name = "generic";

  /// Batched Eytzinger lower-bound probe over per-lane slices of one
  /// shared key pool: for each lane i < count, finds xs[i] in the slice
  /// keys[offs[i] .. offs[i] + lens[i]) stored in Eytzinger order and
  /// writes the 0-based slice position to out[i], or lens[i] on a miss —
  /// exactly flat_detail::eytzinger_find(keys + offs[i], lens[i], xs[i])
  /// per lane. Lanes are independent; vector implementations run the
  /// descent `i = 2i + (key < x)` across lanes with gather + compare +
  /// blend until every lane's index leaves its slice.
  void (*eytzinger_batch)(const std::uint32_t* keys,
                          const std::uint32_t* offs, const std::uint32_t* lens,
                          const std::uint32_t* xs, std::uint32_t* out,
                          std::uint32_t count) = nullptr;
};

/// True when \p isa is compiled into this binary AND supported by the
/// running CPU (kGeneric is always both).
bool available(Isa isa) noexcept;

/// Every ISA compiled into this binary (whether or not the CPU supports
/// it) — the bench sweep and the test matrix iterate this, filtered by
/// available().
std::vector<Isa> compiled();

/// The currently selected implementation. First call resolves the
/// selection: CROUTE_SIMD if set (unavailable values warn + generic),
/// else the widest available ISA. Thread-safe; never null.
CROUTE_HOT const Ops& ops() noexcept;

/// The selected ISA (== ops().isa).
Isa selected() noexcept;

/// Forces \p isa for subsequent ops() calls. Returns false (selection
/// unchanged) when the ISA is not available on this CPU/binary.
/// Engines re-read ops() per call, so a force takes effect on the next
/// route/decide. Not intended for concurrent use with in-flight batches
/// (the test matrix and bench sweep force between runs).
bool force(Isa isa) noexcept;

}  // namespace croute::simd
