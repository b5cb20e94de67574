/// \file perfect_hash.hpp
/// \brief FKS two-level static perfect hashing: O(1) worst-case lookups.
///
/// Thorup–Zwick store routing tables "using 2-level hash tables" so that a
/// routing decision costs O(1) worst case. This is the classic
/// Fredman–Komlós–Szemerédi construction:
///
///  level 1: a pairwise-independent hash splits the n keys into n buckets;
///           redrawn until Σ b_i² ≤ 4n (expected O(1) retries);
///  level 2: bucket i of size b_i gets a table of b_i² slots and its own
///           pairwise hash, redrawn until injective (expected O(1) retries).
///
/// Space: O(n) words. Lookup: two hash evaluations + one probe.
///
/// Keys are arbitrary uint64 (callers key by vertex id); values are uint32
/// payload indices into caller-owned storage.
///
/// This is the paper's table structure, kept where it serves as the
/// reference: TZScheme's optional per-vertex index
/// (`TZSchemeOptions::hash_index`) and the distance oracle's per-bunch
/// index (oracle/). The serving path's flat view (core/flat_scheme.hpp)
/// uses Eytzinger-ordered slices instead, which measured faster and
/// smaller there.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hash/pairwise.hpp"
#include "util/annotations.hpp"
#include "util/random.hpp"

namespace croute {

/// Immutable perfect-hash map uint64 → uint32 (build once, query forever).
class PerfectHashMap {
 public:
  /// Builds from distinct keys. Throws std::invalid_argument on duplicate
  /// keys. Expected O(n) time.
  static PerfectHashMap build(
      const std::vector<std::pair<std::uint64_t, std::uint32_t>>& entries,
      Rng& rng);

  /// Value for \p key, or std::nullopt. O(1) worst case.
  CROUTE_HOT std::optional<std::uint32_t> find(
      std::uint64_t key) const noexcept;

  bool contains(std::uint64_t key) const noexcept {
    return find(key).has_value();
  }

  std::uint64_t size() const noexcept { return size_; }

  /// Total slots across second-level tables (Σ b_i²) — the space bound the
  /// FKS analysis controls; ≤ 4·size() by construction.
  std::uint64_t slot_count() const noexcept { return keys_.size(); }

  /// Structural overhead in bits (hash parameters + offsets + empty slots),
  /// excluding the caller's payloads. Used by the table-size accounting.
  std::uint64_t overhead_bits() const noexcept;

 private:
  PerfectHashMap() = default;

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::uint64_t size_ = 0;
  std::optional<PairwiseHash> top_;
  std::vector<std::uint64_t> bucket_offset_;  ///< size buckets+1, into keys_
  std::vector<std::uint64_t> bucket_a_, bucket_b_;  ///< per-bucket hash params
  std::vector<std::uint64_t> keys_;   ///< kEmpty marks free slots
  std::vector<std::uint32_t> values_;
};

}  // namespace croute
