#include "hash/perfect_hash.hpp"

#include <algorithm>
#include <stdexcept>

namespace croute {

PerfectHashMap PerfectHashMap::build(
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& entries,
    Rng& rng) {
  PerfectHashMap m;
  const std::uint64_t n = entries.size();
  m.size_ = n;
  if (n == 0) return m;

  {
    // Reject duplicate keys up front (they would loop level-2 forever).
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    for (const auto& [k, v] : entries) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      throw std::invalid_argument("PerfectHashMap: duplicate keys");
    }
  }

  const std::uint64_t buckets = n;
  std::vector<std::vector<std::uint32_t>> bucket_members(buckets);

  // Level 1: retry until the squared bucket sizes sum to <= 4n.
  constexpr int kMaxTopRetries = 64;
  for (int attempt = 0;; ++attempt) {
    CROUTE_ASSERT(attempt < kMaxTopRetries,
                  "FKS level-1 retries exhausted (bad randomness?)");
    m.top_ = PairwiseHash::draw(buckets, rng);
    for (auto& b : bucket_members) b.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      bucket_members[(*m.top_)(entries[i].first)].push_back(i);
    }
    std::uint64_t squares = 0;
    for (const auto& b : bucket_members) {
      squares += static_cast<std::uint64_t>(b.size()) * b.size();
    }
    if (squares <= 4 * n) break;
  }

  // Level 2: per-bucket injective hashes into b_i^2 slots.
  m.bucket_offset_.assign(buckets + 1, 0);
  m.bucket_a_.assign(buckets, 1);
  m.bucket_b_.assign(buckets, 0);
  for (std::uint64_t i = 0; i < buckets; ++i) {
    const std::uint64_t b = bucket_members[i].size();
    m.bucket_offset_[i + 1] = m.bucket_offset_[i] + b * b;
  }
  m.keys_.assign(m.bucket_offset_[buckets], kEmpty);
  m.values_.assign(m.bucket_offset_[buckets], 0);

  constexpr int kMaxBucketRetries = 1024;
  for (std::uint64_t i = 0; i < buckets; ++i) {
    const auto& members = bucket_members[i];
    if (members.empty()) continue;
    const std::uint64_t range =
        static_cast<std::uint64_t>(members.size()) * members.size();
    const std::uint64_t base = m.bucket_offset_[i];
    for (int attempt = 0;; ++attempt) {
      CROUTE_ASSERT(attempt < kMaxBucketRetries,
                    "FKS level-2 retries exhausted (duplicate keys?)");
      const PairwiseHash h = PairwiseHash::draw(range, rng);
      bool injective = true;
      for (const std::uint32_t idx : members) {
        const std::uint64_t slot = base + h(entries[idx].first);
        if (m.keys_[slot] != kEmpty) {
          injective = false;
          break;
        }
        m.keys_[slot] = entries[idx].first;
        m.values_[slot] = entries[idx].second;
      }
      if (injective) {
        m.bucket_a_[i] = h.a();
        m.bucket_b_[i] = h.b();
        break;
      }
      for (std::uint64_t s = base; s < m.bucket_offset_[i + 1]; ++s) {
        m.keys_[s] = kEmpty;
      }
    }
  }
  return m;
}

CROUTE_HOT std::optional<std::uint32_t> PerfectHashMap::find(
    std::uint64_t key) const noexcept {
  if (size_ == 0) return std::nullopt;
  const std::uint64_t i = (*top_)(key);
  const std::uint64_t base = bucket_offset_[i];
  const std::uint64_t width = bucket_offset_[i + 1] - base;
  if (width == 0) return std::nullopt;
  const std::uint64_t slot =
      base + PairwiseHash::eval(bucket_a_[i], bucket_b_[i], width, key);
  if (keys_[slot] != key) return std::nullopt;
  return values_[slot];
}

std::uint64_t PerfectHashMap::overhead_bits() const noexcept {
  if (size_ == 0) return 0;
  // Top-level params (a, b) + per-bucket params and offsets + slot arrays.
  return 2 * 64 + bucket_offset_.size() * 64 +
         (bucket_a_.size() + bucket_b_.size()) * 64 + keys_.size() * 64 +
         values_.size() * 32;
}

}  // namespace croute
