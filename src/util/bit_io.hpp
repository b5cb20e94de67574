/// \file bit_io.hpp
/// \brief Bit-granular serialization used for exact space accounting.
///
/// Thorup-Zwick's results are statements about *bits*: (1+o(1))·log2(n)-bit
/// tree labels, Õ(n^{1/k})-bit routing tables. To report honest sizes, every
/// label and table in croute can be serialized through BitWriter and parsed
/// back through BitReader; the reported size of an object is the exact
/// length of its encoding. The codec offers fixed-width fields, unary codes,
/// Elias gamma/delta codes, and LEB128 varints.

#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/annotations.hpp"
#include "util/assert.hpp"

namespace croute {

/// Number of bits needed to store values in [0, n), i.e. ceil(log2(max(n,2))).
constexpr std::uint32_t bits_for_universe(std::uint64_t n) noexcept {
  std::uint32_t b = 1;
  // Check the bound BEFORE shifting: 1 << 64 is undefined behavior.
  while (b < 64 && (std::uint64_t{1} << b) < n) ++b;
  return b;
}

/// Position of the highest set bit (floor(log2 x)); requires x > 0.
CROUTE_HOT constexpr std::uint32_t floor_log2(std::uint64_t x) noexcept {
  std::uint32_t r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// Length in bits of BitWriter::write_gamma(v): a unary length prefix of
/// len+1 bits plus len payload bits. The single source of truth for
/// arithmetic bit accounting — must mirror write_gamma exactly.
CROUTE_HOT constexpr std::uint64_t gamma_bits(std::uint64_t v) noexcept {
  return 2 * std::uint64_t{floor_log2(v)} + 1;
}

/// Append-only bit stream writer (LSB-first within each 64-bit word).
class BitWriter {
 public:
  /// Appends the low \p width bits of \p value. Requires width in [0, 64]
  /// and value < 2^width.
  void write_bits(std::uint64_t value, std::uint32_t width);

  /// Appends value in unary: `value` zero bits then a one bit.
  void write_unary(std::uint64_t value);

  /// Elias gamma code for value >= 1: floor(log2 v) zeros, then v's bits.
  void write_gamma(std::uint64_t value);

  /// Elias delta code for value >= 1 (gamma-coded length, then mantissa).
  void write_delta(std::uint64_t value);

  /// LEB128 variable-length code (7 data bits per byte-sized group).
  void write_varint(std::uint64_t value);

  /// Total number of bits written so far.
  std::uint64_t bit_size() const noexcept { return bits_; }

  /// Underlying words (the last word may be partially filled).
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t bits_ = 0;
};

/// Sequential reader over a bit stream packed LSB-first in bytes: a
/// BitWriter's words (read in place) or a wire label's bytes (read in
/// place, no copy). Every read is bounds-checked against the stream's bit
/// length and throws std::invalid_argument past it.
class BitReader {
 public:
  static_assert(std::endian::native == std::endian::little,
                "BitReader(const BitWriter&) reads the words as bytes");

  explicit BitReader(const BitWriter& w) noexcept
      : bytes_(reinterpret_cast<const std::uint8_t*>(w.words().data())),
        nbytes_(8 * w.words().size()),
        limit_(w.bit_size()) {}

  /// Reads the first \p bits bits packed LSB-first in \p bytes (bit i of
  /// the stream is bit i%8 of byte i/8, the to_bytes layout). Requires
  /// bytes to hold at least \p bits bits; pad bits beyond \p bits are
  /// never read. \p bytes must outlive the reader.
  BitReader(std::span<const std::uint8_t> bytes, std::uint64_t bits);

  /// Reads \p width bits (LSB-first). Requires enough bits remain.
  std::uint64_t read_bits(std::uint32_t width);

  /// Reads one unary-coded value, a word of zeros at a time.
  std::uint64_t read_unary();

  /// Reads one Elias gamma-coded value (>= 1).
  std::uint64_t read_gamma();

  /// Reads one Elias delta-coded value (>= 1).
  std::uint64_t read_delta();

  /// Reads one LEB128 varint.
  std::uint64_t read_varint();

  /// Bits consumed so far.
  std::uint64_t position() const noexcept { return pos_; }

  /// Bits remaining.
  std::uint64_t remaining() const noexcept { return limit_ - pos_; }

 private:
  /// The 64 bits starting at byte \p index, zero-filled past the buffer.
  std::uint64_t load_word(std::uint64_t index) const noexcept;

  const std::uint8_t* bytes_;
  std::uint64_t nbytes_;
  std::uint64_t limit_;
  std::uint64_t pos_ = 0;
};

/// Packs a BitWriter's stream into bytes, LSB-first (bit i of the stream
/// is bit i%8 of byte i/8) — the wire representation of a bit-encoded
/// label, read back by BitReader's byte-span constructor. Returns
/// ceil(bit_size/8) bytes; trailing pad bits are zero.
std::vector<std::uint8_t> to_bytes(const BitWriter& w);

}  // namespace croute
