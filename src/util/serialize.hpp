/// \file serialize.hpp
/// \brief Minimal binary (de)serialization for persisting schemes.
///
/// Fixed little-endian layout, explicit sizes, a magic/version header per
/// top-level object, and fail-loud reads (std::invalid_argument on
/// truncation or corruption). BinaryWriter streams to an ostream;
/// SpanReader reads back from bytes already in memory — a loaded file or
/// a section of an artifact — and bounds every length prefix by the
/// bytes left, so a corrupt count cannot allocate more than the input
/// could describe. Both ends track the byte offset consumed or produced
/// so far, and every failure message carries it — a truncated or
/// bit-flipped stream reports *where* it died, which is what makes the
/// persistence tier's corruption diagnostics actionable. Used by
/// core/scheme_io and src/persist.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace croute {

/// Streaming binary writer (little-endian scalars, length-prefixed arrays).
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(&os) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { scalar(v); }
  void u64(std::uint64_t v) { scalar(v); }
  void f64(double v) {
    static_assert(sizeof(double) == 8);
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    scalar(bits);
  }

  template <typename T>
  void vec_u32(const std::vector<T>& v) {
    static_assert(sizeof(T) == 4);
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size() * 4);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size() * 8);
  }
  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size() * 8);
  }

  /// Bytes written so far (error messages and section-offset accounting).
  std::uint64_t offset() const noexcept { return offset_; }

 private:
  template <typename T>
  void scalar(T v) {
    static_assert(std::endian::native == std::endian::little,
                  "big-endian hosts need byte swaps here");
    raw(&v, sizeof v);
  }
  void raw(const void* p, std::size_t bytes) {
    os_->write(static_cast<const char*>(p),
               static_cast<std::streamsize>(bytes));
    CROUTE_REQUIRE(os_->good(),
                   "write failed at byte offset " + std::to_string(offset_));
    offset_ += bytes;
  }
  std::ostream* os_;
  std::uint64_t offset_ = 0;
};

/// Bounds-checked little-endian reader over a byte span: the one binary
/// reader. It decodes in place (no copy into an istream first), and every
/// failure throws std::invalid_argument carrying the absolute byte offset
/// where it died.
class SpanReader {
 public:
  /// \p base_offset is the absolute offset of bytes[0] in the enclosing
  /// file, so a section reader reports file offsets, not section ones.
  explicit SpanReader(std::string_view bytes, std::uint64_t base_offset = 0)
      : data_(bytes.data()), size_(bytes.size()), base_(base_offset) {}

  std::uint64_t offset() const noexcept { return base_ + pos_; }
  std::uint64_t remaining() const noexcept { return size_ - pos_; }

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() {
    const std::uint64_t bits = scalar<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  /// Reads a u64 element count and rejects it unless the bytes left can
  /// hold that many elements of at least \p min_elem_bytes each. A
  /// hostile length prefix must fail here, not in operator new: the
  /// remaining span bounds what any honest count can be.
  std::uint64_t count(std::uint64_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_elem_bytes) {
      fail("implausible array length at byte offset " +
           std::to_string(offset() - 8));
    }
    return n;
  }

  template <typename T>
  std::vector<T> vec_u32() {
    static_assert(sizeof(T) == 4);
    return vec<T>();
  }
  std::vector<std::uint64_t> vec_u64() { return vec<std::uint64_t>(); }
  std::vector<double> vec_f64() { return vec<double>(); }

  /// u32-length-prefixed string of at most \p max_len bytes.
  std::string str(std::uint32_t max_len) {
    const std::uint32_t len = u32();
    if (len > max_len) {
      fail("implausible string length at byte offset " +
           std::to_string(offset() - 4));
    }
    need(len);
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

 private:
  [[noreturn]] static void fail(const std::string& what) {
    throw std::invalid_argument(what);
  }
  template <typename T>
  T scalar() {
    static_assert(std::endian::native == std::endian::little,
                  "big-endian hosts need byte swaps here");
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> vec() {
    const std::uint64_t n = count(sizeof(T));
    std::vector<T> v(n);
    if (n > 0) {
      std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return v;
  }
  void need(std::uint64_t bytes) {
    if (bytes > remaining()) {
      fail("truncated at byte offset " + std::to_string(offset()) +
           " (wanted " + std::to_string(bytes) + " more bytes)");
    }
  }

  const char* data_;
  std::uint64_t size_;
  std::uint64_t base_;
  std::uint64_t pos_ = 0;
};

}  // namespace croute
