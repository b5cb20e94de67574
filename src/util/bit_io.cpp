#include "util/bit_io.hpp"

#include <algorithm>
#include <cstring>

namespace croute {

void BitWriter::write_bits(std::uint64_t value, std::uint32_t width) {
  CROUTE_REQUIRE(width <= 64, "bit width must be at most 64");
  if (width < 64) {
    CROUTE_REQUIRE(value < (std::uint64_t{1} << width),
                   "value does not fit in the requested width");
  }
  if (width == 0) return;
  const std::uint64_t word_index = bits_ >> 6;
  const std::uint32_t offset = static_cast<std::uint32_t>(bits_ & 63);
  if (word_index >= words_.size()) words_.push_back(0);
  words_[word_index] |= value << offset;
  if (offset + width > 64) {
    // Spill the high part into the next word.
    words_.push_back(value >> (64 - offset));
  }
  bits_ += width;
}

void BitWriter::write_unary(std::uint64_t value) {
  while (value >= 32) {
    write_bits(0, 32);
    value -= 32;
  }
  write_bits(std::uint64_t{1} << value, static_cast<std::uint32_t>(value) + 1);
}

void BitWriter::write_gamma(std::uint64_t value) {
  CROUTE_REQUIRE(value >= 1, "gamma codes are defined for values >= 1");
  const std::uint32_t len = floor_log2(value);
  write_unary(len);
  if (len > 0) write_bits(value & ((std::uint64_t{1} << len) - 1), len);
}

void BitWriter::write_delta(std::uint64_t value) {
  CROUTE_REQUIRE(value >= 1, "delta codes are defined for values >= 1");
  const std::uint32_t len = floor_log2(value);
  write_gamma(std::uint64_t{len} + 1);
  if (len > 0) write_bits(value & ((std::uint64_t{1} << len) - 1), len);
}

void BitWriter::write_varint(std::uint64_t value) {
  while (value >= 0x80) {
    write_bits((value & 0x7f) | 0x80, 8);
    value >>= 7;
  }
  write_bits(value, 8);
}

BitReader::BitReader(std::span<const std::uint8_t> bytes, std::uint64_t bits)
    : bytes_(bytes.data()), nbytes_(bytes.size()), limit_(bits) {
  CROUTE_REQUIRE(bits <= std::uint64_t{8} * bytes.size(),
                 "bit length exceeds the byte buffer");
}

std::uint64_t BitReader::load_word(std::uint64_t index) const noexcept {
  std::uint64_t word = 0;
  if (index + 8 <= nbytes_) {
    std::memcpy(&word, bytes_ + index, sizeof word);
    return word;
  }
  for (std::uint64_t b = index; b < nbytes_; ++b) {
    word |= std::uint64_t{bytes_[b]} << (8 * (b - index));
  }
  return word;
}

std::uint64_t BitReader::read_bits(std::uint32_t width) {
  CROUTE_REQUIRE(width <= 64, "bit width must be at most 64");
  CROUTE_REQUIRE(pos_ + width <= limit_, "bit stream exhausted");
  if (width == 0) return 0;
  const std::uint64_t index = pos_ >> 3;
  const std::uint32_t offset = static_cast<std::uint32_t>(pos_ & 7);
  std::uint64_t value = load_word(index) >> offset;
  if (offset + width > 64) {
    // The field's last bits sit in a ninth byte, inside the stream.
    value |= std::uint64_t{bytes_[index + 8]} << (64 - offset);
  }
  pos_ += width;
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  return value;
}

std::uint64_t BitReader::read_unary() {
  std::uint64_t count = 0;
  for (;;) {
    CROUTE_REQUIRE(pos_ < limit_, "bit stream exhausted");
    const std::uint32_t offset = static_cast<std::uint32_t>(pos_ & 7);
    const auto take = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(limit_ - pos_, 64 - offset));
    std::uint64_t window = load_word(pos_ >> 3) >> offset;
    if (take < 64) window &= (std::uint64_t{1} << take) - 1;
    if (window != 0) {
      const auto zeros = static_cast<std::uint32_t>(std::countr_zero(window));
      pos_ += zeros + 1;
      return count + zeros;
    }
    pos_ += take;
    count += take;
  }
}

std::uint64_t BitReader::read_gamma() {
  const std::uint64_t len = read_unary();
  CROUTE_REQUIRE(len < 64, "malformed gamma code");
  const std::uint64_t mantissa =
      (len > 0) ? read_bits(static_cast<std::uint32_t>(len)) : 0;
  return (std::uint64_t{1} << len) | mantissa;
}

std::uint64_t BitReader::read_delta() {
  const std::uint64_t len = read_gamma() - 1;
  CROUTE_REQUIRE(len < 64, "malformed delta code");
  const std::uint64_t mantissa =
      (len > 0) ? read_bits(static_cast<std::uint32_t>(len)) : 0;
  return (std::uint64_t{1} << len) | mantissa;
}

std::vector<std::uint8_t> to_bytes(const BitWriter& w) {
  const std::uint64_t nbytes = (w.bit_size() + 7) / 8;
  std::vector<std::uint8_t> out(nbytes);
  const std::vector<std::uint64_t>& words = w.words();
  for (std::uint64_t i = 0; i < nbytes; ++i) {
    out[i] = static_cast<std::uint8_t>(words[i >> 3] >> ((i & 7) * 8));
  }
  // Zero the pad bits of the last byte so equal streams pack to equal
  // bytes regardless of what the writer's last word held beyond bit_size.
  const std::uint32_t tail = static_cast<std::uint32_t>(w.bit_size() & 7);
  if (tail != 0) out[nbytes - 1] &= static_cast<std::uint8_t>((1u << tail) - 1);
  return out;
}

std::uint64_t BitReader::read_varint() {
  std::uint64_t value = 0;
  std::uint32_t shift = 0;
  while (true) {
    const std::uint64_t byte = read_bits(8);
    value |= (byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    CROUTE_REQUIRE(shift < 64, "malformed varint");
  }
  return value;
}

}  // namespace croute
