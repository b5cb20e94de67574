// Unit tests for util/bit_io: the bit-exact codec every space figure in the
// experiment suite depends on. Round-trips are exhaustive over widths and
// randomized over mixed-code streams.

#include "util/bit_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "util/random.hpp"

namespace croute {
namespace {

TEST(BitsForUniverse, SmallValues) {
  EXPECT_EQ(bits_for_universe(0), 1u);
  EXPECT_EQ(bits_for_universe(1), 1u);
  EXPECT_EQ(bits_for_universe(2), 1u);
  EXPECT_EQ(bits_for_universe(3), 2u);
  EXPECT_EQ(bits_for_universe(4), 2u);
  EXPECT_EQ(bits_for_universe(5), 3u);
  EXPECT_EQ(bits_for_universe(256), 8u);
  EXPECT_EQ(bits_for_universe(257), 9u);
}

TEST(BitsForUniverse, PowersOfTwoAreTight) {
  for (std::uint32_t b = 1; b < 63; ++b) {
    const std::uint64_t n = std::uint64_t{1} << b;
    EXPECT_EQ(bits_for_universe(n), b) << "universe " << n;
    EXPECT_EQ(bits_for_universe(n + 1), b + 1) << "universe " << n + 1;
  }
}

TEST(BitsForUniverse, HugeUniverse) {
  EXPECT_EQ(bits_for_universe(std::numeric_limits<std::uint64_t>::max()), 64u);
}

TEST(FloorLog2, Values) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
}

TEST(BitWriter, EmptyStream) {
  BitWriter w;
  EXPECT_EQ(w.bit_size(), 0u);
  BitReader r(w);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitWriter, FixedWidthRoundTripAllWidths) {
  for (std::uint32_t width = 1; width <= 64; ++width) {
    BitWriter w;
    const std::uint64_t max_val =
        width == 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << width) - 1;
    w.write_bits(0, width);
    w.write_bits(max_val, width);
    w.write_bits(max_val / 2, width);
    EXPECT_EQ(w.bit_size(), 3u * width);
    BitReader r(w);
    EXPECT_EQ(r.read_bits(width), 0u);
    EXPECT_EQ(r.read_bits(width), max_val);
    EXPECT_EQ(r.read_bits(width), max_val / 2);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(BitWriter, ZeroWidthWritesNothing) {
  BitWriter w;
  w.write_bits(0, 0);
  EXPECT_EQ(w.bit_size(), 0u);
}

TEST(BitWriter, UnalignedBoundarySpill) {
  // Fields straddling the 64-bit word boundary must survive intact.
  BitWriter w;
  w.write_bits(0x1FFFFF, 21);
  w.write_bits(0x0, 21);
  w.write_bits(0x155555, 21);  // crosses bit 63
  w.write_bits(0x3, 2);
  BitReader r(w);
  EXPECT_EQ(r.read_bits(21), 0x1FFFFFu);
  EXPECT_EQ(r.read_bits(21), 0x0u);
  EXPECT_EQ(r.read_bits(21), 0x155555u);
  EXPECT_EQ(r.read_bits(2), 0x3u);
}

TEST(BitWriter, UnaryRoundTrip) {
  BitWriter w;
  for (std::uint64_t v : {0u, 1u, 2u, 7u, 63u, 64u, 100u}) {
    w.write_unary(v);
  }
  BitReader r(w);
  for (std::uint64_t v : {0u, 1u, 2u, 7u, 63u, 64u, 100u}) {
    EXPECT_EQ(r.read_unary(), v);
  }
}

TEST(BitWriter, UnarySizeIsValuePlusOne) {
  BitWriter w;
  w.write_unary(37);
  EXPECT_EQ(w.bit_size(), 38u);
}

TEST(BitWriter, GammaRoundTripSmall) {
  BitWriter w;
  for (std::uint64_t v = 1; v <= 300; ++v) w.write_gamma(v);
  BitReader r(w);
  for (std::uint64_t v = 1; v <= 300; ++v) {
    EXPECT_EQ(r.read_gamma(), v) << "value " << v;
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitWriter, GammaSizeFormula) {
  // gamma(v) costs 2*floor(log2 v) + 1 bits.
  for (std::uint64_t v : {1u, 2u, 3u, 4u, 255u, 256u, 1000000u}) {
    BitWriter w;
    w.write_gamma(v);
    EXPECT_EQ(w.bit_size(), 2u * floor_log2(v) + 1) << "value " << v;
  }
}

TEST(BitWriter, DeltaRoundTrip) {
  std::vector<std::uint64_t> values = {1, 2, 3, 15, 16, 17, 1023, 1024,
                                       (std::uint64_t{1} << 40) + 12345};
  BitWriter w;
  for (const auto v : values) w.write_delta(v);
  BitReader r(w);
  for (const auto v : values) EXPECT_EQ(r.read_delta(), v);
}

TEST(BitWriter, DeltaBeatsGammaForLargeValues) {
  const std::uint64_t v = std::uint64_t{1} << 40;
  BitWriter g, d;
  g.write_gamma(v);
  d.write_delta(v);
  EXPECT_LT(d.bit_size(), g.bit_size());
}

TEST(BitWriter, VarintRoundTrip) {
  std::vector<std::uint64_t> values = {0,   1,    127,  128,  16383,
                                       16384, 1u << 21, ~std::uint64_t{0}};
  BitWriter w;
  for (const auto v : values) w.write_varint(v);
  BitReader r(w);
  for (const auto v : values) EXPECT_EQ(r.read_varint(), v);
}

TEST(BitWriter, VarintSizeSteps) {
  BitWriter a, b;
  a.write_varint(127);   // 1 group
  b.write_varint(128);   // 2 groups
  EXPECT_EQ(a.bit_size(), 8u);
  EXPECT_EQ(b.bit_size(), 16u);
}

TEST(BitIo, MixedStreamRandomizedRoundTrip) {
  Rng rng(0xC0DEC);
  for (int iteration = 0; iteration < 50; ++iteration) {
    // A random program of (code, value) instructions.
    struct Op {
      int code;
      std::uint64_t value;
      std::uint32_t width;
    };
    std::vector<Op> ops;
    const int len = 1 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < len; ++i) {
      Op op;
      op.code = static_cast<int>(rng.next_below(5));
      op.width = 1 + static_cast<std::uint32_t>(rng.next_below(64));
      const std::uint64_t mask = op.width == 64
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << op.width) - 1;
      op.value = rng() & mask;
      if (op.code == 1) op.value = rng.next_below(200);       // unary: small
      if (op.code == 2 || op.code == 3) op.value |= 1;        // gamma/delta >= 1
      ops.push_back(op);
    }
    BitWriter w;
    for (const Op& op : ops) {
      switch (op.code) {
        case 0: w.write_bits(op.value, op.width); break;
        case 1: w.write_unary(op.value); break;
        case 2: w.write_gamma(op.value); break;
        case 3: w.write_delta(op.value); break;
        case 4: w.write_varint(op.value); break;
        default: break;
      }
    }
    BitReader r(w);
    for (const Op& op : ops) {
      std::uint64_t got = 0;
      switch (op.code) {
        case 0: got = r.read_bits(op.width); break;
        case 1: got = r.read_unary(); break;
        case 2: got = r.read_gamma(); break;
        case 3: got = r.read_delta(); break;
        case 4: got = r.read_varint(); break;
        default: break;
      }
      ASSERT_EQ(got, op.value) << "op code " << op.code;
    }
    ASSERT_EQ(r.remaining(), 0u);
  }
}

TEST(BitReader, CodesTruncatedAtEveryBitThrow) {
  // Unary, gamma and delta values (runs of zeros past one 64-bit word
  // included), packed to bytes and read in place from every prefix: the
  // values that end before the cut read back unchanged, and the first
  // one that runs past it throws std::invalid_argument, even when the
  // bits it lacks sit in the pad of the prefix's last byte.
  BitWriter w;
  std::vector<std::pair<int, std::uint64_t>> ops;
  std::vector<std::uint64_t> ends;  // stream position after each op
  for (const std::uint64_t v : {0u, 1u, 5u, 63u, 64u, 130u}) {
    w.write_unary(v);
    ops.emplace_back(0, v);
    ends.push_back(w.bit_size());
  }
  for (const std::uint64_t v : {std::uint64_t{1}, std::uint64_t{2},
                                std::uint64_t{1000},
                                (std::uint64_t{1} << 40) + 7}) {
    w.write_gamma(v);
    ops.emplace_back(1, v);
    ends.push_back(w.bit_size());
    w.write_delta(v);
    ops.emplace_back(2, v);
    ends.push_back(w.bit_size());
  }
  const std::vector<std::uint8_t> bytes = to_bytes(w);
  for (std::uint64_t cut = 0; cut <= w.bit_size(); ++cut) {
    BitReader r(bytes, cut);
    std::size_t done = 0;
    try {
      for (; done < ops.size(); ++done) {
        const auto& [code, value] = ops[done];
        const std::uint64_t got = code == 0   ? r.read_unary()
                                  : code == 1 ? r.read_gamma()
                                              : r.read_delta();
        ASSERT_EQ(got, value) << "cut " << cut << " op " << done;
        ASSERT_LE(r.position(), cut) << "op " << done;
      }
    } catch (const std::invalid_argument&) {
    }
    const auto whole = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
    EXPECT_EQ(done, whole) << "cut " << cut;
  }
}

TEST(BitReader, PositionTracksReads) {
  BitWriter w;
  w.write_bits(5, 10);
  w.write_bits(6, 20);
  BitReader r(w);
  EXPECT_EQ(r.position(), 0u);
  r.read_bits(10);
  EXPECT_EQ(r.position(), 10u);
  r.read_bits(20);
  EXPECT_EQ(r.position(), 30u);
}

}  // namespace
}  // namespace croute
