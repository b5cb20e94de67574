/// Wire-protocol tests: frame codec edges (varint/size boundaries,
/// truncated and non-canonical headers, the 256-entry type table),
/// frame-mutation fuzz in the test_fuzz.cpp style, hostile wire-label
/// inputs against decode_wire_label, and end-to-end socket serving —
/// every scheme kind must answer byte-identically over TCP and
/// in-process, label-addressed queries included.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/flat_scheme.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "service/route_service.hpp"
#include "sim/experiment.hpp"
#include "util/bit_io.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

using net::DecodeError;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::WireAnswer;
using net::WireQuery;

std::vector<std::uint8_t> make_frame(std::uint8_t type,
                                     std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  net::encode_header(type, payload.size(), out);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// ---------------------------------------------------------------------
// Frame header codec
// ---------------------------------------------------------------------

TEST(FrameHeader, SizeBoundariesRoundTrip) {
  // The four boundary sizes of the two-form header: 0 and 127 take the
  // 2-byte form, 128 and 65535 the 4-byte extended form.
  for (const std::size_t size : {std::size_t{0}, std::size_t{127},
                                 std::size_t{128}, std::size_t{65535}}) {
    const std::vector<std::uint8_t> payload(size, 0xAB);
    std::vector<std::uint8_t> bytes;
    const std::size_t header = net::encode_header(
        static_cast<std::uint8_t>(FrameType::kPing), size, bytes);
    EXPECT_EQ(header, size < 128 ? 2u : 4u) << size;
    bytes.insert(bytes.end(), payload.begin(), payload.end());

    FrameDecoder dec;
    dec.feed(bytes);
    Frame f;
    ASSERT_TRUE(dec.next(f)) << size;
    EXPECT_EQ(f.type, static_cast<std::uint8_t>(FrameType::kPing));
    ASSERT_EQ(f.payload.size(), size);
    EXPECT_EQ(dec.error(), DecodeError::kNone);
    EXPECT_FALSE(dec.next(f));  // exactly one frame
  }
}

TEST(FrameHeader, OversizedPayloadThrows) {
  std::vector<std::uint8_t> out;
  EXPECT_THROW(net::encode_header(0x09, net::kMaxPayload + 1, out),
               std::invalid_argument);
}

TEST(FrameHeader, TruncatedHeadersWaitWithoutError) {
  // 1 byte: not even a short header; 3 bytes of an extended header:
  // size still unknown. Both must WAIT (partial frame), not error.
  FrameDecoder dec;
  const std::uint8_t one[] = {0x09};
  dec.feed(one);
  Frame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.error(), DecodeError::kNone);

  FrameDecoder dec2;
  const std::uint8_t three[] = {0x09, 0x80, 0x00};  // extended, size cut
  dec2.feed(three);
  EXPECT_FALSE(dec2.next(f));
  EXPECT_EQ(dec2.error(), DecodeError::kNone);

  // Completing the stream yields the frame.
  const std::uint8_t rest1[] = {0x01, 0x00};  // size = 256
  dec2.feed(rest1);
  EXPECT_FALSE(dec2.next(f));  // payload not arrived yet
  const std::vector<std::uint8_t> payload(256, 0x55);
  dec2.feed(payload);
  ASSERT_TRUE(dec2.next(f));
  EXPECT_EQ(f.payload.size(), 256u);
}

TEST(FrameHeader, TypeTableCoversAll256) {
  using net::FrameClass;
  EXPECT_EQ(net::classify_type(0x00), FrameClass::kInvalid);
  EXPECT_EQ(net::classify_type(0xFF), FrameClass::kInvalid);
  for (int b = 0x01; b <= 0x0A; ++b) {
    EXPECT_EQ(net::classify_type(static_cast<std::uint8_t>(b)),
              FrameClass::kActive)
        << b;
  }
  for (int b = 0x0B; b <= 0xAF; ++b) {
    EXPECT_EQ(net::classify_type(static_cast<std::uint8_t>(b)),
              FrameClass::kUnknown)
        << b;
  }
  for (int b = 0xB0; b <= 0xFE; ++b) {
    EXPECT_EQ(net::classify_type(static_cast<std::uint8_t>(b)),
              FrameClass::kReserved)
        << b;
  }
}

TEST(FrameHeader, UnknownAndReservedAndInvalidTypesPoison) {
  const struct {
    std::uint8_t type;
    DecodeError want;
  } cases[] = {
      {0x00, DecodeError::kInvalidType},
      {0xFF, DecodeError::kInvalidType},
      {0x0B, DecodeError::kUnknownType},
      {0x7F, DecodeError::kUnknownType},
      {0xB0, DecodeError::kReservedType},
      {0xFE, DecodeError::kReservedType},
  };
  for (const auto& c : cases) {
    FrameDecoder dec;
    const std::uint8_t bytes[] = {c.type, 0x00};
    dec.feed(bytes);
    Frame f;
    EXPECT_FALSE(dec.next(f));
    EXPECT_EQ(dec.error(), c.want) << int(c.type);
    // Poisoned: even a valid follow-up frame stays unread.
    const std::uint8_t valid[] = {0x09, 0x00};
    dec.feed(valid);
    EXPECT_FALSE(dec.next(f));
  }
}

TEST(FrameHeader, NonCanonicalExtendedSizeRejected) {
  {
    // E=1 with a size that fits the short form.
    FrameDecoder dec;
    const std::uint8_t bytes[] = {0x09, 0x80, 0x05, 0x00};
    dec.feed(bytes);
    Frame f;
    EXPECT_FALSE(dec.next(f));
    EXPECT_EQ(dec.error(), DecodeError::kNonCanonicalSize);
  }
  {
    // E=1 with nonzero low 7 bits in byte 1.
    FrameDecoder dec;
    const std::uint8_t bytes[] = {0x09, 0x81, 0x00, 0x01};
    dec.feed(bytes);
    Frame f;
    EXPECT_FALSE(dec.next(f));
    EXPECT_EQ(dec.error(), DecodeError::kNonCanonicalSize);
  }
}

TEST(FrameHeader, ByteAtATimeDelivery) {
  // A frame drip-fed one byte per feed() must assemble identically.
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes =
      make_frame(static_cast<std::uint8_t>(FrameType::kPing), payload);
  FrameDecoder dec;
  Frame f;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(std::span<const std::uint8_t>(&bytes[i], 1));
    EXPECT_FALSE(dec.next(f));
  }
  dec.feed(std::span<const std::uint8_t>(&bytes.back(), 1));
  ASSERT_TRUE(dec.next(f));
  ASSERT_EQ(f.payload.size(), sizeof payload);
  EXPECT_EQ(0, std::memcmp(f.payload.data(), payload, sizeof payload));
}

// ---------------------------------------------------------------------
// Varints and payload codecs
// ---------------------------------------------------------------------

TEST(WireVarint, BoundaryValuesRoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{65535}, std::uint64_t{1} << 32,
        ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> bytes;
    net::put_varint(bytes, v);
    net::PayloadReader r(bytes);
    std::uint64_t got = 0;
    ASSERT_TRUE(r.read_varint(got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(r.done());
  }
}

TEST(WireVarint, TruncatedAndOverlongRejected) {
  {
    net::PayloadReader r(std::span<const std::uint8_t>{});
    std::uint64_t v = 0;
    EXPECT_FALSE(r.read_varint(v));
  }
  {
    const std::uint8_t bytes[] = {0x80};  // continuation, then nothing
    net::PayloadReader r(bytes);
    std::uint64_t v = 0;
    EXPECT_FALSE(r.read_varint(v));
  }
  {
    // 10th byte carrying more than the final bit (overflow of 64 bits).
    const std::uint8_t bytes[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                  0xFF, 0xFF, 0xFF, 0xFF, 0x02};
    net::PayloadReader r(bytes);
    std::uint64_t v = 0;
    EXPECT_FALSE(r.read_varint(v));
  }
}

TEST(WirePayload, QueryRoundTripBothForms) {
  const std::uint8_t label_bytes[] = {0xDE, 0xAD, 0xBE};
  std::vector<WireQuery> queries(3);
  queries[0] = {5, 9, {}, 0};
  queries[1] = {0, 0, {}, 0};
  queries[2] = {7, kNoVertex, label_bytes, 20};

  // Vertex form.
  std::vector<std::uint8_t> payload;
  net::encode_query(payload, 42, std::span(queries.data(), 2), false);
  std::uint64_t req_id = 0;
  std::vector<WireQuery> got;
  ASSERT_TRUE(net::decode_query(payload, false, req_id, got));
  EXPECT_EQ(req_id, 42u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].s, 5u);
  EXPECT_EQ(got[0].t, 9u);

  // Label form.
  payload.clear();
  got.clear();
  net::encode_query(payload, 43, std::span(queries.data() + 2, 1), true);
  ASSERT_TRUE(net::decode_query(payload, true, req_id, got));
  EXPECT_EQ(req_id, 43u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].s, 7u);
  EXPECT_EQ(got[0].label_bits, 20u);
  ASSERT_EQ(got[0].label.size(), 3u);
  EXPECT_EQ(0, std::memcmp(got[0].label.data(), label_bytes, 3));

  // Trailing garbage fails decode.
  payload.push_back(0x00);
  got.clear();
  EXPECT_FALSE(net::decode_query(payload, true, req_id, got));
}

TEST(WirePayload, HostileCountRejectedWithoutAllocation) {
  // count = 2^60 with a 4-byte payload must fail fast (the decoder may
  // not pre-size from the claimed count).
  std::vector<std::uint8_t> payload;
  net::put_varint(payload, 1);                       // req_id
  net::put_varint(payload, std::uint64_t{1} << 60);  // count
  std::uint64_t req_id = 0;
  std::vector<WireQuery> got;
  EXPECT_FALSE(net::decode_query(payload, false, req_id, got));
  EXPECT_TRUE(got.empty());
}

TEST(WirePayload, AnswerVersionsDiffer) {
  std::vector<WireAnswer> answers(1);
  answers[0] = {0, 4, 77, 1500, 300};
  std::vector<std::uint8_t> v2, v1;
  net::encode_answer(v2, 9, 2, answers);
  net::encode_answer(v1, 9, 1, answers);
  EXPECT_GT(v2.size(), v1.size());  // v1 omits the timing pair

  std::uint64_t req_id = 0;
  std::vector<WireAnswer> got;
  ASSERT_TRUE(net::decode_answer(v1, 1, req_id, got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].hops, 4u);
  EXPECT_EQ(got[0].header_bits, 77u);
  EXPECT_EQ(got[0].latency_ns, 0u);  // not on the v1 wire

  got.clear();
  ASSERT_TRUE(net::decode_answer(v2, 2, req_id, got));
  EXPECT_EQ(got[0].latency_ns, 1500u);
  EXPECT_EQ(got[0].queue_wait_ns, 300u);

  // Version mismatch when parsing = trailing/missing bytes = rejection.
  got.clear();
  EXPECT_FALSE(net::decode_answer(v2, 1, req_id, got));
  got.clear();
  EXPECT_FALSE(net::decode_answer(v1, 2, req_id, got));
}

// ---------------------------------------------------------------------
// bit_io byte bridge (to_bytes, read back in place by BitReader)
// ---------------------------------------------------------------------

TEST(WireBits, ToBytesFromBytesRoundTrip) {
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    BitWriter w;
    const int fields = 1 + static_cast<int>(rng.next_below(20));
    std::vector<std::pair<std::uint64_t, std::uint32_t>> expect;
    for (int i = 0; i < fields; ++i) {
      const std::uint32_t bits = 1 + static_cast<std::uint32_t>(
                                         rng.next_below(64));
      const std::uint64_t value =
          bits == 64 ? rng() : rng() & ((1ULL << bits) - 1);
      w.write_bits(value, bits);
      expect.emplace_back(value, bits);
    }
    const std::vector<std::uint8_t> bytes = to_bytes(w);
    EXPECT_EQ(bytes.size(), (w.bit_size() + 7) / 8);
    BitReader r(bytes, w.bit_size());
    for (const auto& [value, bits] : expect) {
      EXPECT_EQ(r.read_bits(bits), value);
    }
    EXPECT_EQ(r.position(), w.bit_size());
  }
}

// ---------------------------------------------------------------------
// Shared serving fixture (one graph + per-scheme services)
// ---------------------------------------------------------------------

struct NetFixture {
  Graph g;
  explicit NetFixture(VertexId n = 180) {
    Rng rng(11);
    g = make_workload(GraphFamily::kErdosRenyi, n, rng);
  }

  RouteServiceOptions options(SchemeKind scheme) const {
    RouteServiceOptions opt;
    opt.scheme = scheme;
    opt.threads = 2;
    opt.seed = 5;
    return opt;
  }
};

/// Runs \p body with a served NetServer (own thread) and a connected
/// client.
template <typename Body>
void with_server(RouteService& service, net::NetServerOptions nopt,
                 Body&& body) {
  net::NetServer server(service, nopt);
  std::thread loop([&server] { server.run(); });
  try {
    net::NetClient client;
    client.connect("127.0.0.1", server.port());
    body(client, server);
  } catch (...) {
    server.stop();
    loop.join();
    throw;
  }
  server.stop();
  loop.join();
}

/// Raw loopback socket to \p port, without the HELLO handshake (the
/// server then speaks kProtocolVersion), so a test controls exactly which
/// bytes arrive in one write.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One reply frame read off a raw socket.
struct RawReply {
  std::uint8_t type = 0;
  std::uint64_t req_id = 0;
  std::uint32_t error_code = 0;
  std::vector<WireAnswer> answers;
};

/// Reads \p count reply frames (fewer on EOF) from a raw socket, sorted
/// by req_id: a rejected frame is answered at decode time, ahead of the
/// batch's answers.
std::vector<RawReply> read_raw_replies(int fd, std::size_t count) {
  FrameDecoder dec;
  std::vector<RawReply> out;
  while (out.size() < count) {
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    dec.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    Frame f;
    while (dec.next(f)) {
      RawReply r;
      r.type = f.type;
      if (f.type == static_cast<std::uint8_t>(FrameType::kAnswer)) {
        EXPECT_TRUE(net::decode_answer(f.payload, net::kProtocolVersion,
                                       r.req_id, r.answers));
      } else if (f.type == static_cast<std::uint8_t>(FrameType::kError)) {
        std::string message;
        EXPECT_TRUE(
            net::decode_error(f.payload, r.error_code, r.req_id, message));
      }
      out.push_back(std::move(r));
    }
  }
  std::sort(out.begin(), out.end(), [](const RawReply& a, const RawReply& b) {
    return a.req_id < b.req_id;
  });
  return out;
}

/// One QUERY_L frame per label, each a single query from \p s, appended
/// to one buffer; req_ids count up from \p first_req_id.
std::vector<std::uint8_t> label_frames(
    VertexId s, std::span<const net::OwnedLabel> labels,
    std::uint64_t first_req_id) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const WireQuery q[] = {{s, kNoVertex, labels[i].bytes, labels[i].bits}};
    std::vector<std::uint8_t> payload;
    net::encode_query(payload, first_req_id + i, q, true);
    const std::vector<std::uint8_t> frame =
        make_frame(static_cast<std::uint8_t>(FrameType::kQueryL), payload);
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

/// One decode_wire_label outcome: a throw, or what it produced.
struct WireDecode {
  bool threw = false;
  VertexId t = kNoVertex;
  std::uint64_t position = 0;
  std::vector<FlatScheme::LabelEntryView> entries;
  std::vector<Port> ports;
};

WireDecode decode_outcome(const LabelCodec& codec, VertexId n,
                          BitReader& r) {
  WireDecode d;
  try {
    d.t = decode_wire_label(codec, n, r, d.entries, d.ports);
    d.position = r.position();
  } catch (const std::invalid_argument&) {
    d.threw = true;
  }
  return d;
}

/// True when the full wire-label check rejects \p bits bits of \p bytes
/// under \p pkg's codec — the server's verdict for non-canonical bytes.
bool full_check_rejects(const SchemePackage& pkg,
                        std::span<const std::uint8_t> bytes,
                        std::uint32_t bits) {
  BitReader r(bytes, bits);
  const WireDecode d =
      decode_outcome(pkg.tz->label_codec(), pkg.graph->num_vertices(), r);
  return d.threw || d.t >= pkg.graph->num_vertices() || d.position != bits;
}

// ---------------------------------------------------------------------
// decode_wire_label hostile inputs
// ---------------------------------------------------------------------

/// The copy path the in-place reader replaced: repack the bytes into a
/// BitWriter and read that. Kept as the reference BitReader's byte-span
/// form must match.
BitWriter copy_into_writer(std::span<const std::uint8_t> bytes,
                           std::uint64_t bits) {
  BitWriter w;
  std::uint64_t done = 0;
  while (done < bits) {
    const std::uint32_t width =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(64, bits - done));
    const std::uint64_t base = done >> 3;
    std::uint64_t word = 0;
    for (std::uint32_t b = 0; b < (width + 7) / 8 && base + b < bytes.size();
         ++b) {
      word |= std::uint64_t{bytes[base + b]} << (8 * b);
    }
    if (width < 64) word &= (std::uint64_t{1} << width) - 1;
    w.write_bits(word, width);
    done += width;
  }
  return w;
}

/// Decodes \p bits bits of \p bytes in place and through the copy path;
/// both must throw, or both must yield the same entries and ports.
/// Returns whether they threw.
bool expect_same_decode(const LabelCodec& codec, VertexId n,
                        std::span<const std::uint8_t> bytes,
                        std::uint64_t bits, const std::string& what) {
  BitReader in_place(bytes, bits);
  const WireDecode got = decode_outcome(codec, n, in_place);
  const BitWriter copy = copy_into_writer(bytes, bits);
  BitReader copied(copy);
  const WireDecode want = decode_outcome(codec, n, copied);
  EXPECT_EQ(got.threw, want.threw) << what;
  if (got.threw || want.threw) return true;
  EXPECT_EQ(got.t, want.t) << what;
  EXPECT_EQ(got.position, want.position) << what;
  EXPECT_EQ(got.ports, want.ports) << what;
  EXPECT_EQ(got.entries.size(), want.entries.size()) << what;
  for (std::size_t i = 0;
       i < std::min(got.entries.size(), want.entries.size()); ++i) {
    EXPECT_EQ(got.entries[i].w, want.entries[i].w) << what;
    EXPECT_EQ(got.entries[i].dfs_in, want.entries[i].dfs_in) << what;
    EXPECT_EQ(got.entries[i].light_off, want.entries[i].light_off) << what;
    EXPECT_EQ(got.entries[i].light_len, want.entries[i].light_len) << what;
  }
  return false;
}

TEST(WireLabelDecode, HostileInputsThrowCleanly) {
  NetFixture fx;
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  const SchemePackagePtr pkg = service.package();
  const LabelCodec& codec = pkg->tz->label_codec();
  const VertexId n = fx.g.num_vertices();

  // A valid wire label round-trips.
  BitWriter w;
  codec.encode(pkg->tz->label(3), w);
  {
    BitReader r(w);
    std::vector<FlatScheme::LabelEntryView> entries;
    std::vector<Port> ports;
    EXPECT_EQ(decode_wire_label(codec, n, r, entries, ports), VertexId{3});
    EXPECT_EQ(r.position(), w.bit_size());
    EXPECT_FALSE(entries.empty());
  }
  // Truncated: cut the stream short and decode must throw, not read
  // out of bounds.
  {
    const std::vector<std::uint8_t> bytes = to_bytes(w);
    const std::uint64_t cut = w.bit_size() / 2;
    BitReader r(std::span<const std::uint8_t>(bytes).first((cut + 7) / 8),
                cut);
    std::vector<FlatScheme::LabelEntryView> entries;
    std::vector<Port> ports;
    EXPECT_THROW(decode_wire_label(codec, n, r, entries, ports),
                 std::invalid_argument);
  }
  // Out-of-range target id: decode the (valid) label for vertex 3
  // against a shrunken universe, so the leading id fails `t < n`.
  {
    BitReader r(w);
    std::vector<FlatScheme::LabelEntryView> entries;
    std::vector<Port> ports;
    EXPECT_THROW(decode_wire_label(codec, 3, r, entries, ports),
                 std::invalid_argument);
  }
  // Every label of the instance, cut at every bit (the bytes a frame
  // would carry for that length) and with each byte overwritten by 0xFF:
  // the in-place reader agrees with the copy path on every input.
  std::uint64_t inputs = 0;
  std::uint64_t thrown = 0;
  for (VertexId t = 0; t < n; ++t) {
    BitWriter lw;
    codec.encode(pkg->tz->label(t), lw);
    const std::vector<std::uint8_t> bytes = to_bytes(lw);
    const std::uint64_t bits = lw.bit_size();
    for (std::uint64_t cut = 0; cut <= bits; ++cut) {
      const std::span<const std::uint8_t> prefix =
          std::span<const std::uint8_t>(bytes).first((cut + 7) / 8);
      const bool threw = expect_same_decode(
          codec, n, prefix, cut,
          "label " + std::to_string(t) + " cut at " + std::to_string(cut));
      ++inputs;
      thrown += threw ? 1 : 0;
      if (cut == bits) {
        EXPECT_FALSE(threw) << "label " << t;
      }
    }
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[i] = 0xFF;
      thrown += expect_same_decode(codec, n, mutated, bits,
                                   "label " + std::to_string(t) +
                                       " byte " + std::to_string(i) +
                                       " = 0xFF")
                    ? 1
                    : 0;
      ++inputs;
    }
  }
  EXPECT_GT(thrown, 0u);
  EXPECT_LT(thrown, inputs);
}

// ---------------------------------------------------------------------
// Frame-mutation fuzz (test_fuzz.cpp style: seeded, never crashes)
// ---------------------------------------------------------------------

TEST(FrameFuzz, MutatedFramesNeverCrashAndMostlyReject) {
  // Build one valid QUERY_V frame, then 400 seeded mutations across 5
  // kinds. Every outcome is acceptable EXCEPT a crash or an accepted
  // frame whose payload then decodes to out-of-thin-air queries beyond
  // the mutated buffer. The large majority must be rejected outright.
  std::vector<WireQuery> queries(4);
  for (std::uint32_t i = 0; i < queries.size(); ++i) {
    queries[i] = {i, i + 1, {}, 0};
  }
  std::vector<std::uint8_t> payload;
  net::encode_query(payload, 7, queries, false);
  const std::vector<std::uint8_t> frame =
      make_frame(static_cast<std::uint8_t>(FrameType::kQueryV), payload);

  Rng rng(1234);
  int rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> mutated = frame;
    const std::uint64_t kind = rng.next_below(5);
    switch (kind) {
      case 0:  // flip one bit
        mutated[rng.next_below(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      case 1:  // truncate
        mutated.resize(rng.next_below(mutated.size()));
        break;
      case 2:  // corrupt the type byte
        mutated[0] = static_cast<std::uint8_t>(rng());
        break;
      case 3:  // corrupt the size byte(s)
        mutated[1] = static_cast<std::uint8_t>(rng());
        break;
      default:  // append garbage
        for (int i = 0; i < 8; ++i) {
          mutated.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
    }
    FrameDecoder dec;
    dec.feed(mutated);
    Frame f;
    bool accepted_a_query = false;
    while (dec.next(f)) {
      if (f.type == static_cast<std::uint8_t>(FrameType::kQueryV)) {
        std::uint64_t req_id = 0;
        std::vector<WireQuery> got;
        if (net::decode_query(f.payload, false, req_id, got)) {
          accepted_a_query = true;
          EXPECT_LE(got.size(), 64u);  // sane bound, no resize bombs
        }
      }
    }
    if (!accepted_a_query) ++rejected;
  }
  // Structural mutations (truncation, type/size corruption) must reject;
  // value-preserving ones legitimately survive — a bit flip inside a
  // vertex-id varint is still a well-formed query, and appended garbage
  // leaves the valid prefix frame intact. Seed 1234 rejects 256/400;
  // assert the structural majority with headroom rather than the exact
  // count.
  EXPECT_GT(rejected, 150);
}

// ---------------------------------------------------------------------
// End-to-end: socket answers == in-process answers, every scheme kind
// ---------------------------------------------------------------------

TEST(NetServe, SocketAnswersByteIdenticalEverySchemeKind) {
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  for (const SchemeKind scheme :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake, SchemeKind::kCowen,
        SchemeKind::kFullTable}) {
    RouteService service(fx.g, fx.options(scheme));

    // In-process reference answers.
    Rng rng(99);
    std::vector<RouteQuery> ref_queries(64);
    std::vector<WireQuery> wire(64);
    for (std::size_t i = 0; i < ref_queries.size(); ++i) {
      const auto s = static_cast<VertexId>(rng.next_below(n));
      const auto t = static_cast<VertexId>(rng.next_below(n));
      ref_queries[i] = {s, t, kUnknownDistance};
      wire[i] = {s, t, {}, 0};
    }
    const std::vector<RouteAnswer> expect =
        service.route_collect(std::span<const RouteQuery>{ref_queries});

    with_server(service, {}, [&](net::NetClient& client, net::NetServer&) {
      EXPECT_EQ(client.welcome().n, n);
      EXPECT_EQ(client.welcome().scheme, static_cast<std::uint8_t>(scheme));
      EXPECT_TRUE(client.ping());
      const std::vector<WireAnswer> got = client.query(wire, false);
      ASSERT_EQ(got.size(), expect.size()) << scheme_name(scheme);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].status,
                  static_cast<std::uint8_t>(expect[i].status));
        EXPECT_EQ(got[i].hops, expect[i].hops);
        EXPECT_EQ(got[i].header_bits, expect[i].header_bits);
      }
    });
  }
}

TEST(NetServe, LabelAddressedQueriesMatchVertexAddressed) {
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));

  with_server(service, {}, [&](net::NetClient& client, net::NetServer&) {
    ASSERT_GT(client.welcome().id_bits, 0u);
    Rng rng(17);
    std::vector<VertexId> targets(32);
    for (auto& t : targets) t = static_cast<VertexId>(rng.next_below(n));
    const std::vector<net::OwnedLabel> labels = client.fetch_labels(targets);
    ASSERT_EQ(labels.size(), targets.size());

    std::vector<WireQuery> by_vertex(targets.size());
    std::vector<WireQuery> by_label(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto s = static_cast<VertexId>(rng.next_below(n));
      by_vertex[i] = {s, targets[i], {}, 0};
      by_label[i] = {s, kNoVertex, labels[i].bytes, labels[i].bits};
    }
    const std::vector<WireAnswer> v = client.query(by_vertex, false);
    const std::vector<WireAnswer> l = client.query(by_label, true);
    ASSERT_EQ(v.size(), l.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v[i].status, l[i].status) << i;
      EXPECT_EQ(v[i].hops, l[i].hops) << i;
      EXPECT_EQ(v[i].header_bits, l[i].header_bits) << i;
    }
  });
}

TEST(NetServe, BadFramesGetErrorsAndGoodQueriesStillServe) {
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));

  with_server(service, {}, [&](net::NetClient& client, net::NetServer&) {
    // Hostile label bytes: the frame is rejected alone (kErrMalformed)
    // and the connection survives to serve a good query after it.
    const std::uint8_t junk[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
    std::vector<WireQuery> bad(1);
    bad[0] = {0, kNoVertex, junk, 48};
    EXPECT_THROW(client.query(bad, true), std::runtime_error);

    std::vector<WireQuery> good(1);
    good[0] = {0, static_cast<VertexId>(n - 1), {}, 0};
    const std::vector<WireAnswer> got = client.query(good, false);
    ASSERT_EQ(got.size(), 1u);

    // Out-of-range vertex id: same per-frame rejection.
    std::vector<WireQuery> oob(1);
    oob[0] = {0, n, {}, 0};
    EXPECT_THROW(client.query(oob, false), std::runtime_error);
    EXPECT_EQ(client.query(good, false).size(), 1u);

    // A LABEL_REQ whose labels overflow one LABEL_RESP frame: ERROR for
    // that request, and the server keeps serving (it used to throw out
    // of its loop).
    std::vector<VertexId> many(8000);
    for (std::size_t i = 0; i < many.size(); ++i) {
      many[i] = static_cast<VertexId>(i % n);
    }
    client.send_label_req(many);
    net::Reply reply;
    ASSERT_TRUE(client.read_reply(reply));
    EXPECT_EQ(reply.type, static_cast<std::uint8_t>(FrameType::kError));
    EXPECT_EQ(reply.error_code, net::kErrMalformed);
    EXPECT_EQ(client.query(good, false).size(), 1u);
    // fetch_labels splits the same ask into requests that fit.
    EXPECT_EQ(client.fetch_labels(many).size(), many.size());
  });
}

TEST(NetServe, LegacyVersionHandshakeAndAnswers) {
  NetFixture fx;
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  with_server(service, {}, [&](net::NetClient&, net::NetServer& server) {
    net::NetClient old;
    old.connect("127.0.0.1", server.port(), net::kLegacyVersion);
    EXPECT_EQ(old.version(), net::kLegacyVersion);
    std::vector<WireQuery> q(1);
    q[0] = {1, 2, {}, 0};
    const std::vector<WireAnswer> got = old.query(q, false);
    ASSERT_EQ(got.size(), 1u);
    // v1 answers carry no timing pair — decoded as zero.
    EXPECT_EQ(got[0].latency_ns, 0u);
    EXPECT_EQ(got[0].queue_wait_ns, 0u);
  });
}

TEST(NetServe, AdmissionControlRejectsOverload) {
  NetFixture fx;
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  net::NetServerOptions nopt;
  nopt.coalesce = 4;    // tiny queue: the 5th pending query overflows
  nopt.max_pending = 4;
  with_server(service, nopt, [&](net::NetClient& client, net::NetServer&) {
    // One frame bigger than max_pending trips admission control.
    std::vector<WireQuery> burst(5);
    for (std::uint32_t i = 0; i < burst.size(); ++i) {
      burst[i] = {i, i, {}, 0};
    }
    try {
      client.query(burst, false);
      FAIL() << "expected kErrOverloaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("server error 1"),
                std::string::npos)
          << e.what();
    }
    // Smaller batches still serve.
    std::vector<WireQuery> ok(burst.begin(), burst.begin() + 3);
    EXPECT_EQ(client.query(ok, false).size(), 3u);
  });
}

TEST(NetServe, FramingErrorDropsConnectionLoudly) {
  // A reserved type byte on the raw socket must draw ERROR kErrMalformed
  // ("framing error: ...") followed by connection close — framing errors
  // are unrecoverable on a byte stream, so the server says why and drops.
  NetFixture fx;
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  with_server(service, {}, [&](net::NetClient&, net::NetServer& server) {
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    const std::uint8_t poison[] = {0xB0, 0x00};  // reserved type
    ASSERT_EQ(::send(fd, poison, sizeof poison, 0),
              static_cast<ssize_t>(sizeof poison));

    FrameDecoder dec;
    bool got_error = false;
    bool got_eof = false;
    for (;;) {
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) {
        got_eof = n == 0;
        break;
      }
      dec.feed(std::span<const std::uint8_t>(
          buf, static_cast<std::size_t>(n)));
      Frame f;
      while (dec.next(f)) {
        if (f.type == static_cast<std::uint8_t>(FrameType::kError)) {
          std::uint32_t code = 0;
          std::uint64_t req_id = 0;
          std::string message;
          ASSERT_TRUE(net::decode_error(f.payload, code, req_id, message));
          EXPECT_EQ(code, net::kErrMalformed);
          EXPECT_NE(message.find("framing error"), std::string::npos)
              << message;
          got_error = true;
        }
      }
    }
    ::close(fd);
    EXPECT_TRUE(got_error);
    EXPECT_TRUE(got_eof);
  });
}

TEST(NetServe, NonCanonicalLabelBytesGetTheFullCheck) {
  // One write, one epoll pass, one batch of three QUERY_L frames for the
  // same destination: its canonical label (the cached bytes LABEL_REQ
  // hands out), a copy with one bit flipped, and the canonical label with
  // its pad bits set. Only the flipped copy fails, and only its frame.
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  const SchemePackagePtr pkg = service.package();

  with_server(service, {}, [&](net::NetClient& client,
                               net::NetServer& server) {
    // A destination whose label leaves pad bits in its last byte.
    std::vector<net::OwnedLabel> labels;
    VertexId t = 0;
    for (; t < n; ++t) {
      const VertexId one[] = {t};
      labels = client.fetch_labels(one);
      ASSERT_EQ(labels.size(), 1u);
      if (labels[0].bits % 8 != 0) break;
    }
    ASSERT_LT(t, n);
    const net::OwnedLabel canonical = labels[0];

    // The first bit past the id field (so the frame still names t) whose
    // flip the full check rejects.
    net::OwnedLabel flipped = canonical;
    bool rejected = false;
    for (std::uint32_t bit = pkg->tz->label_codec().id_bits();
         bit < canonical.bits && !rejected; ++bit) {
      flipped.bytes = canonical.bytes;
      flipped.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      rejected = full_check_rejects(*pkg, flipped.bytes, flipped.bits);
    }
    ASSERT_TRUE(rejected);
    ASSERT_EQ(wire_label_target(pkg->tz->label_codec(), flipped.bytes,
                                flipped.bits),
              t);

    net::OwnedLabel padded = canonical;
    padded.bytes.back() |= static_cast<std::uint8_t>(0xFFu
                                                     << (canonical.bits % 8));
    ASSERT_NE(padded.bytes, canonical.bytes);
    ASSERT_FALSE(full_check_rejects(*pkg, padded.bytes, padded.bits));

    const VertexId s = n / 2;
    const net::OwnedLabel batch[] = {canonical, flipped, padded};
    const std::vector<std::uint8_t> wire = label_frames(s, batch, 100);
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    const std::vector<RawReply> replies = read_raw_replies(fd, 3);
    ::close(fd);

    const RouteAnswer want = service.route_one(RouteQuery{s, t});
    ASSERT_EQ(replies.size(), 3u);
    const std::uint8_t kinds[] = {
        static_cast<std::uint8_t>(FrameType::kAnswer),
        static_cast<std::uint8_t>(FrameType::kError),
        static_cast<std::uint8_t>(FrameType::kAnswer)};
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(replies[i].type, kinds[i]) << i;
      EXPECT_EQ(replies[i].req_id, 100 + i) << i;
    }
    EXPECT_EQ(replies[1].error_code, net::kErrMalformed);
    for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
      ASSERT_EQ(replies[i].answers.size(), 1u) << i;
      EXPECT_EQ(replies[i].answers[0].status,
                static_cast<std::uint8_t>(want.status)) << i;
      EXPECT_EQ(replies[i].answers[0].hops, want.hops) << i;
      EXPECT_EQ(replies[i].answers[0].header_bits, want.header_bits) << i;
    }
  });
}

TEST(NetServe, LabelsFromARetiredGenerationGetTheFullCheck) {
  // Labels fetched before a publish that widens port_bits (one vertex
  // gains many links) are not the new generation's bytes: the server must
  // check them against the new generation, not accept them from the old
  // cache. A stale label the new codec rejects shares one write with a
  // fresh one; only the stale frame fails (an accepted stale label would
  // make route() throw for the whole batch).
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  const SchemePackagePtr old_pkg = service.package();

  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u) {
    for (const Arc& a : fx.g.arcs(u)) {
      if (u < a.head) b.add_edge(u, a.head, a.weight);
    }
  }
  const VertexId hub = 0;
  for (VertexId v = 1; v < n && fx.g.degree(hub) + v < 80; ++v) {
    if (!b.has_edge(hub, v)) b.add_edge(hub, v, 1.0);
  }
  const SchemePackagePtr new_pkg = build_scheme_package(
      std::make_shared<const Graph>(b.build()), service.options());
  ASSERT_GT(new_pkg->tz->label_codec().tree_codec().port_bits,
            old_pkg->tz->label_codec().tree_codec().port_bits);

  // A destination whose old label the new generation rejects.
  VertexId t = 0;
  for (; t < n; ++t) {
    BitWriter w;
    old_pkg->tz->label_codec().encode(old_pkg->tz->label(t), w);
    if (full_check_rejects(*new_pkg, to_bytes(w),
                           static_cast<std::uint32_t>(w.bit_size()))) {
      break;
    }
  }
  ASSERT_LT(t, n);

  net::NetServer server(service, {});
  std::thread loop([&server] { server.run(); });
  struct Join {
    net::NetServer& server;
    std::thread& loop;
    void now() {
      if (!loop.joinable()) return;
      server.stop();
      loop.join();
    }
    ~Join() { now(); }
  } join{server, loop};

  net::NetClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<VertexId> every(n);
  for (VertexId v = 0; v < n; ++v) every[v] = v;
  const std::vector<net::OwnedLabel> old_labels = client.fetch_labels(every);
  ASSERT_EQ(old_labels.size(), std::size_t{n});

  service.publish(new_pkg);
  const VertexId one[] = {t};
  const std::vector<net::OwnedLabel> fresh = client.fetch_labels(one);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_NE(fresh[0].bytes, old_labels[t].bytes);

  const VertexId s = n - 1;
  const net::OwnedLabel batch[] = {old_labels[t], fresh[0]};
  const std::vector<std::uint8_t> wire = label_frames(s, batch, 7);
  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  const std::vector<RawReply> replies = read_raw_replies(fd, 2);
  ::close(fd);
  client.close();
  join.now();

  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, static_cast<std::uint8_t>(FrameType::kError));
  EXPECT_EQ(replies[0].error_code, net::kErrMalformed);
  ASSERT_EQ(replies[1].type, static_cast<std::uint8_t>(FrameType::kAnswer));
  const RouteAnswer want = service.route_one(RouteQuery{s, t});
  ASSERT_EQ(replies[1].answers.size(), 1u);
  EXPECT_EQ(replies[1].answers[0].hops, want.hops);
  EXPECT_EQ(replies[1].answers[0].header_bits, want.header_bits);
  // The publish dropped the n entries of the retired generation; the new
  // one holds only t's.
  EXPECT_EQ(server.canonical_labels(), 1u);
}

// ---------------------------------------------------------------------
// Redesigned-API satellites: the stamped paths
// ---------------------------------------------------------------------

TEST(RouteApi, StalePathViewFailsLoudly) {
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  RouteServiceOptions opt = fx.options(SchemeKind::kTZDirect);
  opt.record_paths = true;
  RouteService service(fx.g, opt);

  std::vector<RouteQuery> queries(1);
  queries[0] = {0, static_cast<VertexId>(n - 1), kUnknownDistance};
  std::vector<RouteAnswer> first =
      service.route_collect(std::span<const RouteQuery>{queries});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_GT(first[0].path.size(), 0u);  // fresh view reads fine

  // A later batch reuses the arena; the old view must throw on every
  // accessor (always-on check — CI builds are NDEBUG).
  (void)service.route_collect(std::span<const RouteQuery>{queries});
  EXPECT_THROW((void)first[0].path.size(), std::logic_error);
  EXPECT_THROW((void)first[0].path.data(), std::logic_error);
  EXPECT_THROW((void)first[0].path[0], std::logic_error);
  EXPECT_THROW(
      (void)static_cast<std::span<const VertexId>>(first[0].path),
      std::logic_error);

  // route_one's dedicated arena invalidates only route_one views.
  const RouteAnswer a = service.route_one(queries[0]);
  EXPECT_GT(a.path.size(), 0u);
  const RouteAnswer b = service.route_one(queries[0]);
  EXPECT_THROW((void)a.path.size(), std::logic_error);
  EXPECT_GT(b.path.size(), 0u);
}

}  // namespace
}  // namespace croute
