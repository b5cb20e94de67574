/// \file protocol.hpp
/// \brief The croute wire protocol, in one place.
///
/// Every constant of the wire format lives in this block so a peer
/// implementation needs exactly one reference:
///
/// ## Framing
///
/// A connection is a byte stream of frames. Each frame is a compact
/// header followed by a payload:
///
/// ```
///   byte 0        frame type (see the table below)
///   byte 1        E=0: bit7 clear, bits 0..6 = payload size (0..127);
///                 header is 2 bytes total.
///                 E=1: bit7 set, bits 0..6 MUST be zero; bytes 2..3 are
///                 the payload size as 16-bit little-endian; header is
///                 4 bytes total. Sizes < 128 MUST use the short form —
///                 a non-canonical extended encoding is rejected.
///   payload       exactly `size` bytes, at most kMaxPayload (65535)
/// ```
///
/// The short form keeps the hot path (QUERY/ANSWER batches of a few
/// dozen bytes) at 2 bytes of overhead; the E-bit buys the occasional
/// big batch without a variable-length size loop.
///
/// ## Frame types
///
/// The decoder classifies all 256 type bytes up front (kTypeTable):
///
/// | byte        | meaning                                             |
/// |-------------|-----------------------------------------------------|
/// | 0x00        | invalid (catches zeroed buffers) — connection error |
/// | 0x01 HELLO  | client → server: varint protocol version            |
/// | 0x02 WELCOME| server → client: varint version (min of the two),   |
/// |             | varint n, u8 scheme kind, varint label id_bits      |
/// | 0x03 QUERY_V| varint req_id, varint count, count × (varint s,     |
/// |             | varint t) — vertex-addressed batch                  |
/// | 0x04 QUERY_L| varint req_id, varint count, count × (varint s,     |
/// |             | varint label_bits, ceil(label_bits/8) label bytes)  |
/// |             | — label-addressed batch (the label IS the address)  |
/// | 0x05 ANSWER | varint req_id, varint count, count × (u8 status,    |
/// |             | varint hops, varint header_bits; version >= 2 adds  |
/// |             | varint latency_ns, varint queue_wait_ns)            |
/// | 0x06 LABEL_REQ  | varint count, count × varint vertex             |
/// | 0x07 LABEL_RESP | varint count, count × (varint label_bits,       |
/// |                 | ceil(label_bits/8) label bytes)                 |
/// | 0x08 ERROR  | varint code, varint req_id (0 = connection-level),  |
/// |             | remaining bytes: UTF-8 message                      |
/// | 0x09 PING   | opaque payload, echoed back verbatim                |
/// | 0x0A PONG   | echo of a PING payload                              |
/// | 0x0B..0xAF  | unknown — connection error (fail loudly, not skip)  |
/// | 0xB0..0xFE  | reserved for extensions — same rejection today      |
/// | 0xFF        | sentinel, never valid on the wire                   |
///
/// ## Versions
///
/// kProtocolVersion = 2 is current. Version 1 peers are still served:
/// the WELCOME echoes min(client, server) and a v1 connection's ANSWER
/// frames omit the per-answer timing pair (latency/queue-wait). Anything
/// above the server's version is negotiated down; version 0 is rejected.
///
/// ## Varints
///
/// LEB128, unsigned, little-endian groups of 7 bits, high bit =
/// continuation, at most 10 bytes (64-bit range). Label *bits* are
/// packed LSB-first into bytes exactly as util/bit_io.hpp's to_bytes
/// packs them and BitReader reads them — a label round-trips server →
/// client → server byte-identically.
///
/// ## Error codes
///
/// kErrOverloaded (1): admission control rejected the batch — the
/// pending-query queue is full; back off and retry.
/// kErrMalformed (2): the frame parsed but its payload didn't (bad
/// varint, truncated label, out-of-range vertex). The offending req_id
/// is echoed; the connection survives.
/// kErrUnsupported (3): valid frame type the server won't serve here
/// (e.g. QUERY_L on a non-TZ scheme).

#pragma once

#include <cstdint>

namespace croute::net {

inline constexpr std::uint32_t kProtocolVersion = 2;
inline constexpr std::uint32_t kLegacyVersion = 1;  ///< oldest still served

inline constexpr std::size_t kMaxPayload = 65535;
inline constexpr std::size_t kMaxHeader = 4;

enum class FrameType : std::uint8_t {
  kHello = 0x01,
  kWelcome = 0x02,
  kQueryV = 0x03,
  kQueryL = 0x04,
  kAnswer = 0x05,
  kLabelReq = 0x06,
  kLabelResp = 0x07,
  kError = 0x08,
  kPing = 0x09,
  kPong = 0x0A,
};

/// Decode-table classification of a type byte.
enum class FrameClass : std::uint8_t {
  kInvalid,   ///< 0x00 and 0xFF — never legal
  kActive,    ///< 0x01..0x0A — the table above
  kUnknown,   ///< 0x0B..0xAF — never assigned
  kReserved,  ///< 0xB0..0xFE — held for extensions
};

inline constexpr std::uint32_t kErrOverloaded = 1;
inline constexpr std::uint32_t kErrMalformed = 2;
inline constexpr std::uint32_t kErrUnsupported = 3;

}  // namespace croute::net
