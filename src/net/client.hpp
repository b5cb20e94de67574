/// \file client.hpp
/// \brief Small blocking client for the croute wire protocol.
///
/// Owns one TCP connection: connect() performs the HELLO/WELCOME
/// handshake, then queries flow as frames. The API splits cleanly into a
/// send path (send_query) and a receive path (read_reply /
/// try_read_reply) with disjoint state, so an open-loop driver may run
/// the two paths from two threads over one socket (TCP is full duplex);
/// everything else is single-threaded.
///
/// Convenience wrappers (query, fetch_labels, ping) pair a send with a
/// blocking wait for the matching reply and throw std::runtime_error on
/// ERROR frames or transport failure.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/wire.hpp"

namespace croute::net {

/// A label with owned bytes (client-side labels outlive receive buffers).
struct OwnedLabel {
  std::uint32_t bits = 0;
  std::vector<std::uint8_t> bytes;
};

/// One received frame, payload decoded and copied out.
struct Reply {
  std::uint8_t type = 0;  ///< FrameType byte
  std::uint64_t req_id = 0;
  std::vector<WireAnswer> answers;    ///< ANSWER
  std::uint32_t error_code = 0;       ///< ERROR
  std::string error_message;          ///< ERROR
  std::vector<OwnedLabel> labels;     ///< LABEL_RESP
  std::vector<std::uint8_t> payload;  ///< PONG (echo), raw
};

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects and handshakes (HELLO with \p version → WELCOME). Throws
  /// std::runtime_error on refusal or a non-WELCOME first frame.
  void connect(const std::string& host, std::uint16_t port,
               std::uint32_t version = kProtocolVersion);
  void close() noexcept;
  bool connected() const noexcept { return fd_ >= 0; }

  /// Handshake result; valid after connect().
  const Welcome& welcome() const noexcept { return welcome_; }
  /// Protocol version this connection speaks (min of ours and theirs).
  std::uint32_t version() const noexcept { return version_; }

  // --- send path ---

  /// Frames and writes a QUERY_V/QUERY_L batch; returns its req_id.
  std::uint64_t send_query(std::span<const WireQuery> queries, bool labeled);
  void send_label_req(std::span<const VertexId> vertices);
  void send_ping(std::span<const std::uint8_t> token);

  // --- receive path ---

  /// Blocks until one complete frame arrives; decodes it into \p out.
  /// Returns false on orderly EOF. Throws on transport errors and on
  /// frames that fail to decode.
  bool read_reply(Reply& out);

  /// Like read_reply with a poll() timeout; returns false when no
  /// complete frame arrived within \p timeout_ms (distinguish EOF via
  /// eof()).
  bool try_read_reply(Reply& out, int timeout_ms);
  bool eof() const noexcept { return eof_; }

  // --- blocking conveniences (send + wait for the matching reply) ---

  /// Sends one batch and waits for its ANSWER. Throws std::runtime_error
  /// carrying the server message on ERROR.
  std::vector<WireAnswer> query(std::span<const WireQuery> queries,
                                bool labeled = false);
  /// Fetches wire labels for \p vertices (QUERY_L addressing material),
  /// kLabelsPerRequest per LABEL_REQ so each LABEL_RESP fits one frame.
  std::vector<OwnedLabel> fetch_labels(std::span<const VertexId> vertices);
  static constexpr std::size_t kLabelsPerRequest = 256;
  /// Round-trips a PING and returns true when the echo matched.
  bool ping();

 private:
  void write_all(const std::uint8_t* data, std::size_t size);
  bool pump(int timeout_ms);  ///< one recv into the decoder; false = none
  bool decode_into(const Frame& f, Reply& out);

  int fd_ = -1;
  std::uint32_t version_ = kProtocolVersion;
  Welcome welcome_;
  std::uint64_t next_req_id_ = 1;
  FrameDecoder dec_;
  std::vector<std::uint8_t> sendbuf_;
  bool eof_ = false;
};

}  // namespace croute::net
