#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace croute::net {

NetClient::~NetClient() { close(); }

void NetClient::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NetClient::connect(const std::string& host, std::uint16_t port,
                        std::uint32_t version) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("net client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::invalid_argument("net client: bad host: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    close();
    throw std::runtime_error(std::string("net client: connect failed: ") +
                             std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  eof_ = false;
  dec_ = FrameDecoder{};
  next_req_id_ = 1;

  sendbuf_.clear();
  std::vector<std::uint8_t> payload;
  encode_hello(payload, version);
  encode_header(static_cast<std::uint8_t>(FrameType::kHello), payload.size(),
                sendbuf_);
  sendbuf_.insert(sendbuf_.end(), payload.begin(), payload.end());
  write_all(sendbuf_.data(), sendbuf_.size());

  Reply reply;
  if (!read_reply(reply) ||
      reply.type != static_cast<std::uint8_t>(FrameType::kWelcome)) {
    close();
    throw std::runtime_error(
        reply.type == static_cast<std::uint8_t>(FrameType::kError)
            ? "net client: server refused HELLO: " + reply.error_message
            : "net client: no WELCOME");
  }
  version_ = welcome_.version;
}

void NetClient::write_all(const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("net client: send failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::uint64_t NetClient::send_query(std::span<const WireQuery> queries,
                                    bool labeled) {
  const std::uint64_t req_id = next_req_id_++;
  std::vector<std::uint8_t> payload;
  encode_query(payload, req_id, queries, labeled);
  sendbuf_.clear();
  encode_header(static_cast<std::uint8_t>(labeled ? FrameType::kQueryL
                                                  : FrameType::kQueryV),
                payload.size(), sendbuf_);
  sendbuf_.insert(sendbuf_.end(), payload.begin(), payload.end());
  write_all(sendbuf_.data(), sendbuf_.size());
  return req_id;
}

void NetClient::send_label_req(std::span<const VertexId> vertices) {
  std::vector<std::uint8_t> payload;
  encode_label_req(payload, vertices);
  sendbuf_.clear();
  encode_header(static_cast<std::uint8_t>(FrameType::kLabelReq),
                payload.size(), sendbuf_);
  sendbuf_.insert(sendbuf_.end(), payload.begin(), payload.end());
  write_all(sendbuf_.data(), sendbuf_.size());
}

void NetClient::send_ping(std::span<const std::uint8_t> token) {
  sendbuf_.clear();
  encode_header(static_cast<std::uint8_t>(FrameType::kPing), token.size(),
                sendbuf_);
  sendbuf_.insert(sendbuf_.end(), token.begin(), token.end());
  write_all(sendbuf_.data(), sendbuf_.size());
}

bool NetClient::pump(int timeout_ms) {
  if (timeout_ms >= 0) {
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr <= 0) return false;
  }
  std::uint8_t buf[64 * 1024];
  const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
  if (n == 0) {
    eof_ = true;
    return false;
  }
  if (n < 0) {
    if (errno == EINTR) return false;
    throw std::runtime_error(std::string("net client: recv failed: ") +
                             std::strerror(errno));
  }
  dec_.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
  return true;
}

bool NetClient::decode_into(const Frame& f, Reply& out) {
  out = Reply{};
  out.type = f.type;
  switch (static_cast<FrameType>(f.type)) {
    case FrameType::kWelcome:
      if (!decode_welcome(f.payload, welcome_)) return false;
      return true;
    case FrameType::kAnswer:
      return decode_answer(f.payload, version_, out.req_id, out.answers);
    case FrameType::kError:
      return decode_error(f.payload, out.error_code, out.req_id,
                          out.error_message);
    case FrameType::kLabelResp: {
      std::vector<WireLabel> raw;
      if (!decode_label_resp(f.payload, raw)) return false;
      out.labels.reserve(raw.size());
      for (const WireLabel& l : raw) {
        out.labels.push_back(
            {l.label_bits,
             std::vector<std::uint8_t>(l.bytes.begin(), l.bytes.end())});
      }
      return true;
    }
    case FrameType::kPong:
      out.payload.assign(f.payload.begin(), f.payload.end());
      return true;
    default:
      return false;  // server shouldn't send client-to-server types
  }
}

bool NetClient::read_reply(Reply& out) {
  Frame f;
  for (;;) {
    if (dec_.error() != DecodeError::kNone) {
      throw std::runtime_error(std::string("net client: framing error: ") +
                               decode_error_name(dec_.error()));
    }
    if (dec_.next(f)) {
      if (!decode_into(f, out)) {
        throw std::runtime_error("net client: reply payload did not parse");
      }
      return true;
    }
    if (eof_) return false;
    if (!pump(-1)) {
      if (eof_) return false;
    }
  }
}

bool NetClient::try_read_reply(Reply& out, int timeout_ms) {
  Frame f;
  if (dec_.error() != DecodeError::kNone) {
    throw std::runtime_error(std::string("net client: framing error: ") +
                             decode_error_name(dec_.error()));
  }
  if (dec_.next(f)) {
    if (!decode_into(f, out)) {
      throw std::runtime_error("net client: reply payload did not parse");
    }
    return true;
  }
  if (eof_) return false;
  if (!pump(timeout_ms)) return false;
  if (dec_.next(f)) {
    if (!decode_into(f, out)) {
      throw std::runtime_error("net client: reply payload did not parse");
    }
    return true;
  }
  return false;
}

std::vector<WireAnswer> NetClient::query(std::span<const WireQuery> queries,
                                         bool labeled) {
  const std::uint64_t req_id = send_query(queries, labeled);
  Reply reply;
  while (read_reply(reply)) {
    if (reply.type == static_cast<std::uint8_t>(FrameType::kAnswer) &&
        reply.req_id == req_id) {
      return std::move(reply.answers);
    }
    if (reply.type == static_cast<std::uint8_t>(FrameType::kError)) {
      throw std::runtime_error("net client: server error " +
                               std::to_string(reply.error_code) + ": " +
                               reply.error_message);
    }
  }
  throw std::runtime_error("net client: connection closed awaiting ANSWER");
}

std::vector<OwnedLabel> NetClient::fetch_labels(
    std::span<const VertexId> vertices) {
  std::vector<OwnedLabel> out;
  out.reserve(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); i += kLabelsPerRequest) {
    send_label_req(vertices.subspan(
        i, std::min(kLabelsPerRequest, vertices.size() - i)));
    Reply reply;
    for (;;) {
      if (!read_reply(reply)) {
        throw std::runtime_error(
            "net client: connection closed awaiting labels");
      }
      if (reply.type == static_cast<std::uint8_t>(FrameType::kLabelResp)) {
        for (OwnedLabel& l : reply.labels) out.push_back(std::move(l));
        break;
      }
      if (reply.type == static_cast<std::uint8_t>(FrameType::kError)) {
        throw std::runtime_error("net client: server error " +
                                 std::to_string(reply.error_code) + ": " +
                                 reply.error_message);
      }
    }
  }
  return out;
}

bool NetClient::ping() {
  const std::uint8_t token[4] = {0xC0, 0xFF, 0xEE, 0x01};
  send_ping(token);
  Reply reply;
  while (read_reply(reply)) {
    if (reply.type == static_cast<std::uint8_t>(FrameType::kPong)) {
      return reply.payload.size() == sizeof token &&
             std::memcmp(reply.payload.data(), token, sizeof token) == 0;
    }
  }
  return false;
}

}  // namespace croute::net
