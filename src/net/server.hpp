/// \file server.hpp
/// \brief Epoll front-end: sockets in, coalesced route() batches out.
///
/// One thread owns everything: the listener, every connection, and the
/// RouteService::route() driver role (route() is driver-thread-only by
/// contract; the service parallelizes internally across its worker
/// pool). The loop coalesces QUERY frames from however many connections
/// are readable into one pending batch and serves it at the end of each
/// epoll pass — or immediately once `coalesce` queries are pending — so
/// under load the service sees big destination-groupable batches instead
/// of per-connection dribbles. That coalescing is the entire point of
/// the wire format: labels arrive pre-encoded, the batch memo decodes
/// each distinct destination once, and N clients asking for the same hot
/// destination cost one decode.
///
/// Admission control is two-tier: `max_connections` caps accepted
/// sockets (excess accepts are closed on sight), and `max_pending` caps
/// queries buffered for the next batch — a QUERY frame that would
/// overflow it is answered with ERROR kErrOverloaded and dropped, so a
/// fast client cannot wedge the loop into unbounded memory. Per-frame
/// validation happens at decode time: a malformed payload or a hostile
/// label gets ERROR kErrMalformed for that frame alone (the connection
/// and everyone else's queries survive), which is why route() — whose
/// contract throws for the whole batch — never sees untrusted bytes.
///
/// Label checks skip what the server issued itself. The loop caches the
/// live generation's canonical wire labels (codec.encode(label(t)) as
/// bytes, what LABEL_REQ answers with), encoded lazily once per
/// destination per generation. The cache is keyed on the generation (it
/// holds that package, and a new one empties it) and on the destination
/// peeked from the label's id field; it holds at most n entries of the
/// generation's own label sizes, never more for what peers send. A
/// QUERY_L label whose label_bits and bytes equal the cached encoding is
/// valid by construction and is not decoded. Non-canonical bytes (other
/// pad bits, a flipped bit, a label of an older generation) still get
/// the full decode_wire_label check, read in place from the frame.
///
/// Observability rides the service's own registry: croute_net_* counters
/// and gauge, socket queue wait recorded into the service's
/// croute_queue_wait_us histogram (driver shard), and accept/decode/
/// serve spans into the service trace recorder.

#pragma once

#include <cstdint>
#include <string>

#include "service/route_service.hpp"

namespace croute::net {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  std::uint32_t max_connections = 256;
  /// Queries buffered for the next batch before QUERY frames are
  /// answered kErrOverloaded. The open-loop driver pushes exactly this
  /// queue; sizing it bounds worst-case queueing delay.
  std::uint32_t max_pending = 8192;
  /// Serve the pending batch as soon as it reaches this many queries
  /// (it is always served at the end of an epoll pass regardless).
  std::uint32_t coalesce = 1024;
  /// Close a connection whose unsent output exceeds this (slow reader).
  std::size_t max_output_buffer = 4u << 20;

  std::string validate() const;
};

/// The epoll server. Construct (binds + listens, throws on failure),
/// then run() on the thread that may drive the service; stop() from any
/// thread wakes and exits the loop. Destruction closes every socket.
class NetServer {
 public:
  NetServer(RouteService& service, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (useful with options.port = 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Serves until stop(). Must be called from the thread that owns the
  /// service's driver role; returns after a stop() request once the
  /// current batch (if any) has been answered.
  void run();

  /// Thread-safe: wakes the loop and makes run() return.
  void stop() noexcept;

  // --- loop-lifetime statistics (read after run() returns) ---
  std::uint64_t connections_accepted() const noexcept { return accepted_; }
  std::uint64_t frames_served() const noexcept { return frames_served_; }
  std::uint64_t queries_served() const noexcept { return queries_served_; }
  /// Canonical wire labels encoded for the generation the label cache
  /// holds (at most n; reset whenever a new generation is seen).
  std::uint64_t canonical_labels() const noexcept;

  // Implementation types; opaque to users, defined in server.cpp (the
  // free-function loop body there needs to name them, so they are
  // public forward declarations rather than private members).
  struct Conn;
  struct Impl;

 private:
  Impl* impl_;  ///< pimpl: keeps epoll/socket headers out of includers

  RouteService& service_;
  NetServerOptions options_;
  std::uint16_t port_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t frames_served_ = 0;
  std::uint64_t queries_served_ = 0;
};

}  // namespace croute::net
