// Application building blocks used by the experiments and examples:
// request/response endpoints (the partition/aggregate pattern), byte sinks,
// and bulk senders (background long flows).
//
// All per-connection state (accepted sockets, Conn records, client
// sockets) is allocated from the simulation's arena: setup touches the
// allocator a handful of times, same-flow state sits adjacent in memory,
// and teardown is O(slabs). Application completions (`Completion`) are
// InlineFunction delegates, so callers may capture as much as they like
// (large captures box transparently); an app keeps its completion as a
// member and gives the socket a 32-byte [this] handler that forwards to it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "dctcpp/tcp/socket.h"
#include "dctcpp/util/arena.h"
#include "dctcpp/util/inline_function.h"

namespace dctcpp {

/// A one-shot application completion (connected, response, transfer done).
using Completion = InlineFunction<void()>;

/// Worker-side server: on each established connection, every
/// `request_size` bytes received trigger a response of `response_size()`
/// bytes, mirroring the incast benchmark's workers that "respond
/// immediately with the requested data". Connections are persistent.
class WorkerServer {
 public:
  struct Config {
    PortNum port = 5000;
    Bytes request_size = 64;
    std::function<Bytes()> response_size;  ///< evaluated per request
    /// Called for each accepted connection (e.g. to attach a TcpProbe).
    std::function<void(TcpSocket&)> on_accept_hook;
    /// Called right before each response's bytes are queued (e.g. to set
    /// a per-response deadline on a deadline-aware sender).
    std::function<void(TcpSocket&, Bytes)> on_response_hook;
  };

  WorkerServer(Host& host, TcpListener::CcFactory cc_factory,
               const TcpSocket::Config& socket_config, Config config);

  std::size_t ConnectionCount() const { return conns_.size(); }
  Bytes total_responded() const { return total_responded_; }

  /// Visits every accepted connection's socket (diagnostics, tests).
  void ForEachConnection(const std::function<void(TcpSocket&)>& fn) {
    for (auto& c : conns_) fn(*c->socket);
  }

 private:
  struct Conn {
    TcpSocket::Ptr socket;
    Bytes request_bytes_pending = 0;
  };

  void OnAccept(TcpSocket::Ptr socket);

  Config config_;
  Bytes total_responded_ = 0;
  std::vector<ArenaPtr<Conn>> conns_;
  TcpListener listener_;
};

/// Aggregator-side client: one persistent connection to one worker.
/// Requests are queued; each sends `request_size` bytes and completes when
/// the expected response bytes have arrived in order.
class AggregatorClient {
 public:
  AggregatorClient(Host& host, std::unique_ptr<CongestionOps> cc,
                   const TcpSocket::Config& socket_config, NodeId server,
                   PortNum server_port, Bytes request_size);

  /// Opens the connection; `on_connected` fires when established.
  void Connect(Completion on_connected);

  /// Issues one request expecting `response_bytes` back. Requests on one
  /// connection are served FIFO.
  void Request(Bytes response_bytes, Completion on_response);

  TcpSocket& socket() { return *socket_; }
  bool Connected() const { return socket_->Established(); }
  Bytes total_received() const { return total_received_; }

 private:
  void OnData(Bytes n);

  struct Pending {
    Bytes remaining;
    Completion on_response;
  };

  Bytes request_size_;
  NodeId server_;
  PortNum server_port_;
  Bytes total_received_ = 0;
  Completion on_connected_;
  std::deque<Pending> pending_;
  TcpSocket::Ptr socket_;
};

/// Accepts connections and counts the bytes each delivers. When the peer
/// closes, reports the flow's byte total. Used as the receiving end of
/// background and benchmark flows.
class SinkServer {
 public:
  /// (bytes_received, socket) on peer close.
  using FlowCallback = std::function<void(Bytes)>;

  SinkServer(Host& host, PortNum port, TcpListener::CcFactory cc_factory,
             const TcpSocket::Config& socket_config,
             FlowCallback on_flow_complete = nullptr);

  Bytes total_received() const { return total_received_; }
  std::uint64_t flows_completed() const { return flows_completed_; }

 private:
  struct Conn {
    TcpSocket::Ptr socket;
    Bytes received = 0;
  };

  void OnAccept(TcpSocket::Ptr socket);

  Bytes total_received_ = 0;
  std::uint64_t flows_completed_ = 0;
  FlowCallback on_flow_complete_;
  std::vector<ArenaPtr<Conn>> conns_;
  TcpListener listener_;
};

/// One outbound flow: connects, sends `size` bytes, optionally closes.
/// Completion fires when every byte is acknowledged end-to-end.
class BulkSender {
 public:
  BulkSender(Host& host, std::unique_ptr<CongestionOps> cc,
             const TcpSocket::Config& socket_config, NodeId dst,
             PortNum dst_port);

  /// Starts the transfer. `on_complete` fires when all `size` bytes are
  /// acknowledged (and the FIN sent, when `close_when_done`).
  void Start(Bytes size, bool close_when_done, Completion on_complete);

  TcpSocket& socket() { return *socket_; }
  Bytes acked_bytes() const { return socket_->StreamAcked(); }
  Tick started_at() const { return started_at_; }

 private:
  void CheckComplete();

  NodeId dst_;
  PortNum dst_port_;
  Bytes size_ = 0;
  bool close_when_done_ = false;
  bool completed_ = false;
  Tick started_at_ = 0;
  Completion on_complete_;
  TcpSocket::Ptr socket_;
};

}  // namespace dctcpp
