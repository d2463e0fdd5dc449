#include "dctcpp/workload/apps.h"

#include "dctcpp/util/assert.h"

namespace dctcpp {

// ---------------------------------------------------------------------------
// WorkerServer

WorkerServer::WorkerServer(Host& host, TcpListener::CcFactory cc_factory,
                           const TcpSocket::Config& socket_config,
                           Config config)
    : config_(std::move(config)),
      listener_(host, config_.port, std::move(cc_factory), socket_config,
                [this](TcpSocket::Ptr s) { OnAccept(std::move(s)); }) {
  DCTCPP_ASSERT(config_.request_size > 0);
  DCTCPP_ASSERT(config_.response_size != nullptr);
}

void WorkerServer::OnAccept(TcpSocket::Ptr socket) {
  ArenaPtr<Conn> conn = MakeArena<Conn>(socket->sim().arena());
  conn->socket = std::move(socket);
  Conn* c = conn.get();
  c->socket->set_on_data([this, c](Bytes n) {
    c->request_bytes_pending += n;
    while (c->request_bytes_pending >= config_.request_size) {
      c->request_bytes_pending -= config_.request_size;
      const Bytes response = config_.response_size();
      DCTCPP_ASSERT(response > 0);
      total_responded_ += response;
      if (config_.on_response_hook) {
        config_.on_response_hook(*c->socket, response);
      }
      c->socket->Send(response);
    }
  });
  if (config_.on_accept_hook) config_.on_accept_hook(*c->socket);
  conns_.push_back(std::move(conn));
}

// ---------------------------------------------------------------------------
// AggregatorClient

AggregatorClient::AggregatorClient(Host& host,
                                   std::unique_ptr<CongestionOps> cc,
                                   const TcpSocket::Config& socket_config,
                                   NodeId server, PortNum server_port,
                                   Bytes request_size)
    : request_size_(request_size),
      server_(server),
      server_port_(server_port),
      socket_(MakeArena<TcpSocket>(host.sim().arena(), host, std::move(cc),
                                   socket_config)) {
  DCTCPP_ASSERT(request_size_ > 0);
  socket_->set_on_data([this](Bytes n) { OnData(n); });
}

void AggregatorClient::Connect(Completion on_connected) {
  on_connected_ = std::move(on_connected);
  socket_->set_on_connected([this] {
    if (on_connected_) on_connected_();
  });
  socket_->Connect(server_, server_port_);
}

void AggregatorClient::Request(Bytes response_bytes,
                               Completion on_response) {
  DCTCPP_ASSERT(response_bytes > 0);
  pending_.push_back(Pending{response_bytes, std::move(on_response)});
  socket_->Send(request_size_);
}

void AggregatorClient::OnData(Bytes n) {
  total_received_ += n;
  while (n > 0 && !pending_.empty()) {
    Pending& head = pending_.front();
    const Bytes used = std::min(n, head.remaining);
    head.remaining -= used;
    n -= used;
    if (head.remaining == 0) {
      auto cb = std::move(head.on_response);
      pending_.pop_front();
      if (cb) cb();
    }
  }
}

// ---------------------------------------------------------------------------
// SinkServer

SinkServer::SinkServer(Host& host, PortNum port,
                       TcpListener::CcFactory cc_factory,
                       const TcpSocket::Config& socket_config,
                       FlowCallback on_flow_complete)
    : on_flow_complete_(std::move(on_flow_complete)),
      listener_(host, port, std::move(cc_factory), socket_config,
                [this](TcpSocket::Ptr s) { OnAccept(std::move(s)); }) {}

void SinkServer::OnAccept(TcpSocket::Ptr socket) {
  ArenaPtr<Conn> conn = MakeArena<Conn>(socket->sim().arena());
  conn->socket = std::move(socket);
  Conn* c = conn.get();
  c->socket->set_on_data([this, c](Bytes n) {
    c->received += n;
    total_received_ += n;
  });
  c->socket->set_on_remote_close([this, c] {
    ++flows_completed_;
    c->socket->Close();  // finish the teardown from our side too
    if (on_flow_complete_) on_flow_complete_(c->received);
  });
  conns_.push_back(std::move(conn));
}

// ---------------------------------------------------------------------------
// BulkSender

BulkSender::BulkSender(Host& host, std::unique_ptr<CongestionOps> cc,
                       const TcpSocket::Config& socket_config, NodeId dst,
                       PortNum dst_port)
    : dst_(dst),
      dst_port_(dst_port),
      socket_(MakeArena<TcpSocket>(host.sim().arena(), host, std::move(cc),
                                   socket_config)) {}

void BulkSender::Start(Bytes size, bool close_when_done,
                       Completion on_complete) {
  DCTCPP_ASSERT(size > 0);
  size_ = size;
  close_when_done_ = close_when_done;
  on_complete_ = std::move(on_complete);
  started_at_ = socket_->sim().Now();
  socket_->set_on_acked([this](Bytes) { CheckComplete(); });
  socket_->set_on_connected([this] {
    socket_->Send(size_);
    if (close_when_done_) socket_->Close();
  });
  socket_->Connect(dst_, dst_port_);
}

void BulkSender::CheckComplete() {
  if (completed_ || socket_->StreamAcked() < size_) return;
  completed_ = true;
  if (on_complete_) on_complete_();
}

}  // namespace dctcpp
