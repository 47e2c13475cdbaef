#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace optselect {
namespace net {

NetServer::NetServer(serving::Frontend* frontend, NetServerConfig config)
    : frontend_(frontend), config_(std::move(config)) {
  if (config_.registry != nullptr) {
    obs::MetricsRegistry* reg = config_.registry;
    // Effect before cause: responses/shed before requests, requests
    // before accepts — per snapshot, effects never exceed causes.
    reg->AddCounterFn("net_responses_total", {},
                      [this] { return n_responses_.load(); });
    reg->AddCounterFn("net_shed_total", {}, [this] { return n_shed_.load(); });
    reg->AddCounterFn("net_protocol_errors_total", {},
                      [this] { return n_protocol_errors_.load(); });
    reg->AddCounterFn("net_requests_total", {},
                      [this] { return n_requests_.load(); });
    reg->AddCounterFn("net_connections_closed_total", {},
                      [this] { return n_closed_.load(); });
    reg->AddCounterFn("net_connections_rejected_total", {},
                      [this] { return n_rejected_.load(); });
    reg->AddCounterFn("net_connections_accepted_total", {},
                      [this] { return n_accepted_.load(); });
    reg->AddGaugeFn("net_connections_open", {}, [this] {
      return static_cast<double>(n_accepted_.load() - n_closed_.load());
    });
  }
}

NetServer::~NetServer() { Stop(); }

bool NetServer::Start() {
  if (started_) return true;
  if (!reactor_.ok()) {
    last_error_ = "reactor setup failed (epoll/eventfd)";
    return false;
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    last_error_ = "socket(): " + std::string(strerror(errno));
    return false;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    last_error_ = "bad listen host: " + config_.host;
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    last_error_ = "bind(): " + std::string(strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (listen(listen_fd_, SOMAXCONN) != 0) {
    last_error_ = "listen(): " + std::string(strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);

  SetNonBlocking(listen_fd_);
  reactor_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); });
  reactor_thread_ = std::thread([this] { reactor_.Run(); });
  started_ = true;
  return true;
}

void NetServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  reactor_.Post([this] {
    if (listen_fd_ >= 0) {
      reactor_.Remove(listen_fd_);
      close(listen_fd_);
      listen_fd_ = -1;
    }
    // Collect ids first: CloseConn mutates conns_.
    std::vector<uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& entry : conns_) ids.push_back(entry.first);
    for (uint64_t id : ids) CloseConn(id);
  });
  reactor_.Stop();
  if (reactor_thread_.joinable()) reactor_thread_.join();
  // Frontend completion callbacks reference `this`; wait them out so
  // destruction is safe even if the frontend is still draining.
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_total_ == 0; });
}

NetServerStats NetServer::stats() const {
  NetServerStats s;
  s.connections_accepted = n_accepted_.load();
  s.connections_rejected = n_rejected_.load();
  s.connections_closed = n_closed_.load();
  s.requests = n_requests_.load();
  s.responses = n_responses_.load();
  s.shed = n_shed_.load();
  s.protocol_errors = n_protocol_errors_.load();
  return s;
}

void NetServer::OnAcceptable() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; epoll will re-arm
    }
    if (conns_.size() >= config_.max_connections) {
      // Admission control: explicit refusal, not a silent RST. The
      // socket is fresh so a short best-effort blocking-ish write of
      // the error frame almost always lands in the send buffer.
      n_rejected_.fetch_add(1);
      n_shed_.fetch_add(1);
      std::string frame = EncodeErrorFrame(0, ErrorCode::kShed,
                                           "connection limit reached");
      ssize_t ignored = send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      (void)ignored;
      close(fd);
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    uint64_t conn_id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conns_[conn_id] = std::move(conn);
    n_accepted_.fetch_add(1);
    reactor_.Add(fd, EPOLLIN, [this, conn_id](uint32_t events) {
      OnConnEvent(conn_id, events);
    });
  }
}

void NetServer::OnConnEvent(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();

  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConn(conn_id);
    return;
  }
  if (events & EPOLLOUT) {
    FlushWrites(conn_id, conn);
    if (conns_.find(conn_id) == conns_.end()) return;  // closed by flush
  }
  if (!(events & EPOLLIN)) return;

  char buf[16 * 1024];
  while (true) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (!conn->parser.Feed(buf, static_cast<size_t>(n))) {
        // Poisoned stream: best-effort error frame, then close. The
        // parser never hands out frames past the violation, so no
        // partial/corrupt request reaches the frontend.
        n_protocol_errors_.fetch_add(1);
        std::string frame = EncodeErrorFrame(0, ErrorCode::kBadRequest,
                                             conn->parser.error());
        ssize_t ignored =
            send(conn->fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        (void)ignored;
        CloseConn(conn_id);
        return;
      }
      while (conn->parser.HasFrame()) {
        HandleFrame(conn_id, conn, conn->parser.Next());
        if (conns_.find(conn_id) == conns_.end()) return;
      }
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConn(conn_id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn_id);
    return;
  }
}

void NetServer::HandleFrame(uint64_t conn_id, Connection* conn, Frame frame) {
  if (frame.type != FrameType::kRequest) {
    // Clients must not send response/error frames; answer and move on.
    QueueWrite(conn_id, conn,
               EncodeErrorFrame(frame.request_id, ErrorCode::kBadRequest,
                                "unexpected frame type"));
    return;
  }
  serving::Request request;
  DecodeRequestPayload(frame, &request);

  if (conn->inflight >= config_.max_inflight_per_conn) {
    n_shed_.fetch_add(1);
    QueueWrite(conn_id, conn,
               EncodeErrorFrame(frame.request_id, ErrorCode::kShed,
                                "per-connection in-flight limit"));
    return;
  }

  conn->inflight++;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_total_++;
  }
  n_requests_.fetch_add(1);
  uint64_t request_id = frame.request_id;
  bool accepted = frontend_->SubmitAsync(
      std::move(request), [this, conn_id, request_id](serving::Response r) {
        // Worker thread: hand the answer to the reactor by id.
        reactor_.Post([this, conn_id, request_id, r = std::move(r)] {
          OnCompletion(conn_id, request_id, r);
        });
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_total_--;
        inflight_cv_.notify_all();
      });
  if (!accepted) {
    // The frontend's bounded queue shed it: the callback never fires.
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_total_--;
      inflight_cv_.notify_all();
    }
    conn->inflight--;
    n_shed_.fetch_add(1);
    QueueWrite(conn_id, conn,
               EncodeErrorFrame(request_id, ErrorCode::kShed,
                                "serving queue full"));
  }
}

void NetServer::OnCompletion(uint64_t conn_id, uint64_t request_id,
                             const serving::Response& response) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection died mid-request
  Connection* conn = it->second.get();
  if (conn->inflight > 0) conn->inflight--;
  n_responses_.fetch_add(1);
  QueueWrite(conn_id, conn, EncodeResponseFrame(request_id, response));
}

void NetServer::QueueWrite(uint64_t conn_id, Connection* conn,
                           std::string bytes) {
  conn->outbuf += bytes;
  FlushWrites(conn_id, conn);
}

void NetServer::FlushWrites(uint64_t conn_id, Connection* conn) {
  // A write cursor instead of erase(0, n) per partial send: erasing the
  // sent prefix memmoves the whole remainder every time the socket
  // takes a partial write, which is O(n²) under backpressure with
  // pipelined clients. The cursor advances in O(1); the buffer is
  // compacted only when it drains (below) or when the dead prefix
  // dominates a parked buffer (the EAGAIN branch) — both amortized
  // O(1) per byte queued.
  while (conn->outoff < conn->outbuf.size()) {
    ssize_t n = send(conn->fd, conn->outbuf.data() + conn->outoff,
                     conn->outbuf.size() - conn->outoff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outoff += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (conn->outoff >= 4096 && conn->outoff >= conn->outbuf.size() / 2) {
        conn->outbuf.erase(0, conn->outoff);
        conn->outoff = 0;
      }
      if (!conn->writable_armed) {
        conn->writable_armed = true;
        reactor_.Modify(conn->fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn_id);
    return;
  }
  conn->outbuf.clear();
  conn->outoff = 0;
  if (conn->writable_armed) {
    conn->writable_armed = false;
    reactor_.Modify(conn->fd, EPOLLIN);
  }
}

void NetServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  int fd = it->second->fd;
  reactor_.Remove(fd);
  close(fd);
  conns_.erase(it);
  n_closed_.fetch_add(1);
}

}  // namespace net
}  // namespace optselect
