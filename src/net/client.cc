#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace optselect {
namespace net {

bool ParseEndpoint(const std::string& spec, Endpoint* out) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  std::string host = spec.substr(0, colon);
  std::string port_text = spec.substr(colon + 1);
  if (port_text.empty()) return false;
  unsigned long port = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') return false;
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) return false;
  }
  if (port == 0) return false;
  out->host = host.empty() ? "127.0.0.1" : host;
  out->port = static_cast<uint16_t>(port);
  return true;
}

bool ParseEndpointList(const std::string& spec, std::vector<Endpoint>* out) {
  out->clear();
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    size_t end = comma == std::string::npos ? spec.size() : comma;
    Endpoint endpoint;
    if (!ParseEndpoint(spec.substr(start, end - start), &endpoint)) {
      return false;
    }
    out->push_back(std::move(endpoint));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out->empty();
}

RemoteClient::~RemoteClient() { Close(); }

bool RemoteClient::Connect(const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  CloseLocked();
  host_ = host;
  port_ = port;
  return ConnectLocked();
}

bool RemoteClient::ConnectLocked() {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    last_error_ = "socket(): " + std::string(strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    last_error_ = "bad host: " + host_;
    close(fd);
    return false;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    last_error_ = "connect(): " + std::string(strerror(errno));
    close(fd);
    return false;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  parser_ = FrameParser();
  last_error_.clear();
  return true;
}

void RemoteClient::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  CloseLocked();
  host_.clear();
}

void RemoteClient::CloseLocked() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool RemoteClient::SendAll(const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    last_error_ = "send(): " + std::string(strerror(errno));
    return false;
  }
  return true;
}

bool RemoteClient::ReadFrame(Frame* frame) {
  char buf[16 * 1024];
  while (true) {
    if (parser_.HasFrame()) {
      *frame = parser_.Next();
      return true;
    }
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      if (!parser_.Feed(buf, static_cast<size_t>(n))) {
        last_error_ = "protocol error: " + parser_.error();
        return false;
      }
      continue;
    }
    if (n == 0) {
      last_error_ = "server closed connection";
      return false;
    }
    if (errno == EINTR) continue;
    last_error_ = "recv(): " + std::string(strerror(errno));
    return false;
  }
}

serving::Response RemoteClient::Submit(const serving::Request& request) {
  std::lock_guard<std::mutex> lock(mu_);
  serving::Response failed;  // ok == false
  if (fd_ < 0) {
    // The connection died (or never came up): redial the endpoint.
    if (host_.empty()) {
      last_error_ = "not connected";
      return failed;
    }
    if (!ConnectLocked()) return failed;
    ++reconnects_;
  }
  serving::Request wire_request = request;
  if (wire_request.id == 0) wire_request.id = next_id_++;
  std::string frame_bytes = EncodeRequestFrame(wire_request);
  if (!SendAll(frame_bytes.data(), frame_bytes.size())) {
    CloseLocked();
    return failed;
  }
  // One request in flight under the lock, so the next frame on the
  // stream answers it — but tolerate (skip) stray ids defensively.
  while (true) {
    Frame frame;
    if (!ReadFrame(&frame)) {
      CloseLocked();
      return failed;
    }
    if (frame.request_id != wire_request.id) continue;
    if (frame.type == FrameType::kError) {
      WireError err;
      if (DecodeErrorPayload(frame, &err)) {
        last_code_ = err.code;
        last_error_ = err.message;
      }
      return failed;  // shed / bad request: connection stays usable
    }
    serving::Response response;
    if (!DecodeResponsePayload(frame, &response)) {
      last_error_ = "malformed response payload";
      CloseLocked();
      return failed;
    }
    return response;
  }
}

std::vector<serving::Response> RemoteClient::SubmitPipelined(
    const std::vector<std::string>& queries, size_t window) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<serving::Response> responses(queries.size());
  if (window == 0) window = 1;
  if (fd_ < 0 || queries.empty()) return responses;

  // id → query index for the in-flight window.
  std::unordered_map<uint64_t, size_t> inflight;
  size_t next_to_send = 0;
  size_t answered = 0;
  bool dead = false;
  while (answered < queries.size() && !dead) {
    // Fill the window.
    while (next_to_send < queries.size() && inflight.size() < window) {
      serving::Request request(queries[next_to_send], next_id_++);
      std::string bytes = EncodeRequestFrame(request);
      if (!SendAll(bytes.data(), bytes.size())) {
        dead = true;
        break;
      }
      inflight[request.id] = next_to_send++;
    }
    if (dead || inflight.empty()) break;
    // Drain one answer.
    Frame frame;
    if (!ReadFrame(&frame)) {
      dead = true;
      break;
    }
    auto it = inflight.find(frame.request_id);
    if (it == inflight.end()) continue;  // stray id: ignore
    size_t index = it->second;
    inflight.erase(it);
    ++answered;
    if (frame.type == FrameType::kError) {
      WireError err;
      if (DecodeErrorPayload(frame, &err)) {
        last_code_ = err.code;
        last_error_ = err.message;
      }
      continue;  // responses[index] stays ok == false
    }
    if (!DecodeResponsePayload(frame, &responses[index])) {
      last_error_ = "malformed response payload";
      dead = true;
      break;
    }
  }
  if (dead) CloseLocked();  // unanswered tail stays ok == false
  return responses;
}

}  // namespace net
}  // namespace optselect
