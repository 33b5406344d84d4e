#include "obs/serve/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <system_error>

#include "obs/serve/http_parser.hpp"

namespace mecoff::obs::serve {

namespace {

/// The BSD socket ABI takes every address as `sockaddr*` regardless of
/// family; the cast from the concrete sockaddr_in is required and
/// well-defined for these calls. It lives in this one helper so the
/// project linter can pin the file's reinterpret_cast budget to a
/// single audited site (tools/lint_mecoff.py, rule reinterpret-cast).
sockaddr* as_sockaddr(sockaddr_in& addr) {
  return reinterpret_cast<sockaddr*>(&addr);
}

/// strerror(3) without its shared static buffer (clang-tidy
/// concurrency-mt-unsafe): the generic category renders errno values
/// thread-safely.
std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

/// write(2) until done; a peer that hangs up or stalls past SO_SNDTIMEO
/// mid-response is abandoned (SIGPIPE is suppressed per-call via
/// MSG_NOSIGNAL).
void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

void send_response(int fd, const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + ' ' +
                    status_text(response.status) +
                    "\r\nContent-Type: " + response.content_type;
  for (const auto& [name, value] : response.extra_headers)
    out += "\r\n" + name + ": " + value;
  out += "\r\nContent-Length: " + std::to_string(response.body.size()) +
         "\r\nConnection: close\r\n\r\n" + response.body;
  send_all(fd, out);
}

/// Both directions: recv returns EAGAIN after `ms` without data, send
/// after `ms` without buffer space — a stalled peer costs one timeout,
/// never a wedged worker.
void set_socket_timeouts(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, Handler handler) {
  routes_[std::move(path)] = std::move(handler);
}

std::vector<std::string> HttpServer::route_paths() const {
  std::vector<std::string> paths;
  paths.reserve(routes_.size());
  for (const auto& [path, handler] : routes_) paths.push_back(path);
  return paths;  // std::map iteration — already sorted
}

Result<std::uint16_t> HttpServer::start(std::uint16_t port) {
  if (running()) return Error("server already running");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Error("socket: " + errno_message(errno));

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
  addr.sin_port = htons(port);
  if (::bind(fd, as_sockaddr(addr), sizeof(addr)) < 0) {
    const std::string why = errno_message(errno);
    ::close(fd);
    return Error("bind 127.0.0.1:" + std::to_string(port) + ": " + why);
  }
  if (::listen(fd, 16) < 0) {
    const std::string why = errno_message(errno);
    ::close(fd);
    return Error("listen: " + why);
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, as_sockaddr(addr), &len) < 0) {
    const std::string why = errno_message(errno);
    ::close(fd);
    return Error("getsockname: " + why);
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  {
    const MutexLock lock(conn_mutex_);
    conn_stopping_ = false;
    pending_.clear();
    active_.clear();
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(kConnectionWorkers);
  for (std::size_t i = 0; i < kConnectionWorkers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  return port_;
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& t : workers_)
      if (t.joinable()) t.join();
    workers_.clear();
    return;
  }
  // shutdown() wakes the blocking accept() with an error so the loop
  // observes running_ == false and exits; close() alone is racy.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Shut down every connection a worker may be blocked on: a recv()
    // mid-request returns 0 immediately, so the joins below are prompt
    // even with a peer that never sends another byte.
    const MutexLock lock(conn_mutex_);
    conn_stopping_ = true;
    for (const int fd : active_) ::shutdown(fd, SHUT_RDWR);
    for (const int fd : pending_) ::shutdown(fd, SHUT_RDWR);
  }
  conn_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  {
    const MutexLock lock(conn_mutex_);
    for (const int fd : pending_) ::close(fd);
    pending_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      // Listener shut down (stop()) or fd exhaustion — in either case
      // re-check running_ and bail out cleanly rather than spinning.
      if (!running_.load(std::memory_order_acquire)) break;
      continue;
    }
    set_socket_timeouts(conn, io_timeout_ms_);
    bool shed = false;
    bool closing = false;
    {
      const MutexLock lock(conn_mutex_);
      if (conn_stopping_)
        closing = true;
      else if (pending_.size() >= kMaxPending)
        shed = true;
      else
        pending_.push_back(conn);
    }
    if (closing) {
      ::close(conn);
      continue;
    }
    if (shed) {
      // Socket-layer admission control: a full backlog is answered now
      // with 503 instead of queueing unboundedly behind slow peers.
      send_response(conn, HttpResponse{503, "text/plain; charset=utf-8",
                                       "server busy\n"});
      ::close(conn);
      continue;
    }
    conn_cv_.notify_one();
  }
}

void HttpServer::worker_loop() {
  while (true) {
    int fd = -1;
    {
      const MutexLock lock(conn_mutex_);
      // Explicit predicate loop (not a wait-with-lambda): the guarded
      // reads stay inside the analysed critical section, and spurious
      // wakeups are handled the same way.
      while (!conn_stopping_ && pending_.empty()) conn_cv_.wait(conn_mutex_);
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
      active_.push_back(fd);
    }
    serve_connection(fd);
    {
      const MutexLock lock(conn_mutex_);
      active_.erase(std::find(active_.begin(), active_.end(), fd));
    }
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  // Read until the end of the header block. One recv loop with hard
  // caps and a wall-clock budget: exposition/ingest requests are tiny,
  // anything larger or slower is hostile. SO_RCVTIMEO bounds each
  // recv; the deadline bounds a peer dribbling one byte per timeout.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(io_timeout_ms_);
  std::string buffer;
  std::size_t header_end;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() > kMaxHeaderBlock) {
      send_response(fd, HttpResponse{431, "text/plain; charset=utf-8",
                                     "header block too large\n"});
      return;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      send_response(fd, HttpResponse{408, "text/plain; charset=utf-8",
                                     "request timeout\n"});
      return;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO fired: the peer sent nothing for a full timeout.
      send_response(fd, HttpResponse{408, "text/plain; charset=utf-8",
                                     "request timeout\n"});
      return;
    }
    if (n <= 0) return;  // peer went away before finishing the request
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  // Interpretation of the complete head is delegated to the pure
  // parser (src/obs/serve/http_parser.cpp — the fuzzed surface); this
  // function only maps its verdict onto wire responses.
  ParsedHead head;
  const HeadStatus status = parse_request_head(buffer, header_end, head);
  if (status == HeadStatus::kBadRequestLine) {
    send_response(fd, HttpResponse{400, "text/plain; charset=utf-8",
                                   "malformed request line\n"});
    return;
  }

  requests_.fetch_add(1, std::memory_order_relaxed);

  if (status == HeadStatus::kMethodNotAllowed) {
    send_response(fd, HttpResponse{405, "text/plain; charset=utf-8",
                                   "only GET, HEAD and POST are served\n"});
    return;
  }
  if (status == HeadStatus::kBadContentLength) {
    send_response(fd, HttpResponse{400, "text/plain; charset=utf-8",
                                   "malformed Content-Length\n"});
    return;
  }
  if (status == HeadStatus::kBodyTooLarge) {
    send_response(fd, HttpResponse{413, "text/plain; charset=utf-8",
                                   "body too large\n"});
    return;
  }

  HttpRequest& request = head.request;
  if (request.method == "POST") {
    // The body is sized once from Content-Length (the parser capped it
    // at kMaxHttpBody) and received straight into place: the bytes that
    // came with the head first, then recv at the fill offset. Bytes
    // past Content-Length (pipelined excess) are never copied.
    const std::size_t content_length = head.content_length;
    const std::size_t body_start = header_end + 4;
    std::size_t filled = std::min(buffer.size() - body_start, content_length);
    request.body.resize(content_length);
    buffer.copy(request.body.data(), filled, body_start);
    while (filled < content_length) {
      if (std::chrono::steady_clock::now() > deadline) {
        send_response(fd, HttpResponse{408, "text/plain; charset=utf-8",
                                       "request timeout\n"});
        return;
      }
      const ssize_t n = ::recv(fd, request.body.data() + filled,
                               content_length - filled, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        send_response(fd, HttpResponse{408, "text/plain; charset=utf-8",
                                       "request timeout\n"});
        return;
      }
      if (n <= 0) return;  // body truncated by the peer
      filled += static_cast<std::size_t>(n);
    }
  }

  const auto it = routes_.find(request.path);
  if (it == routes_.end()) {
    // Plain 404 on purpose: the route table is operator information
    // (served on /varz), not something to enumerate to any client
    // probing an ingest port.
    send_response(fd, HttpResponse{404, "text/plain; charset=utf-8",
                                   "not found\n"});
    return;
  }
  HttpResponse response = it->second(request);
  if (request.method == "HEAD") response.body.clear();
  send_response(fd, response);
}

}  // namespace mecoff::obs::serve
