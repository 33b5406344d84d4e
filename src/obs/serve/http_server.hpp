// Minimal embedded HTTP/1.0-style exposition + ingest server.
//
// One dedicated thread runs a blocking accept loop on a loopback
// listener and hands each accepted connection to a small fixed pool of
// connection workers; each connection carries one request and is closed
// ("Connection: close" — scrape/ingest traffic, not an RPC plane). No
// external dependencies: plain POSIX sockets. Routes are exact-path
// handlers registered BEFORE start(); handlers run on the connection
// workers, so anything they touch must be internally synchronized (the
// metrics registry, trace collector, flight recorder, and SolveService
// all are).
//
// Robustness against slow/stalled/hostile peers:
//   * accepted sockets get SO_RCVTIMEO/SO_SNDTIMEO (set_io_timeout_ms,
//     default 5s), so a silent peer costs one worker one timeout — it
//     can never wedge the server, and /healthz keeps answering on the
//     other workers while it waits;
//   * a per-connection wall-clock deadline bounds dribbling peers that
//     feed one byte per poll: the whole request must arrive within the
//     I/O timeout or the connection gets 408 and is closed;
//   * stop() shuts down the listener AND every active/queued connection
//     fd, so a thread mid-recv observes EOF immediately and the join is
//     prompt — never blocked behind a peer;
//   * the pending-connection queue is bounded; overflow is answered
//     with an immediate 503 (admission control at the socket layer).
//
// Request bodies: POST with Content-Length (capped at 1 MiB, 413 over)
// is supported for ingest routes; GET/HEAD stay body-less. Deliberate
// non-goals: TLS, keep-alive, chunked bodies, path parameters. An
// ingress proxy owns everything else.
//
// The request path (including the query string, which handlers may
// parse) is capped at 8 KiB and the header block at 64 KiB; oversized
// or malformed requests get 400/431 and the connection is closed — the
// server survives garbage, slow, and hostile peers without allocating
// unboundedly. Unknown paths get a PLAIN 404: the route table is
// deliberately not echoed to clients (it is served to operators via
// /varz instead).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/thread_annotations.hpp"

namespace mecoff::obs::serve {

struct HttpRequest {
  std::string method;  ///< "GET", "HEAD", or "POST"
  std::string path;    ///< "/metrics" (query string stripped)
  std::string query;   ///< "a=1&b=2" (no leading '?'), may be empty
  std::string body;    ///< POST payload (empty for GET/HEAD)
  /// Request headers, names lowercased (HTTP header names are
  /// case-insensitive); last occurrence of a repeated name wins.
  std::map<std::string, std::string> headers;
};

struct HttpResponse {
  HttpResponse() = default;
  // The defaulted trailer keeps `HttpResponse{503, type, body}` sites
  // free of -Wmissing-field-initializers noise.
  HttpResponse(int status_in, std::string content_type_in,
               std::string body_in,
               std::vector<std::pair<std::string, std::string>>
                   extra_headers_in = {})
      : status(status_in),
        content_type(std::move(content_type_in)),
        body(std::move(body_in)),
        extra_headers(std::move(extra_headers_in)) {}

  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra response headers appended verbatim after Content-Type
  /// (e.g. {"X-Mecoff-Request-Id", "17"}). Names must be valid HTTP
  /// header tokens; values must not contain CR/LF.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;
  ~HttpServer();  ///< stops and joins if still running

  /// Register an exact-path handler (GET/HEAD/POST share one table).
  /// Must be called before start().
  void handle(std::string path, Handler handler);

  /// Per-socket SO_RCVTIMEO/SO_SNDTIMEO and the per-connection
  /// wall-clock budget, in milliseconds. Must be called before start().
  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }

  /// Bind 127.0.0.1:`port` (0 = ephemeral), start the accept thread and
  /// the connection workers. Returns the bound port, or an Error (port
  /// in use, out of fds...).
  Result<std::uint16_t> start(std::uint16_t port);

  /// Close the listener, shut down every in-flight connection, and join
  /// all threads. Idempotent; prompt even with a peer mid-recv.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// Bound port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Requests answered (any status) since start.
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Registered route paths, sorted — served on /varz, never on 404.
  [[nodiscard]] std::vector<std::string> route_paths() const;

 private:
  void accept_loop();
  void worker_loop() EXCLUDES(conn_mutex_);
  void serve_connection(int fd);

  /// Connection workers per server. Scrape + ingest traffic is tiny;
  /// what matters is that one stalled peer occupies one worker, not the
  /// whole plane.
  static constexpr std::size_t kConnectionWorkers = 4;
  /// Accepted-but-unserved backlog bound; overflow is shed with 503.
  static constexpr std::size_t kMaxPending = 64;

  std::map<std::string, Handler> routes_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int io_timeout_ms_ = 5000;

  mecoff::Mutex conn_mutex_;
  mecoff::CondVar conn_cv_;
  /// Accepted fds waiting for a worker.
  std::deque<int> pending_ GUARDED_BY(conn_mutex_);
  /// Fds currently inside serve_connection, one per busy worker —
  /// stop() shuts these down so blocked recv/send calls return.
  std::vector<int> active_ GUARDED_BY(conn_mutex_);
  bool conn_stopping_ GUARDED_BY(conn_mutex_) = false;
};

}  // namespace mecoff::obs::serve
