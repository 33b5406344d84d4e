// Loopback HTTP client and the mecoff_cli serve-solve child process.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct HttpReply {
  int status = 0;  ///< 0 on a transport error
  std::string body;
  std::string error;
};

/// One request on a fresh loopback connection (the server answers
/// `Connection: close`). Reads the whole response, then closes with
/// SO_LINGER 0 so no TIME_WAIT entry outlives the exchange and
/// back-to-back runs cannot exhaust the host's local ports.
[[nodiscard]] HttpReply http_exchange(std::uint16_t port,
                                      const std::string& request,
                                      int timeout_ms);

[[nodiscard]] std::string get_request(const std::string& path);
[[nodiscard]] std::string post_request(const std::string& path,
                                       const std::string& body);

/// A `mecoff_cli serve-solve` child. The destructor SIGKILLs and reaps a
/// server that is still running, so no exit path leaves one behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess();

  /// Spawn `argv`, wait up to `timeout_s` for the serving banner and
  /// read the ephemeral port from it.
  [[nodiscard]] bool start(const std::vector<std::string>& argv,
                           const std::string& stderr_path, double timeout_s,
                           std::string& error);
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM of /proc/<pid>/status) in MB; negative
  /// when it cannot be read.
  [[nodiscard]] double peak_rss_mb() const;

  /// SIGTERM drain. Waits up to `timeout_s` for the server to exit, then
  /// SIGKILLs it and sets `wedged`. True when it exited with status 0.
  [[nodiscard]] bool stop(double timeout_s, bool& wedged);

  /// Everything the server wrote to standard output.
  [[nodiscard]] const std::string& output() const { return output_; }

 private:
  /// Read what the pipe holds, waiting up to `timeout_ms` for data.
  void read_output(int timeout_ms);
  void kill_and_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string output_;
};

}  // namespace perfbench
