// Pure request-parsing half of the embedded HTTP server: request line,
// header block, and Content-Length handling over an in-memory buffer.
// No sockets, no threads, no obs dependency, so the fuzz harness in
// fuzz/fuzz_http_request.cpp can drive the exact code the server runs,
// byte for byte.
//
// The split point: HttpServer owns I/O (recv loops, deadlines, 408/431
// on incomplete input) and calls parse_request_head() once the header
// terminator has arrived. Everything that interprets bytes lives here.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "obs/serve/http_server.hpp"  // HttpRequest (defined unconditionally)

namespace mecoff::obs::serve {

/// Request-path + query cap (the request line is operator/ingest
/// traffic, never bulk data).
inline constexpr std::size_t kMaxRequestLine = 8 * 1024;
/// Header-block cap; the server answers 431 above it.
inline constexpr std::size_t kMaxHeaderBlock = 64 * 1024;
/// POST body cap; declared lengths above it get 413.
inline constexpr std::size_t kMaxHttpBody = 1024 * 1024;

/// Outcome of Content-Length extraction. `kMalformed` (non-digit bytes,
/// empty value, or two Content-Length lines whose values differ) is
/// distinct from `kAbsent` on purpose: a malformed declared length must
/// be answered 400, not silently treated as a body-less request (the
/// request body would be misread as a pipelined follow-up otherwise).
enum class ContentLengthStatus { kAbsent, kOk, kMalformed };

/// Case-insensitive Content-Length lookup in the raw header block
/// `[start, end)`. Every Content-Length line must carry the same value
/// (RFC 9112 §6.3); a repeat of that value is accepted. On kOk, `out`
/// holds the value clamped just past kMaxHttpBody (the caller rejects
/// anything over the cap, so exact magnitude beyond it is irrelevant
/// and cannot overflow).
ContentLengthStatus parse_content_length(const std::string& buffer,
                                         std::size_t start, std::size_t end,
                                         std::size_t& out);

/// Parse the raw header block `[start, end)` into name -> value with
/// lowercased names (header names are case-insensitive; values keep
/// their case). Malformed lines (no colon) are skipped, repeated names
/// keep the last occurrence — tolerant parsing for a diagnostics port.
void parse_headers(const std::string& buffer, std::size_t start,
                   std::size_t end, std::map<std::string, std::string>& out);

/// Verdict on a complete header block. Maps to HTTP statuses in
/// HttpServer::serve_connection; listed here so the fuzz driver can
/// assert the mapping is total.
enum class HeadStatus {
  kOk,
  kBadRequestLine,    ///< 400 — missing/oversized/short line, empty target
  kMethodNotAllowed,  ///< 405 — anything but GET/HEAD/POST
  kBadContentLength,  ///< 400 — POST with a malformed or conflicting
                      ///< Content-Length
  kBodyTooLarge,      ///< 413 — declared length over kMaxHttpBody
};

/// Request head parsed out of `buffer[0, header_end)`.
struct ParsedHead {
  HttpRequest request;  ///< method/path/query/headers filled; body empty
  /// Declared body length for POST (0 when absent or for GET/HEAD).
  std::size_t content_length = 0;
};

/// Parse a complete request head. `header_end` is the offset of the
/// "\r\n\r\n" terminator in `buffer` (the caller has already located
/// it). Returns kOk with `out` fully populated, or the first violated
/// contract; on non-kOk `out` is partially filled and must not be used.
HeadStatus parse_request_head(const std::string& buffer,
                              std::size_t header_end, ParsedHead& out);

}  // namespace mecoff::obs::serve
