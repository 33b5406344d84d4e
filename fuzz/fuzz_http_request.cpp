// Fuzz harness: HttpServer request-head parsing (obs/serve/http_parser).
//
// The diagnostics port reads raw sockets; parse_request_head is the
// first code that touches attacker-controlled bytes. Contracts:
//
//   1. Totality: never crashes or trips a sanitizer on any byte
//      string; every complete header block maps to exactly one
//      HeadStatus (the 400/405/413 table in http_parser.hpp).
//   2. Determinism: parsing the same buffer twice yields the same
//      status and the same parsed head — no hidden state.
//   3. kOk invariants the connection loop relies on without
//      rechecking: method is GET/HEAD/POST; declared content_length
//      never exceeds kMaxHttpBody (the read loop sizes a buffer from
//      it); non-POST requests carry content_length == 0; the path is
//      non-empty and query-stripped.
//   4. parse_content_length tri-state: kMalformed and kAbsent are
//      distinct — a malformed declared length must surface as
//      kBadContentLength (-> 400), never as "no body".
//   5. One framing length: a POST that parses kOk sizes its body from
//      the same value the parsed `content-length` header holds, clamped
//      the way the parser clamps, so two differing Content-Length lines
//      can never both pass (RFC 9112 §6.3).
#include <cstdint>
#include <string>

#include "obs/serve/http_parser.hpp"
#include "support/fuzz_input.hpp"

namespace serve = mecoff::obs::serve;

namespace {

/// `text` as a declared length, accumulated the way
/// parse_content_length accumulates it (stopping once past the cap);
/// false when it is not a non-empty run of decimal digits.
bool clamped_length(const std::string& text, std::size_t& out) {
  if (text.empty()) return false;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > serve::kMaxHttpBody) continue;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  out = value;
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string buffer(reinterpret_cast<const char*>(data), size);

  // The connection loop only calls parse_request_head once it has
  // located the "\r\n\r\n" terminator; mirror that contract here and
  // synthesize one when the input lacks it (so every fuzz input
  // reaches the parser instead of the accumulation path).
  std::size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    header_end = buffer.size();
    buffer += "\r\n\r\n";
  }

  serve::ParsedHead head1;
  const serve::HeadStatus status1 =
      serve::parse_request_head(buffer, header_end, head1);
  serve::ParsedHead head2;
  const serve::HeadStatus status2 =
      serve::parse_request_head(buffer, header_end, head2);

  FUZZ_ASSERT(status1 == status2, "parse_request_head is nondeterministic");
  if (status1 == serve::HeadStatus::kOk) {
    FUZZ_ASSERT(head1.request.method == head2.request.method &&
                    head1.request.path == head2.request.path &&
                    head1.request.query == head2.request.query &&
                    head1.request.headers == head2.request.headers &&
                    head1.content_length == head2.content_length,
                "parse_request_head produced two different heads");
    FUZZ_ASSERT(head1.request.method == "GET" ||
                    head1.request.method == "HEAD" ||
                    head1.request.method == "POST",
                "kOk with a method outside the GET/HEAD/POST whitelist");
    FUZZ_ASSERT(head1.content_length <= serve::kMaxHttpBody,
                "kOk with a declared length over kMaxHttpBody");
    FUZZ_ASSERT(head1.request.method == "POST" || head1.content_length == 0,
                "non-POST request with a nonzero declared body length");
    FUZZ_ASSERT(!head1.request.path.empty(), "kOk with an empty path");
    FUZZ_ASSERT(head1.request.path.find('?') == std::string::npos,
                "query string not stripped from path");
    FUZZ_ASSERT(head1.request.body.empty(),
                "head parsing must not populate the body");
    if (head1.request.method == "POST") {
      const auto header = head1.request.headers.find("content-length");
      std::size_t declared = 0;
      FUZZ_ASSERT(header == head1.request.headers.end()
                      ? head1.content_length == 0
                      : clamped_length(header->second, declared) &&
                            declared == head1.content_length,
                  "POST body framed by a length other than its "
                  "content-length header");
    }
  }

  // Exercise the Content-Length tri-state directly on the header
  // block, independent of the request line.
  const std::size_t line_end = buffer.find("\r\n");
  if (line_end != std::string::npos && line_end + 2 <= header_end) {
    std::size_t declared = 0;
    const serve::ContentLengthStatus cl = serve::parse_content_length(
        buffer, line_end + 2, header_end, declared);
    if (cl == serve::ContentLengthStatus::kOk)
      // The clamp stops accumulating once the value exceeds the cap,
      // so an oversized declaration stays strictly above kMaxHttpBody
      // (the caller's > test still fires) without ever overflowing:
      // the value is bounded by one final 10x+9 step past the cap.
      FUZZ_ASSERT(declared <= 10 * serve::kMaxHttpBody + 9,
                  "content-length clamp overflowed its bound");
  }
  return 0;
}
