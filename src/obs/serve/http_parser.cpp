#include "obs/serve/http_parser.hpp"

#include <algorithm>
#include <cctype>
#include <string_view>

namespace mecoff::obs::serve {

ContentLengthStatus parse_content_length(const std::string& buffer,
                                         std::size_t start, std::size_t end,
                                         std::size_t& out) {
  // Every line is read: RFC 9112 §6.3 makes differing Content-Length
  // values invalid framing. Values compare by their digits without
  // leading zeros, which is exact at any magnitude.
  std::string_view first;
  bool seen = false;
  while (start < end) {
    std::size_t eol = buffer.find("\r\n", start);
    if (eol == std::string::npos || eol > end) eol = end;
    const std::size_t colon = buffer.find(':', start);
    if (colon != std::string::npos && colon < eol) {
      std::string name = buffer.substr(start, colon - start);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (name == "content-length") {
        std::size_t value_start = colon + 1;
        while (value_start < eol && buffer[value_start] == ' ') ++value_start;
        std::size_t value_end = eol;
        while (value_end > value_start && buffer[value_end - 1] == ' ')
          --value_end;
        std::size_t value = 0;
        bool any = false;
        for (std::size_t i = value_start; i < value_end; ++i) {
          const char c = buffer[i];
          if (c < '0' || c > '9') return ContentLengthStatus::kMalformed;
          any = true;
          if (value > kMaxHttpBody) continue;  // clamp; caller rejects > cap
          value = value * 10 + static_cast<std::size_t>(c - '0');
        }
        if (!any) return ContentLengthStatus::kMalformed;
        std::string_view digits(buffer.data() + value_start,
                                value_end - value_start);
        digits.remove_prefix(
            std::min(digits.find_first_not_of('0'), digits.size()));
        if (!seen) {
          first = digits;
          seen = true;
          out = value;
        } else if (digits != first) {
          return ContentLengthStatus::kMalformed;
        }
      }
    }
    start = eol + 2;
  }
  return seen ? ContentLengthStatus::kOk : ContentLengthStatus::kAbsent;
}

void parse_headers(const std::string& buffer, std::size_t start,
                   std::size_t end, std::map<std::string, std::string>& out) {
  while (start < end) {
    std::size_t eol = buffer.find("\r\n", start);
    if (eol == std::string::npos || eol > end) eol = end;
    const std::size_t colon = buffer.find(':', start);
    if (colon != std::string::npos && colon < eol) {
      std::string name = buffer.substr(start, colon - start);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      std::size_t value_start = colon + 1;
      while (value_start < eol && buffer[value_start] == ' ') ++value_start;
      std::size_t value_end = eol;
      while (value_end > value_start && buffer[value_end - 1] == ' ')
        --value_end;
      out[std::move(name)] =
          buffer.substr(value_start, value_end - value_start);
    }
    start = eol + 2;
  }
}

HeadStatus parse_request_head(const std::string& buffer,
                              std::size_t header_end, ParsedHead& out) {
  const std::size_t line_end = buffer.find("\r\n");
  if (line_end == std::string::npos || line_end > kMaxRequestLine)
    return HeadStatus::kBadRequestLine;
  const std::string line = buffer.substr(0, line_end);

  // "GET /path?query HTTP/1.1"
  const std::size_t method_end = line.find(' ');
  const std::size_t target_end =
      method_end == std::string::npos ? std::string::npos
                                      : line.find(' ', method_end + 1);
  if (method_end == std::string::npos || target_end == std::string::npos)
    return HeadStatus::kBadRequestLine;

  HttpRequest& request = out.request;
  request.method = line.substr(0, method_end);
  std::string target =
      line.substr(method_end + 1, target_end - method_end - 1);
  const std::size_t query_start = target.find('?');
  if (query_start != std::string::npos) {
    request.query = target.substr(query_start + 1);
    target.resize(query_start);
  }
  request.path = std::move(target);
  // An empty request target ("GET  HTTP/1.1", "GET ?q HTTP/1.1") is a
  // malformed line, not a routable request — found by the fuzz
  // harness's non-empty-path invariant (fuzz/fuzz_http_request.cpp).
  if (request.path.empty()) return HeadStatus::kBadRequestLine;
  parse_headers(buffer, line_end + 2, header_end, request.headers);

  if (request.method != "GET" && request.method != "HEAD" &&
      request.method != "POST")
    return HeadStatus::kMethodNotAllowed;

  out.content_length = 0;
  if (request.method == "POST") {
    const ContentLengthStatus cl = parse_content_length(
        buffer, line_end + 2, header_end, out.content_length);
    if (cl == ContentLengthStatus::kMalformed)
      return HeadStatus::kBadContentLength;
    if (out.content_length > kMaxHttpBody) return HeadStatus::kBodyTooLarge;
  }
  return HeadStatus::kOk;
}

}  // namespace mecoff::obs::serve
