#include "common/strings.hpp"

#include <cctype>
#include <charconv>

namespace mecoff {

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

bool parse_double(std::string_view text, double& out) {
  // std::from_chars for double is available in libstdc++ 11+.
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

bool parse_int(std::string_view text, long long& out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

std::string format_fixed(double value, int precision) {
  // Fixed notation of a huge double spells out every integral digit
  // (DBL_MAX is 309 of them), hence the large stack buffer.
  char buf[400];
  const std::to_chars_result res = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::fixed, precision);
  return res.ec == std::errc{} ? std::string(buf, res.ptr) : "inf";
}

std::string format_general(double value, int precision) {
  char buf[64];
  const std::to_chars_result res = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, precision);
  return res.ec == std::errc{} ? std::string(buf, res.ptr) : "inf";
}

}  // namespace mecoff
