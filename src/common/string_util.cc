#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace pcqe {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpperAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCaseAscii(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view TrimAscii(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double v, int max_decimals) {
  std::string out;
  AppendFormattedDouble(&out, v, max_decimals);
  return out;
}

// std::to_chars with an explicit format and precision prints exactly what
// printf prints for the matching conversion, without a locale or a
// temporary string.
void AppendFormattedDouble(std::string* out, double v, int max_decimals) {
  char buf[512];  // any double at up to ~190 decimals
  std::string fallback;
  std::string_view text;
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed,
                                 max_decimals);
  if (ec == std::errc()) {
    text = std::string_view(buf, static_cast<size_t>(end - buf));
  } else {
    fallback = StrFormat("%.*f", max_decimals, v);
    text = fallback;
  }
  if (text.find('.') != std::string_view::npos) {
    size_t last = text.find_last_not_of('0');
    if (text[last] == '.') --last;
    text = text.substr(0, last + 1);
  }
  out->append(text);
}

void AppendDouble(std::string* out, double v, int significant_digits) {
  char buf[64];  // "%.17g" needs at most 24
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                                 significant_digits);
  if (ec == std::errc()) {
    out->append(buf, end);
  } else {
    *out += StrFormat("%.*g", significant_digits, v);
  }
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];  // 19 digits and a sign always fit
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace pcqe
