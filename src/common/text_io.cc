#include "common/text_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/string_util.h"

namespace pcqe {

namespace {

/// Skips what `strtod` and `strtoll` skip (C-locale whitespace) and one
/// sign, noting a `-` in `negative`. nullopt for a second sign, which
/// `from_chars` would otherwise read (`+-1` as -1).
std::optional<std::string_view> Magnitude(std::string_view text, bool* negative) {
  while (!text.empty() && (text[0] == ' ' || (text[0] >= '\t' && text[0] <= '\r'))) {
    text.remove_prefix(1);
  }
  *negative = StartsWith(text, "-");
  if (*negative || StartsWith(text, "+")) text.remove_prefix(1);
  if (StartsWith(text, "-") || StartsWith(text, "+")) return std::nullopt;
  return text;
}

/// `std::from_chars` that must read all of `text`.
template <typename T, typename... Format>
std::optional<T> FromCharsWhole(std::string_view text, Format... format) {
  T value{};
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, value, format...);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<int64_t> ParseInt64(std::string_view text) {
  bool negative = false;
  std::optional<std::string_view> digits = Magnitude(text, &negative);
  std::optional<uint64_t> v = digits ? FromCharsWhole<uint64_t>(*digits) : std::nullopt;
  // INT64_MIN's magnitude is one more than INT64_MAX's.
  if (!v || *v > uint64_t{INT64_MAX} + (negative ? 1 : 0)) return std::nullopt;
  return static_cast<int64_t>(negative ? 0 - *v : *v);
}

std::optional<uint64_t> ParseUint64(std::string_view text) {
  bool negative = false;
  std::optional<std::string_view> digits = Magnitude(text, &negative);
  if (!digits || negative) return std::nullopt;
  return FromCharsWhole<uint64_t>(*digits);
}

std::optional<double> ParseDouble(std::string_view text) {
  bool negative = false;
  std::optional<std::string_view> m = Magnitude(text, &negative);
  if (!m) return std::nullopt;
  // `from_chars` reads hexadecimal without its `0x`, and would read a sign
  // after it that `strtod` does not.
  const bool hex = m->size() > 2 && (*m)[0] == '0' && ((*m)[1] == 'x' || (*m)[1] == 'X') &&
                   (*m)[2] != '-';
  std::optional<double> v = hex ? FromCharsWhole<double>(m->substr(2), std::chars_format::hex)
                                : FromCharsWhole<double>(*m);
  if (!v) return std::nullopt;
  return negative ? -*v : *v;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

Status WriteFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument(StrFormat("cannot write '%s'", path.c_str()));
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  return out.good() ? Status::OK()
                    : Status::Internal(StrFormat("write to '%s' failed", path.c_str()));
}

}  // namespace pcqe
