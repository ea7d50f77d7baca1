// Copyright (c) PCQE contributors.
// The one decoder of numbers written as text, and the one whole-file reader
// and writer, shared by every input boundary: SQL literals, CSV and snapshot
// cells, manifests, policy files, cost descriptions and shell arguments.

#ifndef PCQE_COMMON_TEXT_IO_H_
#define PCQE_COMMON_TEXT_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace pcqe {

/// \brief Whole-field number parsers. Each skips leading ASCII whitespace
/// and one `+` or `-`, reads the rest as `strtoll`, `strtoull` or `strtod`
/// would in the C locale, and returns nullopt when the field is empty, has
/// anything left over, or is out of range. `ParseUint64` rejects a `-`;
/// `ParseInt64` reads `-9223372036854775808` exactly. `ParseDouble` reads
/// decimal, `0x` hexadecimal, `inf`/`infinity` and `nan`/`nan(...)` in any
/// case, correctly rounded; a subnormal parses, but a finite field that
/// overflows to infinity or underflows to zero (`1e999`, `1e-400`) does not.
std::optional<int64_t> ParseInt64(std::string_view text);
std::optional<uint64_t> ParseUint64(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

/// Reads the whole file at `path`; `kNotFound` when it cannot be opened.
[[nodiscard]] Result<std::string> ReadFile(const std::string& path);

/// Replaces the file at `path` with `content`, without an fsync:
/// `kInvalidArgument` when it cannot be opened, `kInternal` when the write
/// fails.
[[nodiscard]] Status WriteFile(const std::string& path, std::string_view content);

}  // namespace pcqe

#endif  // PCQE_COMMON_TEXT_IO_H_
