// Small string helpers shared across modules.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace eco::util {

/// Splits on a single-character delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char delim);

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Joins parts with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view separator);

/// ASCII lower-casing.
[[nodiscard]] std::string to_lower(std::string_view text);

/// True if `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Strict unsigned decimal: every character a digit and the value in range,
/// else nullopt. A sign, whitespace, trailing characters or an empty string
/// are rejected (strtoul would wrap "-1" to SIZE_MAX and read "8x" as 8).
[[nodiscard]] std::optional<std::size_t> parse_size(std::string_view text);

}  // namespace eco::util
