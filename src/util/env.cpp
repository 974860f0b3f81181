#include "util/env.hpp"

#include <charconv>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace eco::util {

namespace {

/// One entry per queried name; the optional is empty when the variable was
/// unset at first query. Values live in the map for the process lifetime,
/// so env_value() can hand out stable pointers.
struct EnvCache {
  std::mutex mutex;
  std::unordered_map<std::string, std::optional<std::string>> values;
};

EnvCache& env_cache() {
  static EnvCache cache;
  return cache;
}

/// Strict unsigned decimal: every character a digit and the value in range.
/// A sign, whitespace or trailing characters make the value unparsable
/// (strtoull would wrap "-1" to SIZE_MAX and read "8x" as 8).
std::optional<std::size_t> parse_size(const std::string& text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

const std::string* env_value(const char* name) {
  EnvCache& cache = env_cache();
  const std::lock_guard<std::mutex> lock(cache.mutex);
  auto it = cache.values.find(name);
  if (it == cache.values.end()) {
    const char* raw = std::getenv(name);
    std::optional<std::string> value;
    if (raw != nullptr) value = std::string(raw);
    it = cache.values.emplace(name, std::move(value)).first;
  }
  return it->second.has_value() ? &*it->second : nullptr;
}

bool env_enabled(const char* name) {
  const std::string* value = env_value(name);
  return value != nullptr && (*value == "1" || *value == "true" ||
                              *value == "on");
}

bool env_disabled(const char* name) {
  const std::string* value = env_value(name);
  return value != nullptr && *value == "0";
}

std::size_t env_size_or(const char* name, std::size_t fallback) {
  const std::size_t parsed = env_size_allowing_zero(name, fallback);
  return parsed == 0 ? fallback : parsed;
}

std::size_t env_size_allowing_zero(const char* name, std::size_t fallback) {
  const std::string* value = env_value(name);
  if (value == nullptr) return fallback;
  return parse_size(*value).value_or(fallback);
}

double env_double_or(const char* name, double fallback) {
  const std::string* value = env_value(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || !(parsed > 0.0)) return fallback;
  return parsed;
}

std::string env_string_or(const char* name, const std::string& fallback) {
  const std::string* value = env_value(name);
  return value != nullptr ? *value : fallback;
}

}  // namespace eco::util
