#include "util/env.hpp"

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

}  // namespace eco::util
