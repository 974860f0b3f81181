// Read-once environment lookup.
//
// ECO_BACKEND is the project's one environment knob (tensor/backend.hpp);
// run manifests also snapshot it (obs/manifest.hpp). A variable is read
// exactly once per process, so it can never change mid-run and every
// consumer observes the same value.
//
// Safe to call concurrently and from static initializers.
#pragma once

#include <string>

namespace eco::util {

/// The cached raw value of environment variable `name`, or nullptr when the
/// variable is unset. The first call per name snapshots the environment;
/// later calls (any thread) return the same pointer, which stays valid for
/// the life of the process.
[[nodiscard]] const std::string* env_value(const char* name);

}  // namespace eco::util
