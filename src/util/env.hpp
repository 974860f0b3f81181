// Read-once ECO_* environment toggles.
//
// Every runtime toggle in this project (ECO_BACKEND, ECO_TRACE,
// ECO_CHANNEL_SHARE, ECO_STEAL, ECO_PREFETCH, ...) shares the same contract:
// the variable is read and parsed exactly once per process, so a toggle can
// never change mid-run and every consumer observes the same value. Before
// this header each consumer hand-rolled that pattern around std::getenv;
// these helpers centralize it behind a single cached lookup per name.
//
// All functions are safe to call concurrently and from static initializers.
#pragma once

#include <cstddef>
#include <string>

namespace eco::util {

/// The cached raw value of environment variable `name`, or nullptr when the
/// variable is unset. The first call per name snapshots the environment;
/// later calls (any thread) return the same pointer, which stays valid for
/// the life of the process.
[[nodiscard]] const std::string* env_value(const char* name);

/// True when `name` is set to an affirmative value: "1", "true" or "on"
/// (the ECO_TRACE convention).
[[nodiscard]] bool env_enabled(const char* name);

/// True when `name` is set and exactly "0" — the opt-out convention of
/// ECO_CHANNEL_SHARE=0 and ECO_STEAL=0 (unset means enabled).
[[nodiscard]] bool env_disabled(const char* name);

/// Unsigned integer value of `name`, or `fallback` when unset/zero/unparsable.
/// Only plain decimal digits parse: a sign, whitespace, trailing characters
/// or an out-of-range value ("-1", " 8", "8x") count as unparsable.
[[nodiscard]] std::size_t env_size_or(const char* name, std::size_t fallback);

/// Unsigned integer value of `name`, or `fallback` when unset or unparsable
/// (the same strict parse). Unlike env_size_or, an explicit "0" parses as
/// 0 — the ECO_PREFETCH=0 convention, where zero selects a distinct mode
/// rather than the default.
[[nodiscard]] std::size_t env_size_allowing_zero(const char* name,
                                                std::size_t fallback);

/// Double value of `name`, or `fallback` when unset or not positive.
[[nodiscard]] double env_double_or(const char* name, double fallback);

/// String value of `name`, or `fallback` when unset.
[[nodiscard]] std::string env_string_or(const char* name,
                                        const std::string& fallback);

}  // namespace eco::util
