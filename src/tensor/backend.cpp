#include "tensor/backend.hpp"

#include <stdexcept>

#include "util/env.hpp"

namespace eco::tensor {

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kReference:
      return "reference";
    case Backend::kSimd:
      return "simd";
  }
  return "auto";
}

std::optional<Backend> parse_backend(const std::string& name) {
  if (name == "reference") return Backend::kReference;
  if (name == "simd") return Backend::kSimd;
  if (name == "auto") return Backend::kAuto;
  return std::nullopt;
}

Backend backend_from_env_value(const std::string& name) {
  const std::optional<Backend> parsed = parse_backend(name);
  if (!parsed.has_value()) {
    throw std::invalid_argument(
        "ECO_BACKEND=\"" + name +
        "\" is not a backend; valid values: auto, reference, simd");
  }
  return *parsed;
}

Backend default_backend() {
  static const Backend resolved = [] {
    if (const std::string* name = util::env_value("ECO_BACKEND")) {
      // Throws on a typo: a misspelled backend must fail loudly instead of
      // silently benchmarking the simd default.
      const Backend parsed = backend_from_env_value(*name);
      if (parsed != Backend::kAuto) return parsed;
    }
    return Backend::kSimd;
  }();
  return resolved;
}

Backend resolve_backend(Backend backend) {
  return backend == Backend::kAuto ? default_backend() : backend;
}

bool simd_kernels_compiled() noexcept {
#if defined(__AVX2__) || defined(__SSE2__) || defined(__ARM_NEON)
  return true;
#else
  return false;
#endif
}

bool cpu_has_avx2() noexcept {
#if defined(__AVX2__)
  return true;  // the whole build targets AVX2 already
#elif defined(__x86_64__) && defined(__GNUC__)
  static const bool probed = __builtin_cpu_supports("avx2") != 0;
  return probed;
#else
  return false;
#endif
}

}  // namespace eco::tensor
