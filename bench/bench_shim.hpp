// Header-only stand-in for the subset of Google Benchmark the micro-bench
// suite uses, selected by CMake (ECO_BENCH_SHIM) when benchmark::benchmark
// is not installed. It mimics the registration macros, the `for (auto _ :
// state)` iteration protocol, ->Arg(n) parameterization, DoNotOptimize and
// ClobberMemory, and prints a ns/iteration table — so kernel-level
// regressions stay visible on bare runners. Timing methodology is simpler
// than the real library (fixed time budget, no statistical repetitions);
// absolute numbers are comparable only within one run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace benchmark {

class State {
 public:
  explicit State(std::int64_t arg = 0) : arg_(arg) {}

  [[nodiscard]] std::int64_t range(std::size_t /*index*/ = 0) const {
    return arg_;
  }
  [[nodiscard]] std::size_t iterations() const { return iterations_; }
  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  // Iteration protocol: `for (auto _ : state)` runs until the time budget
  // is spent, counting iterations. The dereferenced value has a
  // non-trivial destructor so `_` does not trip -Wunused-variable.
  struct Tick {
    ~Tick() {}
  };
  struct iterator {
    State* state;
    bool operator!=(const iterator& /*other*/) const {
      return state->keep_running();
    }
    void operator++() {}
    Tick operator*() const { return {}; }
  };
  iterator begin() {
    start_ = clock::now();
    iterations_ = 0;
    return {this};
  }
  iterator end() { return {this}; }

 private:
  using clock = std::chrono::steady_clock;
  bool keep_running() {
    ++iterations_;
    // Check the clock every 64 iterations to keep the loop overhead low.
    if ((iterations_ & 63u) != 0) return true;
    return elapsed_seconds() < 0.25;
  }

  std::int64_t arg_ = 0;
  std::size_t iterations_ = 0;
  clock::time_point start_{};
};

template <typename T>
inline void DoNotOptimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

inline void ClobberMemory() { asm volatile("" : : : "memory"); }

struct Case {
  std::string name;
  void (*fn)(State&) = nullptr;
  std::int64_t arg = 0;
  bool has_arg = false;
};

inline std::vector<Case>& registry() {
  static std::vector<Case> cases;
  return cases;
}

/// Registration handle returned by BENCHMARK(); ->Arg(n) replaces the
/// plain registration with one parameterized case per argument.
class Registrar {
 public:
  Registrar(const char* name, void (*fn)(State&)) : name_(name), fn_(fn) {
    index_ = registry().size();
    registry().push_back({name_, fn_, 0, false});
  }
  Registrar* Arg(std::int64_t value) {
    if (!registry()[index_].has_arg) {
      registry()[index_] = {name_ + "/" + std::to_string(value), fn_, value,
                            true};
    } else {
      registry().push_back({name_ + "/" + std::to_string(value), fn_, value,
                            true});
    }
    return this;
  }

 private:
  std::string name_;
  void (*fn_)(State&);
  std::size_t index_ = 0;
};

/// Registration entry point; returning the pointer from a function call
/// (rather than a bare new-expression) lets ->Arg(...) chain off the
/// BENCHMARK macro like the real library.
inline Registrar* register_benchmark(const char* name, void (*fn)(State&)) {
  return new Registrar(name, fn);
}

inline int run_all() {
  std::printf("%-40s %14s %12s\n", "Benchmark", "ns/iter", "iters");
  std::printf("%s\n", std::string(68, '-').c_str());
  for (const Case& c : registry()) {
    State state(c.arg);
    c.fn(state);
    const double ns = state.iterations() > 0
                          ? state.elapsed_seconds() * 1e9 /
                                static_cast<double>(state.iterations())
                          : 0.0;
    std::printf("%-40s %14.1f %12zu\n", c.name.c_str(), ns,
                state.iterations());
  }
  return 0;
}

}  // namespace benchmark

#define ECO_BENCH_CONCAT_INNER(a, b) a##b
#define ECO_BENCH_CONCAT(a, b) ECO_BENCH_CONCAT_INNER(a, b)
#define BENCHMARK(fn)                                    \
  static ::benchmark::Registrar* ECO_BENCH_CONCAT(       \
      eco_bench_registrar_, __LINE__) =                  \
      ::benchmark::register_benchmark(#fn, fn)
#define BENCHMARK_MAIN() \
  int main() { return ::benchmark::run_all(); }
