// ecobench: the benchmark driver binary. perfbench/run.py builds and runs
// it; it can also be run by hand:
//
//   ecobench run --workload knowledge_stream --seed 1 --seconds 10
//                --trace 0 --workers 4 --gate perfbench/data/attention_gate.bin
//                [--trace-dir DIR]
//   ecobench train --out perfbench/data/attention_gate.bin
//                  --meta perfbench/data/attention_gate.json
//   ecobench selftest
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ecobench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --workers K --gate PATH [--trace-dir DIR]\n"
               "       ecobench train --out PATH --meta PATH\n"
               "       ecobench selftest\n");
  return 2;
}

bool parse_unsigned(const std::string& text, unsigned long long* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "selftest") return perfbench::selftest();

  perfbench::RunOptions options;
  std::string out_path;
  std::string meta_path;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && parse_unsigned(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && parse_unsigned(value, &number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--workers" && parse_unsigned(value, &number) &&
               number > 0) {
      options.workers = static_cast<std::size_t>(number);
    } else if (flag == "--gate") {
      options.gate_path = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--meta") {
      meta_path = value;
    } else {
      return usage();
    }
  }

  try {
    if (mode == "train") {
      if (out_path.empty() || meta_path.empty()) return usage();
      return perfbench::train_gate(out_path, meta_path);
    }
    if (mode == "run") {
      if (options.workload.empty() || options.gate_path.empty()) {
        return usage();
      }
      return perfbench::run_workload(options);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ecobench: %s\n", error.what());
    return 1;
  }
  return usage();
}
