// perfbench — run one benchmark workload and print its result as the last
// line of standard output (see README.md for the workloads and metrics).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --deck-dir DIR [--trace-out FILE]
//
// Every workload runs on half as many threads, ranks and client connections
// as the host has hardware threads (at least one): on a shared virtual host
// a fork-join region as wide as the machine waits on whichever vCPU the
// hypervisor has taken away, and that, not the program, set the run-to-run
// spread (see README.md).
//
// --trace 0 times the workload and reports its end-to-end metrics;
// --trace 1 reports the per-layer metrics and writes the spans to
// --trace-out as Chrome Trace Event JSON.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "trace.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --deck-dir DIR [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  const unsigned hw = std::thread::hardware_concurrency();
  config.threads = std::max(1, static_cast<int>(hw) / 2);
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = value == "1";
      } else if (arg == "--deck-dir") {
        config.deck_dir = value;
      } else if (arg == "--trace-out") {
        config.trace_path = value;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed option value");
  }
  if (config.deck_dir.empty()) return usage("--deck-dir is required");
  if (!(config.seconds >= 0.0)) return usage("--seconds is required");

  // kokkos-omp and raja-omp run on tlp::global_pool(), which sizes itself
  // from TL_NUM_THREADS on first use; pin it to the workload's width.
  setenv("TL_NUM_THREADS", std::to_string(config.threads).c_str(), 1);

  perfbench::Result result;
  perfbench::SpanRecorder spans;
  try {
    perfbench::run_workload(config, result, config.trace ? &spans : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  if (config.trace && !config.trace_path.empty()) {
    if (!spans.write_chrome_json(config.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   config.trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: %zu spans (%ld dropped) -> %s\n",
                 spans.size(), spans.dropped(), config.trace_path.c_str());
  }
  std::printf("%s\n", perfbench::result_json(result).c_str());
  return 0;
}
