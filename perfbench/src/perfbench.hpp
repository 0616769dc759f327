// perfbench.hpp — the benchmark's shared types: what one run is asked to do
// (RunConfig), what it reports (Result), and the statistics helpers every
// workload uses.  Workload entry points are declared at the bottom; each
// runs whole rounds of its operations until the run's time is used.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = -1.0;  // time measured; a run ends after a whole round
  bool trace = false;     // per-layer run: spans, counters, layer probes
  bool tiny = false;      // small meshes and rounds, for the self-tests
  int threads = 1;        // solve threads, ranks and client connections
  std::string deck_dir;    // examples/decks of the repository under test
  std::string trace_path;  // Chrome Trace Event JSON, written when tracing
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  // failed output checks, for stderr

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed output check; `why` empty means the check passed.
  void check(const std::string& why) {
    if (why.empty()) return;
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// VmHWM of this process in MB (the peak resident set so far).
double peak_rss_mb();

/// Seconds since an arbitrary fixed point on the steady clock.
double now_seconds();

/// The final output line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Result& result);

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// --- workloads (solve_workloads.cpp) --------------------------------------

void run_fig1(const RunConfig& config, Result& result, SpanRecorder* spans);
void run_bm16(const RunConfig& config, Result& result, SpanRecorder* spans);

/// Dispatch `config.workload`; throws std::invalid_argument when unknown.
void run_workload(const RunConfig& config, Result& result,
                  SpanRecorder* spans);

}  // namespace perfbench
