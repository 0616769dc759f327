#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string result_json(const Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : result.metrics) {
    // JSON has no NaN/inf; a metric that could not be formed reads 0.
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(number, sizeof number, "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig1-500", "bm16-threads"};
  return names;
}

void run_workload(const RunConfig& config, Result& result,
                  SpanRecorder* spans) {
  if (config.workload == "fig1-500") return run_fig1(config, result, spans);
  if (config.workload == "bm16-threads") {
    return run_bm16(config, result, spans);
  }
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
