#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/registry.hpp"
#include "perfbench.hpp"
#include "threading/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {

double triad_gbs(int threads, std::size_t n, int reps) {
  tlp::ThreadPool pool(threads);
  const long len = static_cast<long>(n);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  pool.parallel_for(0, len, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      pa[i] = 0.0;
      pb[i] = 1.0;
      pc[i] = 2.0;
    }
  });
  const double scalar = 3.0;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    pool.parallel_for(0, len, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) pa[i] = pb[i] + scalar * pc[i];
    });
    const double seconds = now_seconds() - t0;
    const double gbs = 24.0 * static_cast<double>(n) / seconds / 1e9;
    best = std::max(best, gbs);
  }
  return best;
}

double report_triad(const RunConfig& config, Result& result) {
  // Three arrays of 32 Mi doubles (768 MiB in all) outrun the LLC; see
  // README for how that compares with the reference host's cache.
  const std::size_t n = config.tiny ? (std::size_t(1) << 20)
                                    : (std::size_t(32) << 20);
  const double gbs = triad_gbs(config.threads, n, 5);
  result.set("machine.triad_gbs", gbs, "GB/s");
  return gbs;
}

ForkJoin forkjoin_latency(int threads, int samples) {
  tlp::ThreadPool pool(threads);
  auto empty = [](long, long) {};
  for (int i = 0; i < 200; ++i) pool.parallel_for(0, threads, empty);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const double t0 = now_seconds();
    pool.parallel_for(0, threads, empty);
    us.push_back((now_seconds() - t0) * 1e6);
  }
  return ForkJoin{quantile(us, 0.5), quantile(us, 0.99)};
}

void report_forkjoin(const RunConfig& config, Result& result) {
  const ForkJoin fj =
      forkjoin_latency(config.threads, config.tiny ? 200 : 20000);
  result.set("threading.forkjoin_p50_us", fj.p50_us, "us");
  result.set("threading.forkjoin_p99_us", fj.p99_us, "us");
}

void SolveLayers::add_solve(const tea::RunResult& run) {
  solves += 1.0;
  bytes += static_cast<double>(run.counters.total_bytes());
  launches += static_cast<double>(run.counters.kernel_launches);
  wall_s += run.wall_seconds;
}

void SolveLayers::add_iterations(const std::string& key, long total) {
  iterations.push_back(static_cast<double>(total));
  auto [it, fresh] = iteration_range.try_emplace(key, total, total);
  if (!fresh) {
    it->second.first = std::min(it->second.first, total);
    it->second.second = std::max(it->second.second, total);
  }
}

void report_solve_layers(const SolveLayers& layers, double triad,
                         Result& result) {
  const double traced = static_cast<double>(std::max(1L, layers.traced));
  for (int c = 0; c < kNumKernelClasses; ++c) {
    // update_halo is never called through the decorator: every halo
    // refresh of these solves runs inside a forwarded exchange_* entry, so
    // the class has no time to report (see README.md).
    if (static_cast<KernelClass>(c) == KernelClass::kHalo) continue;
    const std::string cls = class_name(static_cast<KernelClass>(c));
    const double self = layers.kernels.self_s[c];
    result.set("kernel." + cls + ".self_s", self / traced, "s");
    result.set("kernel." + cls + ".gbs",
               self > 0.0 ? static_cast<double>(layers.kernels.bytes[c]) /
                                self / 1e9
                          : 0.0,
               "GB/s");
    result.set("kernel." + cls + ".calls",
               static_cast<double>(layers.kernels.calls[c]) / traced,
               "count");
  }
  const double solves = std::max(1.0, layers.solves);
  result.set("kernel.roofline_frac",
             layers.wall_s > 0.0 ? layers.bytes / layers.wall_s / 1e9 / triad
                                 : 0.0,
             "ratio");
  result.set("counters.bytes", layers.bytes / solves, "B");
  result.set("counters.launches", layers.launches / solves, "count");
  result.set("solver.iterations", mean(layers.iterations), "count");
  long spread = 0;
  for (const auto& [key, range] : layers.iteration_range) {
    spread = std::max(spread, range.second - range.first);
  }
  result.set("solver.iterations_spread", static_cast<double>(spread),
             "count");
}

bool traced_solve(const std::string& variant, const tl::ProblemConfig& problem,
                  const Reference& ref, int threads, Result& result,
                  SpanRecorder* spans, SolveLayers& layers,
                  tea::RunResult& run) {
  static long next_solve_id = 0;
  ++result.attempted;
  const long solve_id = ++next_solve_id;
  const int span_id = spans != nullptr ? spans->reserve_id() : -1;
  const std::int64_t start = spans != nullptr ? spans->now_ns() : 0;
  bool ok = true;
  try {
    tea::RunOptions options;
    options.threads = threads;
    options.ranks = threads;
    if (tea::backend_is_distributed(variant)) {
      // SPMD ranks need run_simulation's world; timed as one span.
      run = tea::run_simulation(variant, problem, options);
      result.check(check_run(problem, ref, run));
    } else {
      // The same construction run_simulation performs for shared-memory
      // variants, with the backend wrapped in the timing decorator.
      std::unique_ptr<tlp::ThreadPool> pool;
      if (variant == "manual-omp" || variant == "ops-omp") {
        pool = std::make_unique<tlp::ThreadPool>(threads);
      }
      TimedBackend backend(tea::make_backend(variant, pool.get(), options),
                           spans, span_id, solve_id);
      backend.set_fused_operator_dot(options.fuse_operator_dot);
      run = tea::TeaDriver(problem).run(backend);
      result.check(check_run(problem, ref, run));
      result.check(check_fields(problem, ref, read_fields(backend), run,
                                backend.initial_energy()));
      layers.kernels += backend.tally();
      ++layers.traced;
    }
    layers.add_solve(run);
  } catch (const std::exception& e) {
    ++result.failed;
    ok = false;
    std::fprintf(stderr, "perfbench: traced %s failed: %s\n", variant.c_str(),
                 e.what());
  }
  if (spans != nullptr) {
    spans->record(span_id, "solve", "core", start, spans->now_ns(), -1,
                  solve_id);
  }
  return ok;
}

}  // namespace perfbench
