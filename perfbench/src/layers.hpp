// layers.hpp — the per-layer figures every workload reports.
//
// Probes of single layers, timed from outside through their public
// functions: the machine's STREAM triad bandwidth (the roofline the kernel
// GB/s are read against), the fork-join cost of an empty
// tlp::ThreadPool::parallel_for, and the service and wire layers serving the
// workload's own problem.  SolveLayers gathers the core figures of a run's
// solves (kernel tallies, counters, walls, iteration totals) so every
// workload reports them under the same names.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "perfbench.hpp"
#include "timed_backend.hpp"

namespace perfbench {

class SpanRecorder;

/// Best-of-`reps` STREAM triad a = b + s*c over three arrays of `n` doubles
/// on a `threads`-wide pool, first-touched by the same pool; GB/s counting
/// 24 bytes per element.
double triad_gbs(int threads, std::size_t n, int reps);

/// machine.triad_gbs at the run's width.
double report_triad(const RunConfig& config, Result& result);

struct ForkJoin {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Dispatch-and-join latency of an empty parallel_for (one element per
/// thread) on a `threads`-wide pool, over `samples` regions.
ForkJoin forkjoin_latency(int threads, int samples);

/// threading.forkjoin_p50_us / _p99_us at the run's width.
void report_forkjoin(const RunConfig& config, Result& result);

/// The core-layer figures of a run's solves.
struct SolveLayers {
  KernelTally kernels;  // solves traced through TimedBackend, summed
  long traced = 0;
  // Counters and time-marching walls of every solve added with add_solve.
  double solves = 0.0;
  double bytes = 0.0;
  double launches = 0.0;
  double wall_s = 0.0;
  // Iteration totals, and their min / max per key (a problem on a variant).
  std::vector<double> iterations;
  std::map<std::string, std::pair<long, long>> iteration_range;

  void add_solve(const tea::RunResult& run);
  void add_iterations(const std::string& key, long iterations);
};

/// kernel.*, counters.*, solver.* per solve, and kernel.roofline_frac
/// against `triad`.
void report_solve_layers(const SolveLayers& layers, double triad,
                         Result& result);

/// One traced solve of `problem` on `variant` at `threads` through
/// TimedBackend (manual-mpi through run_simulation, as one span), with its
/// output checked: driver summaries, and fields read back.  Its kernel
/// tally and counters go to `layers`.  Returns false, counting a failed
/// operation, when the solve throws.
bool traced_solve(const std::string& variant, const tl::ProblemConfig& problem,
                  const Reference& ref, int threads, Result& result,
                  SpanRecorder* spans, SolveLayers& layers,
                  tea::RunResult& run);

/// Serve `problem` `per_client` times from each of `config.threads` client
/// connections through service::SolveService behind net::Server, check
/// every response, and report the service.* and net.* metrics of that
/// round: the serving layers on the workload's own problem.
void report_served_problem(const RunConfig& config,
                           const tl::ProblemConfig& problem, int per_client,
                           Result& result, SpanRecorder& spans);

}  // namespace perfbench
