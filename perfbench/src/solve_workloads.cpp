// solve_workloads.cpp — fig1-500 and bm16-threads: whole TeaLeaf solves
// through tea::run_simulation (timed runs) and through tea::make_backend +
// tea::TeaDriver::run under TimedBackend (traced runs).
//
// A run repeats whole rounds of the workload's solve mix until its time is
// used, so every run attempts the same operations in the same proportions.
#include <cstdio>
#include <map>
#include <stdexcept>

#include "checks.hpp"
#include "core/registry.hpp"
#include "layers.hpp"
#include "perfbench.hpp"
#include "threading/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

struct MixEntry {
  std::string variant;
  int per_round;
};

/// Everything timed for one variant over a run.
struct VariantStats {
  std::vector<double> solve_s;          // untraced time-marching walls
  std::vector<double> outer_s;          // untraced run_simulation walls
  std::vector<double> setup_s;          // outer wall - time-marching wall
  std::vector<double> traced_solve_s;   // traced time-marching walls
  std::map<long, machine::Counters> counters_by_iterations;  // untraced
};

tl::ProblemConfig load_deck(const RunConfig& config, const std::string& name) {
  return tl::Config::load(config.deck_dir + "/" + name).problem();
}

class SolveWorkload {
 public:
  SolveWorkload(const RunConfig& config, tl::ProblemConfig problem,
                std::vector<MixEntry> mix, Result& result, SpanRecorder* spans)
      : config_(config),
        problem_(std::move(problem)),
        mix_(std::move(mix)),
        result_(result),
        spans_(spans),
        reference_(make_reference(problem_)) {
    // kokkos-omp and raja-omp ignore RunOptions.threads and run on the
    // global pool, so its width is pinned through TL_NUM_THREADS (set in
    // main) and verified here before anything is timed.
    if (tlp::global_pool().size() != config_.threads) {
      throw std::runtime_error(
          "tlp::global_pool() has " +
          std::to_string(tlp::global_pool().size()) + " threads, want " +
          std::to_string(config_.threads));
    }
  }

  /// Whole rounds until `seconds` have passed (at least one round).
  void run_rounds(double seconds, bool traced) {
    const double start = now_seconds();
    do {
      for (const MixEntry& entry : mix_) {
        for (int k = 0; k < entry.per_round; ++k) {
          if (traced) {
            traced_one(entry.variant);
          } else {
            untraced_one(entry.variant);
          }
        }
      }
      // Freed field slabs stay resident in the malloc heap and add up over
      // later rounds (see README.md), so the peak is read once every
      // variant has run once, not after however many rounds fit.
      if (first_round_rss_mb_ == 0.0) first_round_rss_mb_ = peak_rss_mb();
    } while (now_seconds() - start < seconds);
  }

  /// The mean over one round's solves of `stat` taken per variant, so
  /// every run weighs its variants alike.
  template <typename Stat>
  double per_solve(Stat&& stat) const {
    double total = 0.0;
    double solves = 0.0;
    for (const MixEntry& entry : mix_) {
      total += entry.per_round * stat(stats_.at(entry.variant));
      solves += entry.per_round;
    }
    return total / solves;
  }

  const std::vector<MixEntry>& mix() const { return mix_; }
  const VariantStats& stats(const std::string& v) const {
    return stats_.at(v);
  }
  const tl::ProblemConfig& problem() const { return problem_; }
  double first_round_rss_mb() const { return first_round_rss_mb_; }
  SolveLayers& layers() { return layers_; }
  long counter_checks() const { return counter_checks_; }

 private:
  void untraced_one(const std::string& variant) {
    ++result_.attempted;
    tea::RunOptions options;
    options.threads = config_.threads;
    options.ranks = config_.threads;
    const double t0 = now_seconds();
    tea::RunResult run;
    try {
      run = tea::run_simulation(variant, problem_, options);
    } catch (const std::exception& e) {
      ++result_.failed;
      std::fprintf(stderr, "perfbench: %s failed: %s\n", variant.c_str(),
                   e.what());
      return;
    }
    const double outer = now_seconds() - t0;
    result_.check(check_run(problem_, reference_, run));
    VariantStats& s = stats_[variant];
    s.solve_s.push_back(run.wall_seconds);
    s.outer_s.push_back(outer);
    s.setup_s.push_back(outer - run.wall_seconds);
    s.counters_by_iterations[run.total_iterations] = run.counters;
    layers_.add_solve(run);
    layers_.add_iterations(variant, run.total_iterations);
  }

  void traced_one(const std::string& variant) {
    tea::RunResult run;
    if (!traced_solve(variant, problem_, reference_, config_.threads, result_,
                      spans_, layers_, run)) {
      return;
    }
    VariantStats& s = stats_[variant];
    s.traced_solve_s.push_back(run.wall_seconds);
    layers_.add_iterations(variant, run.total_iterations);
    // Counters must match an untraced solve of the same iteration count
    // exactly; ops-omp and raja-omp vary their iteration totals from run to
    // run, and a solve with no untraced twin is not compared.
    const auto twin = s.counters_by_iterations.find(run.total_iterations);
    if (!tea::backend_is_distributed(variant) &&
        twin != s.counters_by_iterations.end()) {
      result_.check(check_counters_equal(run.counters, twin->second));
      ++counter_checks_;
    }
  }

  const RunConfig& config_;
  const tl::ProblemConfig problem_;
  const std::vector<MixEntry> mix_;
  Result& result_;
  SpanRecorder* spans_;
  const Reference reference_;
  std::map<std::string, VariantStats> stats_;
  SolveLayers layers_;
  double first_round_rss_mb_ = 0.0;
  long counter_checks_ = 0;
};

void report_end_to_end(const SolveWorkload& work, Result& result) {
  // Per-variant medians, weighed by the mix: whole rounds keep the mix the
  // same in every run, and one slow solve does not move a median.
  result.set("setup_s", work.per_solve([](const VariantStats& s) {
    return median(s.setup_s);
  }), "s");
  result.set("latency_p50_s", work.per_solve([](const VariantStats& s) {
    return median(s.solve_s);
  }), "s");
  // Solves per second at each variant's median outer wall (set-up
  // included), over one round's mix.
  result.set("throughput_ops", 1.0 / work.per_solve([](const VariantStats& s) {
    return median(s.outer_s);
  }), "1/s");
  result.set("peak_rss_mb", work.first_round_rss_mb(), "MB");
  for (const MixEntry& entry : work.mix()) {
    const VariantStats& s = work.stats(entry.variant);
    std::fprintf(stderr,
                 "perfbench: %-10s %3zu solves, solve p10 %.4f p25 %.4f "
                 "p50 %.4f p90 %.4f s, setup p50 %.5f s\n",
                 entry.variant.c_str(), s.solve_s.size(),
                 quantile(s.solve_s, 0.1), quantile(s.solve_s, 0.25),
                 median(s.solve_s), quantile(s.solve_s, 0.9),
                 median(s.setup_s));
  }
}

void run_solve_workload(const RunConfig& config, tl::ProblemConfig problem,
                        std::vector<MixEntry> mix, int served_per_client,
                        Result& result, SpanRecorder* spans) {
  SolveWorkload work(config, std::move(problem), std::move(mix), result,
                     spans);
  if (spans == nullptr) {
    work.run_rounds(config.seconds, false);
    report_end_to_end(work, result);
    return;
  }
  const double triad = report_triad(config, result);
  work.run_rounds(config.seconds / 2, false);
  work.run_rounds(config.seconds / 2, true);
  report_solve_layers(work.layers(), triad, result);
  report_forkjoin(config, result);
  report_served_problem(config, work.problem(), served_per_client, result,
                        *spans);
  const double untraced = work.per_solve([](const VariantStats& s) {
    return median(s.solve_s);
  });
  const double traced = work.per_solve([](const VariantStats& s) {
    return median(s.traced_solve_s);
  });
  result.set("trace.overhead_frac", traced / untraced - 1.0, "ratio");
  std::fprintf(stderr, "perfbench: %ld traced solves compared counters "
                       "exactly with an untraced twin\n",
               work.counter_checks());
}

}  // namespace

void run_fig1(const RunConfig& config, Result& result, SpanRecorder* spans) {
  // tea_bm_2's two-material CG problem (eps 1e-15), one step, on 500^2
  // rather than the paper's Fig. 1 mesh of 1000^2: at 1000^2 one solve of
  // each variant takes about 30 s on a 4-vCPU host, a run could hold only
  // one sample per variant, and single threaded solves there vary by 20-40%
  // from run to run.  At 500^2 a 30 s run holds eight per variant.
  tl::ProblemConfig problem = load_deck(config, "tea_bm_2.in");
  problem.x_cells = problem.y_cells = config.tiny ? 64 : 500;
  problem.end_step = 1;
  run_solve_workload(config, problem,
                     {{"serial", 1}, {"manual-omp", 1}, {"ops-omp", 1},
                      {"kokkos-omp", 1}, {"raja-omp", 1}, {"manual-mpi", 1}},
                     1, result, spans);
}

void run_bm16(const RunConfig& config, Result& result, SpanRecorder* spans) {
  tl::ProblemConfig problem = load_deck(config, "tea_bm_16.in");
  if (config.tiny) {
    problem.x_cells = problem.y_cells = 32;
    problem.end_step = 2;
  }
  run_solve_workload(config, problem, {{"serial", 1}, {"manual-omp", 4}},
                     config.tiny ? 1 : 4, result, spans);
}

}  // namespace perfbench
