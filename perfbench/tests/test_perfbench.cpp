// test_perfbench.cpp — the benchmark's own tests: every workload runs end
// to end at tiny size, timed and traced, each reporting exactly the metrics
// BENCHMARK.json declares; and every output check rejects a deliberately
// corrupted result, so a passing check means something.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "checks.hpp"
#include "core/registry.hpp"
#include "perfbench.hpp"
#include "results/json.hpp"
#include "threading/thread_pool.hpp"
#include "timed_backend.hpp"
#include "trace.hpp"

namespace {

constexpr int kThreads = 2;

// The global pool sizes itself from TL_NUM_THREADS on first use, as in
// perfbench's main.
const bool kPinned = setenv("TL_NUM_THREADS", "2", 1) == 0;

std::string repo_path(const std::string& rel) {
  return std::string(PERFBENCH_REPO_ROOT) + "/" + rel;
}

perfbench::RunConfig tiny(const std::string& workload, bool trace) {
  perfbench::RunConfig c;
  c.workload = workload;
  c.seed = 7;
  c.seconds = 0.0;  // one round
  c.trace = trace;
  c.tiny = true;
  c.threads = kThreads;
  c.deck_dir = repo_path("examples/decks");
  return c;
}

/// name -> unit of every metric BENCHMARK.json declares in `section`.
std::map<std::string, std::string> declared(const std::string& section) {
  std::ifstream in(repo_path("BENCHMARK.json"));
  std::stringstream text;
  text << in.rdbuf();
  const results::Json spec = results::Json::parse(text.str());
  std::map<std::string, std::string> out;
  for (const results::Json& m : spec.get(section)->items()) {
    out[m.get_string("name", "")] = m.get_string("unit", "");
  }
  return out;
}

tl::ProblemConfig small_problem() {
  tl::ProblemConfig p =
      tl::Config::load(repo_path("examples/decks/tea_bm_16.in")).problem();
  p.x_cells = p.y_cells = 24;
  p.end_step = 2;
  return p;
}

TEST(Workloads, EveryWorkloadReportsEveryDeclaredMetricTimedAndTraced) {
  ASSERT_TRUE(kPinned);
  const auto end_to_end = declared("end_to_end");
  const auto per_layer = declared("per_layer");
  for (const std::string& w : perfbench::workload_names()) {
    for (bool trace : {false, true}) {
      SCOPED_TRACE(w + (trace ? " traced" : " timed"));
      perfbench::Result result;
      perfbench::SpanRecorder spans;
      perfbench::run_workload(tiny(w, trace), result,
                              trace ? &spans : nullptr);
      for (const std::string& p : result.problems) ADD_FAILURE() << p;
      EXPECT_TRUE(result.correct);
      EXPECT_GT(result.attempted, 0);
      EXPECT_EQ(result.failed, 0);
      const auto& spec = trace ? per_layer : end_to_end;
      for (const auto& [name, metric] : result.metrics) {
        ASSERT_TRUE(spec.count(name)) << name << " is not declared";
        EXPECT_EQ(spec.at(name), metric.unit) << name;
        EXPECT_TRUE(std::isfinite(metric.value)) << name;
      }
      for (const auto& [name, unit] : spec) {
        EXPECT_TRUE(result.metrics.count(name)) << name << " is not reported";
      }
      if (trace) {
        EXPECT_GT(spans.size(), 0u);
      } else {
        for (const auto& [name, metric] : result.metrics) {
          EXPECT_GT(metric.value, 0.0) << name << " reads 0";
        }
      }
      const std::string json = perfbench::result_json(result);
      EXPECT_NO_THROW(results::Json::parse(json)) << json;
    }
  }
}

TEST(Trace, WritesChromeTraceEventJson) {
  perfbench::SpanRecorder spans(2);
  const int parent = spans.reserve_id();
  spans.record(parent, "solve", "core", 0, 2000, -1, 1);
  spans.record(spans.reserve_id(), "dot", "dot", 100, 900, parent, 1);
  spans.record(spans.reserve_id(), "dot", "dot", 900, 1000, parent, 1);
  EXPECT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.dropped(), 1);
  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(spans.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const results::Json trace = results::Json::parse(text.str());
  const auto& events = trace.get("traceEvents")->items();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].get_string("ph", ""), "X");
  EXPECT_EQ(events[1].get("args")->get_int("parent", -2), parent);
}

class Checks : public ::testing::Test {
 protected:
  void SetUp() override {
    problem_ = small_problem();
    reference_ = perfbench::make_reference(problem_);
    tea::RunOptions options;
    options.threads = kThreads;
    run_ = tea::run_simulation("manual-omp", problem_, options);
  }

  tl::ProblemConfig problem_;
  perfbench::Reference reference_;
  tea::RunResult run_;
};

TEST_F(Checks, RunCheckAcceptsARealRunAndRejectsCorruptedOnes) {
  EXPECT_EQ(perfbench::check_run(problem_, reference_, run_), "");

  tea::RunResult energy_removed = run_;
  energy_removed.steps.back().summary.ie *= 1.0 - 1e-6;
  EXPECT_NE(perfbench::check_run(problem_, reference_, energy_removed), "");

  tea::RunResult missed_eps = run_;
  missed_eps.steps.back().solve.final_rr =
      10.0 * problem_.eps * missed_eps.steps.back().solve.initial_rr;
  ASSERT_TRUE(missed_eps.steps.back().solve.converged);
  EXPECT_NE(perfbench::check_run(problem_, reference_, missed_eps), "");

  tea::RunResult unconverged = run_;
  unconverged.steps.front().solve.converged = false;
  EXPECT_NE(perfbench::check_run(problem_, reference_, unconverged), "");

  tea::RunResult wrong_rr0 = run_;
  wrong_rr0.steps.front().solve.initial_rr *= 1.001;
  wrong_rr0.steps.front().solve.final_rr *= 1.001;
  EXPECT_NE(perfbench::check_run(problem_, reference_, wrong_rr0), "");
}

TEST_F(Checks, EnergyBandIsTightAgainstTheReference) {
  const double band =
      perfbench::energy_band(problem_, reference_, problem_.end_step,
                             run_.total_iterations);
  EXPECT_GT(band, 0.0);
  EXPECT_LT(band, 1e-6 * reference_.energy);
}

TEST_F(Checks, FieldCheckRecomputesResidualAndEnergy) {
  for (const std::string variant : {"serial", "manual-omp", "ops-omp",
                                    "kokkos-omp", "raja-omp"}) {
    SCOPED_TRACE(variant);
    tlp::ThreadPool pool(kThreads);
    tea::RunOptions options;
    perfbench::TimedBackend backend(
        tea::make_backend(variant, &pool, options), nullptr, -1, 1);
    backend.set_fused_operator_dot(options.fuse_operator_dot);
    const tea::RunResult run = tea::TeaDriver(problem_).run(backend);
    const perfbench::Fields fields = perfbench::read_fields(backend);
    EXPECT_EQ(perfbench::check_run(problem_, reference_, run), "");
    EXPECT_EQ(perfbench::check_fields(problem_, reference_, fields, run,
                                      backend.initial_energy()),
              "");

    perfbench::Fields bad_u = fields;
    bad_u.u[bad_u.u.size() / 2] *= 1.0 + 1e-4;
    EXPECT_NE(perfbench::check_fields(problem_, reference_, bad_u, run,
                                      backend.initial_energy()),
              "");

    perfbench::Fields drained = fields;
    for (double& e : drained.energy) e *= 1.0 - 1e-6;
    EXPECT_NE(perfbench::check_fields(problem_, reference_, drained, run,
                                      backend.initial_energy()),
              "");

    EXPECT_NE(perfbench::check_fields(problem_, reference_, fields, run,
                                      backend.initial_energy() * 1.001),
              "");
  }
}

TEST_F(Checks, DecoratedSolveMatchesUndecoratedCountersExactly) {
  for (const std::string variant : {"serial", "manual-omp"}) {
    SCOPED_TRACE(variant);
    tea::RunOptions options;
    options.threads = kThreads;
    const tea::RunResult plain =
        tea::run_simulation(variant, problem_, options);
    tlp::ThreadPool pool(kThreads);
    perfbench::TimedBackend backend(
        tea::make_backend(variant, &pool, options), nullptr, -1, 1);
    backend.set_fused_operator_dot(options.fuse_operator_dot);
    const tea::RunResult traced = tea::TeaDriver(problem_).run(backend);
    EXPECT_EQ(traced.total_iterations, plain.total_iterations);
    EXPECT_EQ(perfbench::check_counters_equal(traced.counters, plain.counters),
              "");
    EXPECT_GT(backend.tally().calls[static_cast<int>(
                  perfbench::KernelClass::kOpDot)],
              0);
  }
  machine::Counters a, b;
  b.kernel_launches = 1;
  EXPECT_NE(perfbench::check_counters_equal(a, b), "");
}

TEST_F(Checks, ResponseCheckRejectsCorruptedResponses) {
  service::SolveResponse good;
  good.label = "r";
  good.converged = run_.all_converged();
  good.iterations = run_.total_iterations;
  good.initial_rr = run_.steps.front().solve.initial_rr;
  good.final_rr = run_.steps.back().solve.final_rr;
  good.final_temperature = run_.final_summary.temp;
  EXPECT_EQ(perfbench::check_response(problem_, reference_, good), "");

  service::SolveResponse missed_eps = good;
  missed_eps.final_rr = 10.0 * problem_.eps * good.initial_rr;
  EXPECT_NE(perfbench::check_response(problem_, reference_, missed_eps), "");

  service::SolveResponse cooled = good;
  cooled.final_temperature *= 1.0 - 1e-6;
  EXPECT_NE(perfbench::check_response(problem_, reference_, cooled), "");

  service::SolveResponse unconverged = good;
  unconverged.converged = false;
  EXPECT_NE(perfbench::check_response(problem_, reference_, unconverged), "");

  service::SolveResponse errored = good;
  errored.error = "boom";
  EXPECT_NE(perfbench::check_response(problem_, reference_, errored), "");
}

}  // namespace
