// Device golden suite: the simulated-GPU backends must walk the same
// iteration trajectory as the serial reference on every shipped deck.
//
// Same contract as the threaded half of test_golden.cpp, extended to the
// device: simgpu reductions sum fixed-shape block partials in block order,
// and the converged exits in the golden table sit well below threshold, so
// outer/inner iteration counts match the serial table *exactly* while the
// landing residual is only pinned to the same order-of-magnitude band the
// serial suite uses.  A device kernel or reduction-order change that shifts
// an iteration count is a regression against the committed table.
//
// manual-cuda runs the full deck x solver matrix; the remaining device
// variants (kokkos/raja/ops/acc) share the same kernels through different
// dispatch layers, so one deck x solver cell each pins their plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "core/registry.hpp"
#include "golden_cases.hpp"

namespace {

using golden::GoldenCase;
using golden::decks_dir;
using golden::golden_config;
using golden::kConvergedResidualFactor;
using golden::kGolden;
using golden::kInitialRrRelTol;
using golden::kResidualRelTol;
using golden::kTempRelTol;

void expect_matches_serial_table(const GoldenCase& c,
                                 const std::string& variant) {
  const tea::RunResult run =
      tea::run_simulation(variant, golden_config(c), {});
  const std::string label =
      std::string(c.deck) + "/" + c.solver + " on " + variant;

  long inner = 0;
  for (const tea::StepResult& s : run.steps) inner += s.solve.inner_iterations;
  EXPECT_EQ(run.total_iterations, c.outer) << label;
  EXPECT_EQ(inner, c.inner) << label;
  EXPECT_EQ(run.all_converged(), c.converged != 0) << label;
  EXPECT_NEAR(run.final_summary.temp, c.temp, kTempRelTol * std::fabs(c.temp))
      << label;
  EXPECT_NEAR(run.steps.back().solve.initial_rr, c.initial_rr,
              kInitialRrRelTol * std::fabs(c.initial_rr))
      << label;
  const double final_rr = run.steps.back().solve.final_rr;
  if (c.converged != 0) {
    EXPECT_LE(final_rr, c.eps * run.steps.back().solve.initial_rr *
                            (1.0 + 1e-6))
        << label;
    if (c.final_rr > 0.0) {
      EXPECT_LE(final_rr, c.final_rr * kConvergedResidualFactor +
                              1.0e-6 * c.eps * c.initial_rr)
          << label;
      EXPECT_GE(final_rr, c.final_rr / kConvergedResidualFactor -
                              1.0e-6 * c.eps * c.initial_rr)
          << label;
    }
  } else {
    EXPECT_NEAR(final_rr, c.final_rr, kResidualRelTol * std::fabs(c.final_rr))
        << label;
  }
}

class DeviceGoldenCaseTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DeviceGoldenCaseTest, ManualCudaMatchesSerialGoldenTable) {
  ASSERT_FALSE(decks_dir().empty());
  expect_matches_serial_table(GetParam(), "manual-cuda");
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return std::string(info.param.deck) + "_" + info.param.solver;
}

INSTANTIATE_TEST_SUITE_P(GoldenDevice, DeviceGoldenCaseTest,
                         ::testing::ValuesIn(kGolden), case_name);

class DeviceVariantGoldenTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DeviceVariantGoldenTest, MatchesSerialGoldenTableOnBm1Cg) {
  ASSERT_FALSE(decks_dir().empty());
  for (const GoldenCase& c : kGolden) {
    if (std::string(c.deck) == "tea_bm_1" && std::string(c.solver) == "cg") {
      expect_matches_serial_table(c, GetParam());
      return;
    }
  }
  FAIL() << "tea_bm_1/cg missing from the golden table";
}

// kokkos-cuda and raja-cuda reduce through their frameworks' device paths
// (two-phase reduce_sum over the flat index; per-block reducer copies folded
// in block order), so every solver is pinned against the table on grids of
// 1x2 (tea_bm_1), 1x8 (tea_circle) and 3x20 (tea_bm_16, partial edge
// blocks) default 64x8 thread blocks.
class FrameworkDeviceGoldenTest
    : public ::testing::TestWithParam<std::tuple<const char*, GoldenCase>> {};

TEST_P(FrameworkDeviceGoldenTest, MatchesSerialGoldenTable) {
  ASSERT_FALSE(decks_dir().empty());
  expect_matches_serial_table(std::get<1>(GetParam()), std::get<0>(GetParam()));
}

std::vector<GoldenCase> framework_device_cases() {
  std::vector<GoldenCase> cases;
  for (const GoldenCase& c : kGolden) {
    const std::string deck = c.deck;
    if (deck == "tea_bm_1" || deck == "tea_circle" || deck == "tea_bm_16") {
      cases.push_back(c);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    GoldenFrameworkDevice, FrameworkDeviceGoldenTest,
    ::testing::Combine(::testing::Values("kokkos-cuda", "raja-cuda"),
                       ::testing::ValuesIn(framework_device_cases())),
    [](const ::testing::TestParamInfo<std::tuple<const char*, GoldenCase>>& i) {
      std::string name = std::string(std::get<0>(i.param)) + "_" +
                         std::get<1>(i.param).deck + "_" +
                         std::get<1>(i.param).solver;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

INSTANTIATE_TEST_SUITE_P(GoldenDeviceVariants, DeviceVariantGoldenTest,
                         ::testing::Values("kokkos-cuda", "raja-cuda",
                                           "ops-cuda", "ops-acc",
                                           "manual-acc-gpu"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

}  // namespace
