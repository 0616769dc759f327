// Unit tests for minikokkos: views, layouts, spaces, deep_copy/mirrors and
// parallel dispatch across all three execution spaces.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>

#include "minikokkos/minikokkos.hpp"

namespace {

TEST(View, Rank1AllocatesZeroed) {
  kk::View1D<double> v("v", 100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.label(), "v");
  for (std::size_t i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(v(i), 0.0);
}

TEST(View, SharedOwnershipSemantics) {
  kk::View1D<double> a("a", 10);
  kk::View1D<double> b = a;  // handle copy, same allocation
  b(3) = 7.0;
  EXPECT_DOUBLE_EQ(a(3), 7.0);
  EXPECT_EQ(a.data(), b.data());
}

TEST(View, Rank2LayoutRightStrides) {
  kk::View2D<double, kk::LayoutRight> v("v", 3, 4);  // 3 rows x 4 cols
  v(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(v.data()[1 * 4 + 2], 5.0);
  EXPECT_EQ(v.extent(0), 3);
  EXPECT_EQ(v.extent(1), 4);
}

TEST(View, Rank2LayoutLeftStrides) {
  kk::View2D<double, kk::LayoutLeft> v("v", 3, 4);
  v(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(v.data()[2 * 3 + 1], 5.0);
}

TEST(View, DefaultLayoutPerSpace) {
  using HostDefault = kk::View2D<double, void, kk::HostSpace>::layout;
  using DeviceDefault = kk::View2D<double, void, kk::SimGPUSpace>::layout;
  static_assert(std::is_same_v<HostDefault, kk::LayoutRight>);
  static_assert(std::is_same_v<DeviceDefault, kk::LayoutLeft>);
  SUCCEED();
}

TEST(DeepCopy, HostToHost) {
  kk::View1D<double> a("a", 50), b("b", 50);
  for (std::size_t i = 0; i < 50; ++i) a(i) = static_cast<double>(i);
  kk::deep_copy(b, a);
  EXPECT_DOUBLE_EQ(b(49), 49.0);
  kk::View1D<double> wrong("w", 51);
  EXPECT_THROW(kk::deep_copy(wrong, a), tl::Error);
}

TEST(DeepCopy, HostDeviceRoundTrip) {
  kk::View1D<double, kk::SimGPUSpace> dev("dev", 64);
  auto mirror = kk::create_mirror_view(dev);
  static_assert(std::is_same_v<decltype(mirror)::memory_space, kk::HostSpace>);
  for (std::size_t i = 0; i < 64; ++i) mirror(i) = 2.0 * static_cast<double>(i);
  kk::deep_copy(dev, mirror);
  kk::View1D<double, kk::HostSpace> back("back", 64);
  kk::deep_copy(back, dev);
  EXPECT_DOUBLE_EQ(back(10), 20.0);
}

TEST(DeepCopy, MirrorOfHostViewIsSameView) {
  kk::View1D<double> host("h", 8);
  auto mirror = kk::create_mirror_view(host);
  EXPECT_EQ(mirror.data(), host.data());
}

TEST(DeepCopy, Rank2MirrorKeepsLayout) {
  kk::View2D<double, void, kk::SimGPUSpace> dev("d", 4, 6);
  auto mirror = kk::create_mirror_view(dev);
  static_assert(
      std::is_same_v<decltype(mirror)::layout, kk::LayoutLeft>);
  mirror(2, 3) = 9.0;
  kk::deep_copy(dev, mirror);
  kk::View2D<double, kk::LayoutLeft, kk::HostSpace> back("b", 4, 6);
  kk::deep_copy(back, dev);
  EXPECT_DOUBLE_EQ(back(2, 3), 9.0);
}

// --- parallel dispatch across execution spaces ---------------------------------

template <typename Exec>
struct ExecName;
template <>
struct ExecName<kk::Serial> {
  static constexpr const char* value = "Serial";
};
template <>
struct ExecName<kk::Threads> {
  static constexpr const char* value = "Threads";
};
template <>
struct ExecName<kk::SimGPU> {
  static constexpr const char* value = "SimGPU";
};

template <typename Exec>
class ExecSpaceTest : public ::testing::Test {};

using ExecSpaces = ::testing::Types<kk::Serial, kk::Threads, kk::SimGPU>;
TYPED_TEST_SUITE(ExecSpaceTest, ExecSpaces);

TYPED_TEST(ExecSpaceTest, ParallelForRange) {
  using Exec = TypeParam;
  using Space = typename kk::SpaceOf<Exec>::type;
  kk::View1D<double, Space> v("v", 1000);
  kk::parallel_for("fill", kk::RangePolicy<Exec>(0, 1000),
                   [=](long i) { v(static_cast<std::size_t>(i)) = 3.0 * i; });
  auto host = kk::create_mirror_view(v);
  kk::deep_copy(host, v);
  EXPECT_DOUBLE_EQ(host(999), 2997.0);
  EXPECT_DOUBLE_EQ(host(0), 0.0);
}

TYPED_TEST(ExecSpaceTest, ParallelForMDRange) {
  using Exec = TypeParam;
  using Space = typename kk::SpaceOf<Exec>::type;
  kk::View1D<double, Space> v("v", 20 * 30);
  kk::parallel_for("fill2d", kk::MDRangePolicy2<Exec>(0, 20, 0, 30),
                   [=](long i0, long i1) {
                     v(static_cast<std::size_t>(i0 * 30 + i1)) =
                         static_cast<double>(i0 * 100 + i1);
                   });
  auto host = kk::create_mirror_view(v);
  kk::deep_copy(host, v);
  EXPECT_DOUBLE_EQ(host(5 * 30 + 7), 507.0);
}

TYPED_TEST(ExecSpaceTest, ParallelReduceSum) {
  using Exec = TypeParam;
  double result = -1.0;
  kk::parallel_reduce(
      "sum", kk::RangePolicy<Exec>(0, 10000),
      [](long i, double& acc) { acc += static_cast<double>(i); }, result);
  EXPECT_DOUBLE_EQ(result, 10000.0 * 9999.0 / 2.0);
}

TYPED_TEST(ExecSpaceTest, ReduceOverOffsetRange) {
  using Exec = TypeParam;
  double result = 0.0;
  kk::parallel_reduce(
      "sum", kk::RangePolicy<Exec>(100, 200),
      [](long, double& acc) { acc += 1.0; }, result);
  EXPECT_DOUBLE_EQ(result, 100.0);
}

/// A cell value whose sums round differently under different association,
/// so an order change shows up in the low bits.
double cell_value(long i0, long i1) {
  return 1.0 / static_cast<double>(3 + i0 * 37 + i1 * 11);
}

TYPED_TEST(ExecSpaceTest, MDRangeReduceCoversOffsetRows) {
  using Exec = TypeParam;
  double result = 0.0;
  kk::parallel_reduce(
      "count", kk::MDRangePolicy2<Exec>(3, 20, 5, 31),
      [](long, long, double& acc) { acc += 1.0; }, result);
  EXPECT_DOUBLE_EQ(result, 17.0 * 26.0);
  kk::parallel_reduce(
      "empty", kk::MDRangePolicy2<Exec>(4, 4, 0, 10),
      [](long, long, double& acc) { acc += 1.0; }, result);
  EXPECT_EQ(result, 0.0);
}

// Serial and SimGPU reduce an MDRange in the flat LayoutRight order of the
// RangePolicy reduce over the same cells (SimGPU with the same block
// geometry), so the two are bit-equal.
template <typename Exec>
void expect_mdrange_reduce_matches_flat() {
  const long n0 = 37, n1 = 53;
  double md = 0.0;
  kk::parallel_reduce(
      "md", kk::MDRangePolicy2<Exec>(0, n0, 0, n1),
      [](long i0, long i1, double& acc) { acc += cell_value(i0, i1); }, md);
  double flat = 0.0;
  kk::parallel_reduce(
      "flat", kk::RangePolicy<Exec>(0, n0 * n1),
      [=](long idx, double& acc) { acc += cell_value(idx / n1, idx % n1); },
      flat);
  EXPECT_EQ(md, flat);
}

TEST(MDRangeReduce, SerialIsBitEqualToFlatRangeReduce) {
  expect_mdrange_reduce_matches_flat<kk::Serial>();
}

TEST(MDRangeReduce, SimGPUIsBitEqualToFlatRangeReduce) {
  expect_mdrange_reduce_matches_flat<kk::SimGPU>();
}

TEST(MDRangeReduce, ThreadsFoldsRowChunksInStaticPartitionOrder) {
  // Threads hands each pool thread its static share of rows, sums it in
  // one accumulator and folds the shares in thread order: the result is
  // that exact sum, whichever OS threads ran the shares.
  tlp::ThreadPool pool(3);
  const long n0 = 41, n1 = 29;
  double expect = 0.0;
  for (int tid = 0; tid < pool.size(); ++tid) {
    const tlp::StaticRange rows = tlp::static_partition(0, n0, tid, 3);
    double share = 0.0;
    for (long i0 = rows.begin; i0 < rows.end; ++i0) {
      for (long i1 = 0; i1 < n1; ++i1) share += cell_value(i0, i1);
    }
    expect += share;
  }
  for (int run = 0; run < 5; ++run) {
    double result = 0.0;
    kk::parallel_reduce(
        "md", kk::MDRangePolicy2<kk::Threads>(kk::Threads{&pool}, 0, n0, 0, n1),
        [](long i0, long i1, double& acc) { acc += cell_value(i0, i1); },
        result);
    EXPECT_EQ(result, expect);
  }
}

TEST(Threads, InstanceRunsOnItsPool) {
  // A one-thread instance runs every launch on the calling thread; the
  // default instance is the global pool.
  tlp::ThreadPool one(1);
  const kk::Threads space{&one};
  EXPECT_EQ(&space.thread_pool(), &one);
  EXPECT_EQ(&kk::Threads{}.thread_pool(), &tlp::global_pool());
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  kk::parallel_for("for", kk::MDRangePolicy2<kk::Threads>(space, 0, 64, 0, 8),
                   [&](long, long) {
                     if (std::this_thread::get_id() != caller) ++elsewhere;
                   });
  double sum = 0.0;
  kk::parallel_reduce(
      "reduce", kk::MDRangePolicy2<kk::Threads>(space, 0, 64, 0, 1),
      [&](long, long, double& acc) {
        if (std::this_thread::get_id() != caller) ++elsewhere;
        acc += 1.0;
      },
      sum);
  EXPECT_EQ(elsewhere.load(), 0);
  EXPECT_DOUBLE_EQ(sum, 64.0);
}

TEST(Parallel, InstrumentationCountsHostLaunch) {
  const machine::CounterScope scope;
  kk::parallel_for("noop", kk::RangePolicy<kk::Serial>(0, 4), [](long) {});
  EXPECT_EQ(scope.delta().kernel_launches, 1);
}

TEST(Parallel, DeviceLaunchCountedByDevice) {
  const machine::CounterScope scope;
  kk::View1D<double, kk::SimGPUSpace> v("v", 16);
  kk::parallel_for("dev", kk::RangePolicy<kk::SimGPU>(0, 16),
                   [=](long i) { v(static_cast<std::size_t>(i)) = 1.0; });
  EXPECT_EQ(scope.delta().kernel_launches, 1);
}

}  // namespace
