// Unit tests for miniraja: forall across policies, nested kernels, and the
// portable reducer objects.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "miniraja/miniraja.hpp"
#include "simgpu/device.hpp"
#include "threading/thread_id.hpp"

namespace {

template <typename Policy>
class PolicyTest : public ::testing::Test {};

using Policies = ::testing::Types<raja::seq_exec, raja::omp_parallel_for_exec,
                                  raja::simgpu_exec>;
TYPED_TEST_SUITE(PolicyTest, Policies);

TYPED_TEST(PolicyTest, ForallCoversSegment) {
  std::vector<std::atomic<int>> hits(500);
  raja::forall<TypeParam>(raja::RangeSegment(100, 500), [&](long i) {
    ASSERT_GE(i, 100);
    ASSERT_LT(i, 500);
    hits[static_cast<std::size_t>(i)]++;
  });
  for (long i = 0; i < 100; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 0);
  for (long i = 100; i < 500; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TYPED_TEST(PolicyTest, Kernel2DNestedCoverage) {
  std::vector<std::atomic<int>> hits(12 * 9);
  raja::kernel_2d<TypeParam>(raja::RangeSegment(0, 9), raja::RangeSegment(0, 12),
                             [&](long j, long i) {
                               hits[static_cast<std::size_t>(j * 12 + i)]++;
                             });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TYPED_TEST(PolicyTest, ReduceSumInLoop) {
  raja::ReduceSum<double> sum(10.0);  // initial value participates
  raja::forall<TypeParam>(raja::RangeSegment(0, 1000),
                          [=](long i) { sum += static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(sum.get(), 10.0 + 1000.0 * 999.0 / 2.0);
}

TYPED_TEST(PolicyTest, ReduceMinMax) {
  std::vector<double> values(777);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((i * 37) % 1000) - 500.0;
  }
  raja::ReduceMin<double> mn(1e30);
  raja::ReduceMax<double> mx(-1e30);
  const double* p = values.data();
  raja::forall<TypeParam>(raja::RangeSegment(0, 777), [=](long i) {
    mn.min(p[i]);
    mx.max(p[i]);
  });
  double expect_min = 1e30, expect_max = -1e30;
  for (const double v : values) {
    expect_min = std::min(expect_min, v);
    expect_max = std::max(expect_max, v);
  }
  EXPECT_DOUBLE_EQ(mn.get(), expect_min);
  EXPECT_DOUBLE_EQ(mx.get(), expect_max);
}

TYPED_TEST(PolicyTest, MultipleReducersInOneLoop) {
  raja::ReduceSum<double> even(0.0), odd(0.0);
  raja::forall<TypeParam>(raja::RangeSegment(0, 100), [=](long i) {
    if (i % 2 == 0) {
      even += 1.0;
    } else {
      odd += 1.0;
    }
  });
  EXPECT_DOUBLE_EQ(even.get(), 50.0);
  EXPECT_DOUBLE_EQ(odd.get(), 50.0);
}

TYPED_TEST(PolicyTest, ReducersInsideKernel2D) {
  raja::ReduceSum<double> sum(0.0);
  raja::ReduceMin<double> mn(1e30);
  raja::ReduceMax<double> mx(-1e30);
  raja::kernel_2d<TypeParam>(raja::RangeSegment(2, 19),
                             raja::RangeSegment(-3, 70), [=](long j, long i) {
                               const double v = static_cast<double>(j * 100 + i);
                               sum += v;
                               mn.min(v);
                               mx.max(v);
                             });
  double expect = 0.0;
  for (long j = 2; j < 19; ++j) {
    for (long i = -3; i < 70; ++i) expect += static_cast<double>(j * 100 + i);
  }
  EXPECT_DOUBLE_EQ(sum.get(), expect);
  EXPECT_DOUBLE_EQ(mn.get(), 197.0);
  EXPECT_DOUBLE_EQ(mx.get(), 1869.0);
}

TYPED_TEST(PolicyTest, ReducerReusedAcrossTwoLoops) {
  // A reducer captured by two loops totals both, and get() between them
  // sees the first loop's result.
  raja::ReduceSum<double> sum(1.0);
  raja::ReduceMax<double> mx(0.0);
  raja::forall<TypeParam>(raja::RangeSegment(0, 300), [=](long i) {
    sum += 2.0;
    mx.max(static_cast<double>(i));
  });
  EXPECT_DOUBLE_EQ(sum.get(), 601.0);
  raja::kernel_2d<TypeParam>(raja::RangeSegment(0, 10),
                             raja::RangeSegment(0, 30), [=](long j, long i) {
                               sum += 1.0;
                               mx.max(static_cast<double>(1000 + j * 30 + i));
                             });
  EXPECT_DOUBLE_EQ(sum.get(), 901.0);
  EXPECT_DOUBLE_EQ(mx.get(), 1299.0);
}

TEST(Reducer, MinMaxUnderSimGPUWithMoreBlocksThanPoolThreads) {
  // Each thread block reduces on its own copy of the loop body; the block
  // partials are folded once, in block order.
  simgpu::Device dev(std::size_t(1) << 24);
  const simgpu::DeviceScope scope(&dev);
  const long n = 40000;
  ASSERT_GT(dev.blocks_1d(n), 4 * tlp::global_pool().size());
  raja::ReduceMin<double> mn(1e30);
  raja::ReduceMax<double> mx(-1e30);
  raja::ReduceSum<double> sum(0.0);
  raja::forall<raja::simgpu_exec>(raja::RangeSegment(0, n), [=](long i) {
    const double v = static_cast<double>((i * 7919) % n) - 123.0;
    mn.min(v);
    mx.max(v);
    sum += 1.0;
  });
  EXPECT_DOUBLE_EQ(mn.get(), -123.0);
  EXPECT_DOUBLE_EQ(mx.get(), static_cast<double>(n - 1) - 123.0);
  EXPECT_DOUBLE_EQ(sum.get(), static_cast<double>(n));
  ASSERT_GT(dev.blocks_2d(300, 90), 4 * tlp::global_pool().size());
  raja::ReduceMin<double> mn2(1e30);
  raja::kernel_2d<raja::simgpu_exec>(
      raja::RangeSegment(0, 90), raja::RangeSegment(0, 300),
      [=](long j, long i) { mn2.min(static_cast<double>((j * 300 + i + 17) % 27000)); });
  EXPECT_DOUBLE_EQ(mn2.get(), 0.0);
}

/// A value whose sums round differently under different association.
double cell_value(long j, long i) {
  return 1.0 / static_cast<double>(3 + j * 37 + i * 11);
}

TEST(Reducer, HostPartialsFoldInStaticPartitionOrder) {
  // Each pool thread's rows are summed in one accumulator and the shares
  // are folded in thread order, so the result is that exact sum however
  // the OS threads were numbered (prime the process-wide thread ids in a
  // different order before each pool exists).
  const long rows = 41, cols = 29;
  double expect = 0.0;
  for (int tid = 0; tid < 3; ++tid) {
    const tlp::StaticRange r = tlp::static_partition(0, rows, tid, 3);
    double share = 0.0;
    for (long j = r.begin; j < r.end; ++j) {
      for (long i = 0; i < cols; ++i) share += cell_value(j, i);
    }
    expect += share;
  }
  for (int run = 0; run < 5; ++run) {
    std::vector<std::thread> primers;
    for (int k = 0; k <= run; ++k) {
      primers.emplace_back([] { (void)tlp::current_thread_id(); });
    }
    for (std::thread& t : primers) t.join();
    tlp::ThreadPool pool(3);
    raja::ReduceSum<double> sum(0.0);
    raja::kernel_2d<raja::omp_parallel_for_exec>(
        raja::Resource{&pool}, raja::RangeSegment(0, rows),
        raja::RangeSegment(0, cols),
        [=](long j, long i) { sum += cell_value(j, i); });
    EXPECT_EQ(sum.get(), expect) << "run " << run;
  }
}

TEST(Resource, OmpPolicyRunsOnTheResourcePool) {
  tlp::ThreadPool one(1);
  const raja::Resource res{&one};
  EXPECT_EQ(&res.thread_pool(), &one);
  EXPECT_EQ(&raja::Resource{}.thread_pool(), &tlp::global_pool());
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  raja::kernel_2d<raja::omp_parallel_for_exec>(
      res, raja::RangeSegment(0, 64), raja::RangeSegment(0, 4),
      [&](long, long) {
        if (std::this_thread::get_id() != caller) ++elsewhere;
      });
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(RangeSegment, Accessors) {
  const raja::RangeSegment seg(3, 11);
  EXPECT_EQ(seg.begin(), 3);
  EXPECT_EQ(seg.end(), 11);
  EXPECT_EQ(seg.size(), 8);
}

TEST(Reducer, ImplicitConversionToValue) {
  raja::ReduceSum<double> sum(0.0);
  raja::forall<raja::seq_exec>(raja::RangeSegment(0, 10),
                               [=](long) { sum += 2.0; });
  const double v = sum;
  EXPECT_DOUBLE_EQ(v, 20.0);
}

TEST(Reducer, IndependentInstancesDoNotInterfere) {
  raja::ReduceSum<double> a(0.0);
  {
    raja::ReduceSum<double> b(0.0);
    raja::forall<raja::omp_parallel_for_exec>(raja::RangeSegment(0, 64),
                                              [=](long) {
                                                a += 1.0;
                                                b += 2.0;
                                              });
    EXPECT_DOUBLE_EQ(b.get(), 128.0);
  }
  EXPECT_DOUBLE_EQ(a.get(), 64.0);
}

TEST(Forall, DeviceWritesDeviceMemory) {
  simgpu::Device& dev = simgpu::default_device();
  double* d = static_cast<double*>(dev.allocate(100 * sizeof(double)));
  raja::forall<raja::simgpu_exec>(raja::RangeSegment(0, 100), [=](long i) {
    d[i] = static_cast<double>(i) * 1.5;
  });
  std::vector<double> host(100);
  dev.memcpy_d2h(host.data(), d, 100 * sizeof(double));
  EXPECT_DOUBLE_EQ(host[40], 60.0);
  dev.deallocate(d);
}

}  // namespace
