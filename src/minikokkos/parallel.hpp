// parallel.hpp — minikokkos execution policies and parallel dispatch.
//
// parallel_for/parallel_reduce mirror Kokkos' functor signatures:
//   RangePolicy    : f(i)            / f(i, sum&)
//   MDRangePolicy2 : f(i0, i1)       / f(i0, i1, sum&)
// An MDRangePolicy2 carries its execution-space instance (Kokkos'
// `MDRangePolicy<Exec>(exec, ...)`), so Threads launches run on the pool
// that instance names; a RangePolicy uses the default instance.
//
// Host MDRange dispatch hands each chunk whole i0 rows and runs i1
// contiguously inside, so loop bodies see plain affine indices and no
// per-element division; the chunk loops are compiled per ISA like the
// manual kernels (detail::for_rows).  Host reductions keep one accumulator
// per chunk, which the inlined body updates in a register; Threads folds
// the chunk partials in static-partition order
// (tlp::ThreadPool::parallel_reduce), so a result depends on the pool
// width but not on which OS threads ran.
// SimGPU reductions, flat or MDRange, go through simgpu::Device::reduce_sum
// over the flattened LayoutRight index with the device's block geometry:
// an MDRange reduce there is bit-equal to the RangePolicy reduce over the
// same cells.
//
// Host executions count one kernel launch in the instrumentation; SimGPU
// executions delegate to simgpu::Device, which counts its own.
#pragma once

#include <string>
#include <type_traits>

#include "common/simd.hpp"
#include "machine/instrumentation.hpp"
#include "minikokkos/core.hpp"

namespace kk {

template <typename Exec = Serial>
struct RangePolicy {
  Exec space{};
  long begin = 0;
  long end = 0;
  RangePolicy(long b, long e) : begin(b), end(e) {}
};

/// 2D MDRange (Kokkos::MDRangePolicy<Rank<2>>); iteration order follows
/// LayoutRight on host (i0 outer) and maps i1 to the fast GPU axis.
template <typename Exec = Serial>
struct MDRangePolicy2 {
  Exec space{};
  long begin0 = 0, end0 = 0;
  long begin1 = 0, end1 = 0;
  MDRangePolicy2(long b0, long e0, long b1, long e1)
      : begin0(b0), end0(e0), begin1(b1), end1(e1) {}
  MDRangePolicy2(Exec s, long b0, long e0, long b1, long e1)
      : space(s), begin0(b0), end0(e0), begin1(b1), end1(e1) {}
};

namespace detail {
inline machine::Instrumentation& instr() {
  return machine::Instrumentation::global();
}

// The rows of one host MDRange chunk.  Each is compiled once per ISA
// (TL_TARGET_CLONES) with the functor inlined into every clone, so host
// bodies get the same 4-wide AVX2 code as the manual kernels, performing
// the same IEEE operations in the same order as the baseline build.

template <typename F>
TL_TARGET_CLONES void for_rows(const F& f, long lo, long hi, long b1,
                               long e1) {
  for (long i0 = lo; i0 < hi; ++i0) {
    for (long i1 = b1; i1 < e1; ++i1) f(i0, i1);
  }
}

template <typename F>
TL_TARGET_CLONES double reduce_rows(const F& f, long lo, long hi, long b1,
                                    long e1) {
  double acc = 0.0;
  for (long i0 = lo; i0 < hi; ++i0) {
    for (long i1 = b1; i1 < e1; ++i1) f(i0, i1, acc);
  }
  return acc;
}

/// Folds chunk partials; a lambda so the pool's reduction inlines it.
inline constexpr auto plus = [](double a, double b) { return a + b; };
}  // namespace detail

// --- parallel_for ------------------------------------------------------------

template <typename Exec, typename F>
void parallel_for(const std::string& name, RangePolicy<Exec> p, F&& f) {
  (void)name;
  if constexpr (std::is_same_v<Exec, Serial>) {
    for (long i = p.begin; i < p.end; ++i) f(i);
    detail::instr().add_launch();
  } else if constexpr (std::is_same_v<Exec, Threads>) {
    p.space.thread_pool().parallel_for(p.begin, p.end, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) f(i);
    });
    detail::instr().add_launch();
  } else {
    static_assert(std::is_same_v<Exec, SimGPU>, "unknown execution space");
    device().launch_1d(name, p.end - p.begin, {},
                       [&, b = p.begin](long i) { f(b + i); });
  }
}

template <typename Exec, typename F>
void parallel_for(const std::string& name, MDRangePolicy2<Exec> p,
                  const F& f) {
  (void)name;
  if constexpr (std::is_same_v<Exec, Serial>) {
    detail::for_rows(f, p.begin0, p.end0, p.begin1, p.end1);
    detail::instr().add_launch();
  } else if constexpr (std::is_same_v<Exec, Threads>) {
    p.space.thread_pool().parallel_for(p.begin0, p.end0, [&](long lo, long hi) {
      detail::for_rows(f, lo, hi, p.begin1, p.end1);
    });
    detail::instr().add_launch();
  } else {
    static_assert(std::is_same_v<Exec, SimGPU>, "unknown execution space");
    const int n1 = static_cast<int>(p.end1 - p.begin1);
    const int n0 = static_cast<int>(p.end0 - p.begin0);
    device().launch_2d(name, n1, n0, {},
                       [&, b0 = p.begin0, b1 = p.begin1](int x, int y) {
                         f(b0 + y, b1 + x);
                       });
  }
}

// --- parallel_reduce (sum) -----------------------------------------------------

template <typename Exec, typename F>
void parallel_reduce(const std::string& name, RangePolicy<Exec> p, F&& f,
                     double& result) {
  (void)name;
  if constexpr (std::is_same_v<Exec, Serial>) {
    double acc = 0.0;
    for (long i = p.begin; i < p.end; ++i) f(i, acc);
    result = acc;
    detail::instr().add_launch();
    detail::instr().add_reduction();
  } else if constexpr (std::is_same_v<Exec, Threads>) {
    result = p.space.thread_pool().template parallel_reduce<double>(
        p.begin, p.end, 0.0,
        [&](long lo, long hi) {
          double acc = 0.0;
          for (long i = lo; i < hi; ++i) f(i, acc);
          return acc;
        },
        detail::plus);
    detail::instr().add_launch();
    detail::instr().add_reduction();
  } else {
    static_assert(std::is_same_v<Exec, SimGPU>, "unknown execution space");
    result = device().reduce_sum(name, p.end - p.begin,
                                 [&, b = p.begin](long i) {
                                   double local = 0.0;
                                   f(b + i, local);
                                   return local;
                                 });
  }
}

template <typename Exec, typename F>
void parallel_reduce(const std::string& name, MDRangePolicy2<Exec> p,
                     const F& f, double& result) {
  (void)name;
  if constexpr (std::is_same_v<Exec, Serial>) {
    result = detail::reduce_rows(f, p.begin0, p.end0, p.begin1, p.end1);
    detail::instr().add_launch();
    detail::instr().add_reduction();
  } else if constexpr (std::is_same_v<Exec, Threads>) {
    result = p.space.thread_pool().template parallel_reduce<double>(
        p.begin0, p.end0, 0.0,
        [&](long lo, long hi) {
          return detail::reduce_rows(f, lo, hi, p.begin1, p.end1);
        },
        detail::plus);
    detail::instr().add_launch();
    detail::instr().add_reduction();
  } else {
    static_assert(std::is_same_v<Exec, SimGPU>, "unknown execution space");
    const long n1 = p.end1 - p.begin1;
    const long n0 = p.end0 - p.begin0;
    result = device().reduce_sum(
        name, n1 > 0 && n0 > 0 ? n0 * n1 : 0,
        [&, b0 = p.begin0, b1 = p.begin1](long idx) {
          double local = 0.0;
          f(b0 + idx / n1, b1 + idx % n1, local);
          return local;
        });
  }
}

/// Kokkos::fence() equivalent; synchronous in this implementation.
inline void fence() { device().synchronize(); }

}  // namespace kk
