// forall.hpp — miniraja loop execution: forall<policy> and a 2D nested
// kernel.  Host policies count one kernel launch; the GPU policy delegates to
// simgpu, which counts its own.
//
// Every launch runs its body in chunks: one chunk per static-partition
// thread of the launch's pool (omp_parallel_for_exec), one per thread
// block of the device grid (simgpu_exec), a single chunk under seq_exec.
// Each chunk runs on its own copy of the body, so captured reducers
// accumulate privately and fold in chunk order (see reduce.hpp).  kernel_2d
// hands a chunk whole rows of the inner segment, so loop bodies index with
// plain affine (j, i) and no per-element division.
#pragma once

#include <string>
#include <type_traits>

#include "common/simd.hpp"
#include "machine/instrumentation.hpp"
#include "miniraja/policy.hpp"
#include "miniraja/reduce.hpp"
#include "simgpu/device.hpp"
#include "threading/thread_pool.hpp"

namespace raja {

/// Host resource a kernel_2d runs on (RAJA::resources::Host equivalent): the
/// pool omp_parallel_for_exec work-shares over.  The default resource (null
/// pool) uses tlp::global_pool().  seq_exec ignores it; simgpu_exec launches
/// on the calling thread's simgpu::default_device().
struct Resource {
  tlp::ThreadPool* pool = nullptr;

  tlp::ThreadPool& thread_pool() const {
    return pool != nullptr ? *pool : tlp::global_pool();
  }
};

namespace detail {

inline machine::Instrumentation& instr() {
  return machine::Instrumentation::global();
}

/// Runs `launch(prototype)` with a prototype copy of `body` for a launch of
/// `chunks` chunks; the prototype dies after the launch, which folds the
/// captured reducers' chunk partials (see reduce.hpp).
template <typename Body, typename Launch>
void with_prototype(const Body& body, long chunks, Launch&& launch) {
  const Body prototype = copy_for_chunk(body, kPrototype, chunks);
  launch(prototype);
}

// One chunk of a launch: its own copy of the body, then the loops.  The
// copy is a local of these functions, so a captured reducer's accumulator
// can live in a register.  Compiled once per ISA (TL_TARGET_CLONES) with
// the body inlined into every clone, so host bodies get the same 4-wide
// AVX2 code as the manual kernels, performing the same IEEE operations.

template <typename Body>
TL_TARGET_CLONES void run_range(const Body& prototype, long chunk,
                                long chunks, long lo, long hi) {
  Body body = copy_for_chunk(prototype, chunk, chunks);
  for (long i = lo; i < hi; ++i) body(i);
}

template <typename Body>
TL_TARGET_CLONES void run_rows(const Body& prototype, long chunk, long chunks,
                               long j0, long j1, long i0, long i1) {
  Body body = copy_for_chunk(prototype, chunk, chunks);
  for (long j = j0; j < j1; ++j) {
    for (long i = i0; i < i1; ++i) body(j, i);
  }
}

}  // namespace detail

/// 1D loop `f(i)`; omp_parallel_for_exec work-shares over
/// tlp::global_pool().
template <typename Policy, typename F>
void forall(const RangeSegment& seg, F&& f) {
  using Body = std::decay_t<F>;
  const long b = seg.begin();
  const long e = seg.end();
  if constexpr (std::is_same_v<Policy, seq_exec>) {
    detail::with_prototype<Body>(f, 1, [&](const Body& prototype) {
      detail::run_range(prototype, 0, 1, b, e);
    });
    detail::instr().add_launch();
  } else if constexpr (std::is_same_v<Policy, omp_parallel_for_exec>) {
    tlp::ThreadPool& pool = tlp::global_pool();
    const long chunks = pool.size();
    detail::with_prototype<Body>(f, chunks, [&](const Body& prototype) {
      pool.parallel_for(b, e, [&](int tid, long lo, long hi) {
        detail::run_range(prototype, tid, chunks, lo, hi);
      });
    });
    detail::instr().add_launch();
  } else {
    static_assert(std::is_same_v<Policy, simgpu_exec>, "unknown policy");
    simgpu::Device& dev = simgpu::default_device();
    const long chunks = dev.blocks_1d(seg.size());
    detail::with_prototype<Body>(f, chunks, [&](const Body& prototype) {
      dev.launch_1d_blocks("raja_forall", seg.size(), {},
                           [&](long block, long lo, long hi) {
                             detail::run_range(prototype, block, chunks,
                                               b + lo, b + hi);
                           });
    });
  }
}

/// Nested 2D loop (RAJA::kernel<> with two For statements): `f(j, i)` with
/// the outer segment work-shared / mapped to grid-y and the inner one run
/// contiguously / mapped to grid-x.
template <typename Policy, typename F>
void kernel_2d(const Resource& res, const RangeSegment& outer,
               const RangeSegment& inner, F&& f) {
  using Body = std::decay_t<F>;
  const long ib = inner.begin();
  const long ie = inner.end();
  if constexpr (std::is_same_v<Policy, seq_exec>) {
    detail::with_prototype<Body>(f, 1, [&](const Body& prototype) {
      detail::run_rows(prototype, 0, 1, outer.begin(), outer.end(), ib, ie);
    });
    detail::instr().add_launch();
  } else if constexpr (std::is_same_v<Policy, omp_parallel_for_exec>) {
    tlp::ThreadPool& pool = res.thread_pool();
    const long chunks = pool.size();
    detail::with_prototype<Body>(f, chunks, [&](const Body& prototype) {
      pool.parallel_for(outer.begin(), outer.end(),
                        [&](int tid, long lo, long hi) {
                          detail::run_rows(prototype, tid, chunks, lo, hi, ib,
                                           ie);
                        });
    });
    detail::instr().add_launch();
  } else {
    static_assert(std::is_same_v<Policy, simgpu_exec>, "unknown policy");
    simgpu::Device& dev = simgpu::default_device();
    const int nx = static_cast<int>(inner.size());
    const int ny = static_cast<int>(outer.size());
    const long jb = outer.begin();
    const long chunks = dev.blocks_2d(nx, ny);
    detail::with_prototype<Body>(f, chunks, [&](const Body& prototype) {
      dev.launch_2d_blocks("raja_kernel_2d", nx, ny, {},
                           [&](long block, int x0, int x1, int y0, int y1) {
                             detail::run_rows(prototype, block, chunks,
                                              jb + y0, jb + y1, ib + x0,
                                              ib + x1);
                           });
    });
  }
}

template <typename Policy, typename F>
void kernel_2d(const RangeSegment& outer, const RangeSegment& inner, F&& f) {
  kernel_2d<Policy>(Resource{}, outer, inner, std::forward<F>(f));
}

}  // namespace raja
