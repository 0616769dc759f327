// thread_id.hpp — process-unique small integer id per OS thread, handed
// out first come, first served.  Because that order varies from run to run,
// nothing that folds partial results may key them by this id: reductions
// index their partials by the loop's region tid or chunk instead.
#pragma once

#include <atomic>

namespace tlp {

/// Upper bound on concurrently-live thread ids; slot-indexed structures size
/// themselves with this.
inline constexpr int kMaxThreadIds = 512;

/// A stable id in [0, kMaxThreadIds) for the calling thread, assigned on
/// first use.  Wraps around (re-uses slots) only past kMaxThreadIds distinct
/// threads, which a single-node run never reaches.
inline int current_thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id =
      next.fetch_add(1, std::memory_order_relaxed) % kMaxThreadIds;
  return id;
}

}  // namespace tlp
