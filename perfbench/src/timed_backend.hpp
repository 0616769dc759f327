// timed_backend.hpp — a timing decorator over tea::Backend for the traced
// run.
//
// Every kernel call is forwarded to the wrapped backend, timed on the steady
// clock, charged with the instrumentation counter delta over the call, and
// recorded as a span under the current solve.  The decorator forwards the
// fused and split-phase entry points (apply_operator_dot, exchange_*) to the
// wrapped backend's own overrides, and pushes the non-virtual per-step state
// (set_rx_ry, set_fused_operator_dot) into it before each call: without
// that the base-class defaults would run the unfused pairs, and the traced
// run would measure a different program.  Its counters therefore equal the
// untraced run's exactly.
//
// The wrapped backends call their own kernels internally (a fused exchange
// runs its halo refresh inside), so every span is a leaf and a call's self
// time is its whole duration.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/backend.hpp"
#include "trace.hpp"

namespace perfbench {

/// Kernel classes of the per-layer metrics.
enum class KernelClass : int {
  kStencil = 0,  // apply_operator, compute_residual, jacobi_iterate, and
                 // their exchange_* forms
  kOpDot,        // apply_operator_dot, exchange_apply_operator_dot
  kDot,          // dot
  kHalo,         // update_halo
  kVector,       // every other kernel
  kCount,
};
inline constexpr int kNumKernelClasses = static_cast<int>(KernelClass::kCount);
const char* class_name(KernelClass c);

struct KernelTally {
  std::array<double, kNumKernelClasses> self_s{};
  std::array<std::int64_t, kNumKernelClasses> bytes{};
  std::array<long, kNumKernelClasses> calls{};

  KernelTally& operator+=(const KernelTally& o);
};

class TimedBackend final : public tea::Backend {
 public:
  /// `spans` may be null (tally only).  `parent` is the solve span's id and
  /// `solve_id` the group every kernel span is recorded under.
  TimedBackend(std::unique_ptr<tea::Backend> inner, SpanRecorder* spans,
               int parent, long solve_id);

  const KernelTally& tally() const { return tally_; }
  /// Sum of density * energy0 * cell volume over the fields read back right
  /// after setup (the initial total energy, computed by the benchmark).
  double initial_energy() const { return initial_energy_; }

  std::string id() const override { return inner_->id(); }
  void setup(const tl::ProblemConfig& cfg) override;
  void compute_coefficients(tl::CoefficientKind kind) override;
  void init_u_u0() override;
  void apply_operator(tea::FieldId in, tea::FieldId out) override;
  double apply_operator_dot(tea::FieldId in, tea::FieldId out) override;
  void compute_residual() override;
  void exchange_apply_operator(tea::FieldId in, tea::FieldId out) override;
  double exchange_apply_operator_dot(tea::FieldId in,
                                     tea::FieldId out) override;
  void exchange_compute_residual() override;
  double exchange_jacobi_iterate() override;
  void copy_field(tea::FieldId src, tea::FieldId dst) override;
  void scale_copy(tea::FieldId dst, tea::FieldId src, double s) override;
  double dot(tea::FieldId a, tea::FieldId b) override;
  void axpy(tea::FieldId y, double a, tea::FieldId x) override;
  void zaxpy(tea::FieldId p, double beta, tea::FieldId z) override;
  void precondition(tea::FieldId dst, tea::FieldId src) override;
  void smooth_update(tea::FieldId acc, tea::FieldId res, tea::FieldId w,
                     tea::FieldId sd, double alpha, double beta) override;
  double jacobi_iterate() override;
  tea::FieldSummary field_summary() override;
  void update_halo(std::initializer_list<tea::FieldId> fields,
                   int depth) override;
  void finalise() override;
  std::int64_t working_set_bytes() const override {
    return inner_->working_set_bytes();
  }
  bool counts_globally() const override { return inner_->counts_globally(); }
  void counter_fence(tea::CounterFence phase) override {
    inner_->counter_fence(phase);
  }
  LocalExtent local_extent() const override { return inner_->local_extent(); }
  void read_field(tea::FieldId f, tl::span<double> out) override {
    inner_->read_field(f, out);
  }

 private:
  template <typename Call>
  auto timed(const char* name, KernelClass kind, Call&& call);

  std::unique_ptr<tea::Backend> inner_;
  SpanRecorder* spans_;
  int parent_;
  long solve_id_;
  KernelTally tally_;
  double initial_energy_ = 0.0;
};

}  // namespace perfbench
