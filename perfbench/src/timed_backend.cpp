#include "timed_backend.hpp"

#include <type_traits>
#include <vector>

#include "machine/instrumentation.hpp"
#include "perfbench.hpp"

namespace perfbench {

using tea::FieldId;

const char* class_name(KernelClass c) {
  switch (c) {
    case KernelClass::kStencil: return "stencil";
    case KernelClass::kOpDot: return "opdot";
    case KernelClass::kDot: return "dot";
    case KernelClass::kHalo: return "halo";
    case KernelClass::kVector: return "vector";
    case KernelClass::kCount: break;
  }
  return "?";
}

KernelTally& KernelTally::operator+=(const KernelTally& o) {
  for (int c = 0; c < kNumKernelClasses; ++c) {
    self_s[c] += o.self_s[c];
    bytes[c] += o.bytes[c];
    calls[c] += o.calls[c];
  }
  return *this;
}

TimedBackend::TimedBackend(std::unique_ptr<tea::Backend> inner,
                           SpanRecorder* spans, int parent, long solve_id)
    : inner_(std::move(inner)),
      spans_(spans),
      parent_(parent),
      solve_id_(solve_id) {}

template <typename Call>
auto TimedBackend::timed(const char* name, KernelClass kind, Call&& call) {
  // TeaDriver sets rx/ry and the fusion flag on this object; the wrapped
  // backend reads its own copies, so push them before every call.
  inner_->set_rx_ry(rx(), ry());
  inner_->set_fused_operator_dot(fused_operator_dot());
  const machine::CounterScope counters;
  const std::int64_t start = spans_ != nullptr ? spans_->now_ns() : 0;
  const double t0 = now_seconds();
  auto finish = [&] {
    const double seconds = now_seconds() - t0;
    const int c = static_cast<int>(kind);
    tally_.self_s[c] += seconds;
    tally_.bytes[c] += counters.delta().total_bytes();
    ++tally_.calls[c];
    if (spans_ != nullptr) {
      spans_->record(spans_->reserve_id(), name, class_name(kind), start,
                     spans_->now_ns(), parent_, solve_id_);
    }
  };
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    finish();
  } else {
    auto value = call();
    finish();
    return value;
  }
}

void TimedBackend::setup(const tl::ProblemConfig& cfg) {
  inner_->setup(cfg);
  const LocalExtent extent = inner_->local_extent();
  const std::size_t cells =
      static_cast<std::size_t>(extent.nx) * static_cast<std::size_t>(extent.ny);
  std::vector<double> density(cells), energy(cells);
  inner_->read_field(FieldId::kDensity, density);
  inner_->read_field(FieldId::kEnergy0, energy);
  long double sum = 0.0L;
  for (std::size_t i = 0; i < cells; ++i) {
    sum += static_cast<long double>(density[i]) * energy[i];
  }
  initial_energy_ = static_cast<double>(sum) * cfg.dx() * cfg.dy();
}

void TimedBackend::compute_coefficients(tl::CoefficientKind kind) {
  timed("compute_coefficients", KernelClass::kVector,
        [&] { inner_->compute_coefficients(kind); });
}

void TimedBackend::init_u_u0() {
  timed("init_u_u0", KernelClass::kVector, [&] { inner_->init_u_u0(); });
}

void TimedBackend::apply_operator(FieldId in, FieldId out) {
  timed("apply_operator", KernelClass::kStencil,
        [&] { inner_->apply_operator(in, out); });
}

double TimedBackend::apply_operator_dot(FieldId in, FieldId out) {
  return timed("apply_operator_dot", KernelClass::kOpDot,
               [&] { return inner_->apply_operator_dot(in, out); });
}

void TimedBackend::compute_residual() {
  timed("compute_residual", KernelClass::kStencil,
        [&] { inner_->compute_residual(); });
}

void TimedBackend::exchange_apply_operator(FieldId in, FieldId out) {
  timed("exchange_apply_operator", KernelClass::kStencil,
        [&] { inner_->exchange_apply_operator(in, out); });
}

double TimedBackend::exchange_apply_operator_dot(FieldId in, FieldId out) {
  return timed("exchange_apply_operator_dot", KernelClass::kOpDot,
               [&] { return inner_->exchange_apply_operator_dot(in, out); });
}

void TimedBackend::exchange_compute_residual() {
  timed("exchange_compute_residual", KernelClass::kStencil,
        [&] { inner_->exchange_compute_residual(); });
}

double TimedBackend::exchange_jacobi_iterate() {
  return timed("exchange_jacobi_iterate", KernelClass::kStencil,
               [&] { return inner_->exchange_jacobi_iterate(); });
}

void TimedBackend::copy_field(FieldId src, FieldId dst) {
  timed("copy_field", KernelClass::kVector,
        [&] { inner_->copy_field(src, dst); });
}

void TimedBackend::scale_copy(FieldId dst, FieldId src, double s) {
  timed("scale_copy", KernelClass::kVector,
        [&] { inner_->scale_copy(dst, src, s); });
}

double TimedBackend::dot(FieldId a, FieldId b) {
  return timed("dot", KernelClass::kDot, [&] { return inner_->dot(a, b); });
}

void TimedBackend::axpy(FieldId y, double a, FieldId x) {
  timed("axpy", KernelClass::kVector, [&] { inner_->axpy(y, a, x); });
}

void TimedBackend::zaxpy(FieldId p, double beta, FieldId z) {
  timed("zaxpy", KernelClass::kVector, [&] { inner_->zaxpy(p, beta, z); });
}

void TimedBackend::precondition(FieldId dst, FieldId src) {
  timed("precondition", KernelClass::kVector,
        [&] { inner_->precondition(dst, src); });
}

void TimedBackend::smooth_update(FieldId acc, FieldId res, FieldId w,
                                 FieldId sd, double alpha, double beta) {
  timed("smooth_update", KernelClass::kVector,
        [&] { inner_->smooth_update(acc, res, w, sd, alpha, beta); });
}

double TimedBackend::jacobi_iterate() {
  return timed("jacobi_iterate", KernelClass::kStencil,
               [&] { return inner_->jacobi_iterate(); });
}

tea::FieldSummary TimedBackend::field_summary() {
  return timed("field_summary", KernelClass::kVector,
               [&] { return inner_->field_summary(); });
}

void TimedBackend::update_halo(std::initializer_list<FieldId> fields,
                               int depth) {
  timed("update_halo", KernelClass::kHalo,
        [&] { inner_->update_halo(fields, depth); });
}

void TimedBackend::finalise() {
  timed("finalise", KernelClass::kVector, [&] { inner_->finalise(); });
}

}  // namespace perfbench
