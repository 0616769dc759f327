// args.hpp — par_loop argument descriptors and the accessor objects handed to
// user kernels (OPS' ops_arg_dat / ops_arg_gbl / ACC<double> equivalents).
#pragma once

#include <limits>
#include <vector>

#include "minimpi/types.hpp"
#include "miniops/dat.hpp"
#include "miniops/range.hpp"
#include "miniops/stencil.hpp"

namespace ops {

using ReduceOp = minimpi::ReduceOp;

/// Field argument: which Dat, how it is accessed, through which stencil.
struct ArgDat {
  Dat* dat;
  AccessMode mode;
  const Stencil* stencil;
};

inline ArgDat arg_dat(Dat& d, AccessMode mode,
                      const Stencil& s = Stencil::point()) {
  return ArgDat{&d, mode, &s};
}

/// Accessor bound to the loop's current point: `acc(di, dj)` addresses the
/// cell offset by (di, dj), like OPS' ACC<double> operator().
class Acc {
public:
  Acc(double* at_point, int row_stride)
      : p_(at_point), stride_(row_stride) {}

  double& operator()(int di, int dj) const {
    return p_[static_cast<std::ptrdiff_t>(dj) * stride_ + di];
  }

private:
  double* p_;
  int stride_;
};

/// Reduction scratch for one global argument: one partial per chunk of the
/// loop (a static-partition thread's rows on the host, a thread block on the
/// device).  The executor binds a stack-local accumulator per chunk, hands
/// it over once with accumulate(), and the partials are folded in chunk
/// order, so the result depends on the loop's chunking but never on which
/// OS thread ran a chunk.  The Context then allreduces it across ranks.
class GblScratch {
public:
  explicit GblScratch(ReduceOp op) : op_(op) {}

  /// Size for a loop of `chunks` chunks, every partial at the identity.
  void begin(long chunks) {
    partials_.assign(static_cast<std::size_t>(chunks), identity_of(op_));
  }

  /// Fold chunk `chunk`'s partial in; each chunk has its own slot.
  void accumulate(long chunk, double value) {
    double& p = partials_[static_cast<std::size_t>(chunk)];
    p = minimpi::apply(op_, p, value);
  }

  double combined() const {
    double acc = identity_of(op_);
    for (const double p : partials_) acc = minimpi::apply(op_, acc, p);
    return acc;
  }

  ReduceOp op() const { return op_; }

  static double identity_of(ReduceOp op) {
    switch (op) {
      case ReduceOp::kSum: return 0.0;
      case ReduceOp::kProd: return 1.0;
      case ReduceOp::kMin: return std::numeric_limits<double>::infinity();
      case ReduceOp::kMax: return -std::numeric_limits<double>::infinity();
    }
    return 0.0;
  }

private:
  ReduceOp op_;
  std::vector<double> partials_;
};

/// Global-reduction argument: result lands in `*target` once the loop (and
/// any cross-rank combine) completes.
struct ArgGbl {
  double* target;
  ReduceOp op;
};

inline ArgGbl arg_gbl(double& target, ReduceOp op = ReduceOp::kSum) {
  return ArgGbl{&target, op};
}

}  // namespace ops
