// par_loop.hpp — the templated miniops front-end (ops_par_loop equivalent).
//
//   ops::par_loop(ctx, "advance", range, /*flops_per_cell=*/3,
//                 [](ops::Acc u, ops::Acc w) { w(0,0) = 0.5 * u(1,0); },
//                 ops::arg_dat(u_dat, ops::AccessMode::kRead, Stencil::star5()),
//                 ops::arg_dat(w_dat, ops::AccessMode::kWrite));
//
// Kernel parameters correspond positionally to the trailing argument
// descriptors: ArgDat -> ops::Acc bound to the current point, ArgGbl ->
// double& (the running chunk's accumulator; the final combined/allreduced
// value lands in the ArgGbl's target after the call).
#pragma once

#include <memory>
#include <tuple>

#include "common/error.hpp"
#include "miniops/context.hpp"

namespace ops {

namespace detail {

// --- chunk execution ------------------------------------------------------------
//
// The executor binds arguments once per chunk, not once per element: a dat
// becomes its origin pointer (host or device memory, as the context runs),
// and a reduction argument becomes a stack-local accumulator (GblBand) that
// the kernel updates through a plain double&, handed to the scratch's slot
// for this chunk afterwards.  This keeps the shared partials array out of
// the inner loop, so a dot-product par_loop runs at the speed of the
// underlying row reduction, on the host and on the device alike.

struct DatBand {
  double* origin;
  int stride;
};

struct GblBand {
  GblScratch* scratch;
  double local;
};

inline DatBand bind_band(const ArgDat& a, bool on_device) {
  return DatBand{on_device ? a.dat->device_origin() : a.dat->origin(),
                 a.dat->row_stride()};
}
inline GblBand bind_band(const std::shared_ptr<GblScratch>& g, bool) {
  return GblBand{g.get(), GblScratch::identity_of(g->op())};
}

inline Acc band_deref(DatBand& b, int i, int j) {
  return Acc(b.origin + static_cast<std::ptrdiff_t>(j) * b.stride + i,
             b.stride);
}
inline double& band_deref(GblBand& g, int /*i*/, int /*j*/) { return g.local; }

inline void band_flush(DatBand&, long) {}
inline void band_flush(GblBand& g, long chunk) {
  g.scratch->accumulate(chunk, g.local);
}

// Argument classification helpers.
inline void collect(LoopRecord& rec, const ArgDat& a) {
  rec.dats.push_back(LoopRecord::DatUse{a.dat, a.mode, a.stencil->ylo(),
                                        a.stencil->yhi(), a.stencil->xlo(),
                                        a.stencil->xhi()});
}
inline void collect(LoopRecord&, const ArgGbl&) {}

/// Normalize an argument for closure capture: ArgGbl becomes a shared
/// scratch, registered with the loop record; ArgDat passes through.
struct NormalizedGbl {
  std::shared_ptr<GblScratch> scratch;
  double* target;
  ReduceOp op;
};

inline const ArgDat& normalize(const ArgDat& a, LoopRecord&,
                               std::vector<NormalizedGbl>&) {
  return a;
}
inline std::shared_ptr<GblScratch> normalize(const ArgGbl& g, LoopRecord& rec,
                                             std::vector<NormalizedGbl>& gbls) {
  auto scratch = std::make_shared<GblScratch>(g.op);
  rec.reductions.push_back(scratch.get());
  gbls.push_back(NormalizedGbl{scratch, g.target, g.op});
  return scratch;
}

inline const Dat* first_dat() { return nullptr; }
template <typename... Rest>
const Dat* first_dat(const ArgDat& a, const Rest&...) {
  return a.dat;
}
template <typename A0, typename... Rest>
const Dat* first_dat(const A0&, const Rest&... rest) {
  return first_dat(rest...);
}

}  // namespace detail

template <typename Kernel, typename... Args>
void par_loop(Context& ctx, const std::string& name, const Range& global_range,
              int flops_per_cell, Kernel kernel, Args... args) {
  const Dat* anchor = detail::first_dat(args...);
  TL_REQUIRE(anchor != nullptr, "par_loop needs at least one dat argument");

  LoopRecord rec;
  rec.name = name;
  rec.flops_per_cell = flops_per_cell;
  rec.local_range = ctx.clip_to_local(global_range, *anchor);
  (detail::collect(rec, args), ...);

  std::vector<detail::NormalizedGbl> gbls;
  auto binders_src = std::make_tuple(detail::normalize(args, rec, gbls)...);

  rec.exec = [kernel, binders = std::move(binders_src),
              on_device = ctx.is_device()](long chunk, int x0, int x1, int y0,
                                           int y1) {
    std::apply(
        [&](const auto&... b) {
          auto band = std::make_tuple(detail::bind_band(b, on_device)...);
          std::apply(
              [&](auto&... bb) {
                for (int j = y0; j < y1; ++j) {
                  for (int i = x0; i < x1; ++i) {
                    kernel(detail::band_deref(bb, i, j)...);
                  }
                }
                (detail::band_flush(bb, chunk), ...);
              },
              band);
        },
        binders);
  };

  ctx.execute(std::move(rec));

  for (const detail::NormalizedGbl& g : gbls) {
    *g.target = ctx.finish_reduction(g.scratch->combined(), g.op);
  }
}

/// Overload with a default flop estimate (5 flops/cell, typical of TeaLeaf's
/// pointwise kernels).
template <typename Kernel, typename... Args>
void par_loop(Context& ctx, const std::string& name, const Range& global_range,
              Kernel kernel, Args... args) {
  par_loop(ctx, name, global_range, 5, std::move(kernel), args...);
}

}  // namespace ops
