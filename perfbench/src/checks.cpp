#include "checks.hpp"

#include <cfloat>
#include <cmath>
#include <sstream>

#include "core/problem.hpp"

namespace perfbench {

namespace {

constexpr double kEps = DBL_EPSILON;

double conduction(double density, tl::CoefficientKind kind) {
  return kind == tl::CoefficientKind::kRecipDensity ? 1.0 / density : density;
}

/// Face coefficient between two cells (TeaLeaf's mean of the two cell
/// coefficients' reciprocals).
double face(double wa, double wb) { return (wa + wb) / (2.0 * wa * wb); }

struct OperatorApply {
  double rr = 0.0;     // ||u0 - A u||^2
  double a_inf = 0.0;  // max_i sum_j |A_ij|
};

OperatorApply apply(const tl::ProblemConfig& cfg,
                    const std::vector<double>& density,
                    const std::vector<double>& u,
                    const std::vector<double>& u0) {
  const int nx = cfg.x_cells;
  const int ny = cfg.y_cells;
  const double dt = cfg.initial_timestep;
  const double rx = dt / (cfg.dx() * cfg.dx());
  const double ry = dt / (cfg.dy() * cfg.dy());
  auto at = [nx](int i, int j) {
    return static_cast<std::size_t>(j) * static_cast<std::size_t>(nx) +
           static_cast<std::size_t>(i);
  };
  auto w = [&](int i, int j) {
    return conduction(density[at(i, j)], cfg.coefficient);
  };
  OperatorApply out;
  long double rr = 0.0L;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double wc = w(i, j);
      const double uc = u[at(i, j)];
      // Zero-flux boundaries: faces on the mesh edge carry nothing.
      const double kw = i > 0 ? rx * face(w(i - 1, j), wc) : 0.0;
      const double ke = i + 1 < nx ? rx * face(wc, w(i + 1, j)) : 0.0;
      const double ks = j > 0 ? ry * face(w(i, j - 1), wc) : 0.0;
      const double kn = j + 1 < ny ? ry * face(wc, w(i, j + 1)) : 0.0;
      double au = (1.0 + kw + ke + ks + kn) * uc;
      if (i > 0) au -= kw * u[at(i - 1, j)];
      if (i + 1 < nx) au -= ke * u[at(i + 1, j)];
      if (j > 0) au -= ks * u[at(i, j - 1)];
      if (j + 1 < ny) au -= kn * u[at(i, j + 1)];
      const double r = u0[at(i, j)] - au;
      rr += static_cast<long double>(r) * r;
      const double row = 1.0 + 2.0 * (kw + ke + ks + kn);
      if (row > out.a_inf) out.a_inf = row;
    }
  }
  out.rr = static_cast<double>(rr);
  return out;
}

double norm2(const std::vector<double>& v) {
  long double s = 0.0L;
  for (double x : v) s += static_cast<long double>(x) * x;
  return std::sqrt(static_cast<double>(s));
}

/// |a - b| within a relative tolerance of b (and an absolute floor).
bool close(double a, double b, double rel, double abs_floor = 0.0) {
  return std::fabs(a - b) <= rel * std::fabs(b) + abs_floor;
}

std::string fmt(const char* what, double got, double want, double tol) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": got " << got << ", expected " << want << " within "
      << tol;
  return out.str();
}

/// Summation rounding allowance for an N-term sum of magnitude `total`.
double sum_rounding(const Reference& ref, double total) {
  return 8.0 * static_cast<double>(ref.cells) * kEps * std::fabs(total);
}

}  // namespace

Reference make_reference(const tl::ProblemConfig& cfg) {
  const tea::StateSampler sampler(cfg);
  const std::size_t n = static_cast<std::size_t>(cfg.x_cells) *
                        static_cast<std::size_t>(cfg.y_cells);
  std::vector<double> density(n), u0(n);
  long double energy = 0.0L, mass = 0.0L;
  for (int j = 0; j < cfg.y_cells; ++j) {
    for (int i = 0; i < cfg.x_cells; ++i) {
      const std::size_t k = static_cast<std::size_t>(j) *
                                static_cast<std::size_t>(cfg.x_cells) +
                            static_cast<std::size_t>(i);
      density[k] = sampler.density_at(i, j);
      u0[k] = density[k] * sampler.energy_at(i, j);
      energy += u0[k];
      mass += density[k];
    }
  }
  Reference ref;
  ref.cells = static_cast<long>(n);
  ref.cell_volume = sampler.cell_volume();
  ref.energy = static_cast<double>(energy) * ref.cell_volume;
  ref.mass = static_cast<double>(mass) * ref.cell_volume;
  const OperatorApply first = apply(cfg, density, u0, u0);
  ref.rr0 = first.rr;
  ref.a_inf = first.a_inf;
  ref.u0_norm = norm2(u0);
  return ref;
}

Fields read_fields(tea::Backend& backend) {
  const tea::Backend::LocalExtent extent = backend.local_extent();
  const std::size_t n =
      static_cast<std::size_t>(extent.nx) * static_cast<std::size_t>(extent.ny);
  Fields f;
  f.density.resize(n);
  f.energy.resize(n);
  f.u.resize(n);
  f.u0.resize(n);
  backend.read_field(tea::FieldId::kDensity, f.density);
  backend.read_field(tea::FieldId::kEnergy0, f.energy);
  backend.read_field(tea::FieldId::kU, f.u);
  backend.read_field(tea::FieldId::kU0, f.u0);
  return f;
}

double residual_norm2(const tl::ProblemConfig& cfg,
                      const std::vector<double>& density,
                      const std::vector<double>& u,
                      const std::vector<double>& u0) {
  return apply(cfg, density, u, u0).rr;
}

double energy_band(const tl::ProblemConfig& cfg, const Reference& ref,
                   int steps, long iterations) {
  // Per step: vol * |sum r| <= vol * sqrt(N) * ||r||, with ||r|| at most
  // sqrt(eps * rr0) (rr0 of later steps does not exceed the first's: the
  // implicit step contracts ||(A - I) u||), doubled for slack, plus the
  // rounding drift between the solver's recurrence and the true residual.
  const double n = static_cast<double>(ref.cells);
  const double eps_term = 2.0 * std::sqrt(cfg.eps * ref.rr0);
  const double drift = 16.0 * kEps * static_cast<double>(iterations + steps) *
                       ref.a_inf * ref.u0_norm;
  return static_cast<double>(steps) *
             (ref.cell_volume * std::sqrt(n) * eps_term) +
         ref.cell_volume * std::sqrt(n) * drift +
         static_cast<double>(steps + 1) * sum_rounding(ref, ref.energy);
}

std::string check_run(const tl::ProblemConfig& cfg, const Reference& ref,
                      const tea::RunResult& run) {
  if (static_cast<int>(run.steps.size()) != cfg.end_step) {
    return run.backend_id + ": ran " + std::to_string(run.steps.size()) +
           " of " + std::to_string(cfg.end_step) + " steps";
  }
  long iterations = 0;
  for (const tea::StepResult& step : run.steps) {
    const std::string where =
        run.backend_id + " step " + std::to_string(step.step);
    if (!step.solve.converged) return where + ": not converged";
    if (!(step.solve.final_rr <= cfg.eps * step.solve.initial_rr)) {
      return fmt((where + ": final_rr").c_str(), step.solve.final_rr,
                 cfg.eps * step.solve.initial_rr, 0.0);
    }
    iterations += step.solve.iterations;
    const double band = energy_band(cfg, ref, step.step, iterations);
    if (!close(step.summary.ie, ref.energy, 0.0, band)) {
      return fmt((where + ": internal energy").c_str(), step.summary.ie,
                 ref.energy, band);
    }
    const double mass_tol = 2.0 * sum_rounding(ref, ref.mass);
    if (!close(step.summary.mass, ref.mass, 0.0, mass_tol)) {
      return fmt((where + ": mass").c_str(), step.summary.mass, ref.mass,
                 mass_tol);
    }
  }
  const double rr0 = run.steps.front().solve.initial_rr;
  if (!close(rr0, ref.rr0, 1e-8, 1e-300)) {
    return fmt((run.backend_id + ": first-step rr0").c_str(), rr0, ref.rr0,
               1e-8 * ref.rr0);
  }
  return "";
}

std::string check_fields(const tl::ProblemConfig& cfg, const Reference& ref,
                         const Fields& fields, const tea::RunResult& run,
                         double initial_energy) {
  const std::string id = run.backend_id;
  if (run.steps.empty()) return id + ": no steps";
  const std::size_t n = static_cast<std::size_t>(ref.cells);
  if (fields.u.size() != n || fields.u0.size() != n ||
      fields.density.size() != n || fields.energy.size() != n) {
    return id + ": field read-back has the wrong size";
  }
  const double paint_tol = 2.0 * sum_rounding(ref, ref.energy);
  if (!close(initial_energy, ref.energy, 0.0, paint_tol)) {
    return fmt((id + ": painted initial energy").c_str(), initial_energy,
               ref.energy, paint_tol);
  }
  // The last step's residual, recomputed: u0 and u are still that step's.
  const tea::SolveStats& last = run.steps.back().solve;
  const double rr = residual_norm2(cfg, fields.density, fields.u, fields.u0);
  const double drift = 16.0 * kEps * static_cast<double>(last.iterations + 1) *
                       ref.a_inf * ref.u0_norm;
  const double allowed = std::sqrt(cfg.eps * last.initial_rr) + drift;
  if (!(std::sqrt(rr) <= allowed)) {
    return fmt((id + ": recomputed final residual norm").c_str(),
               std::sqrt(rr), 0.0, allowed);
  }
  long double total = 0.0L;
  for (std::size_t k = 0; k < n; ++k) {
    total += static_cast<long double>(fields.density[k]) * fields.energy[k];
  }
  const double energy = static_cast<double>(total) * ref.cell_volume;
  const double band = energy_band(cfg, ref, cfg.end_step, run.total_iterations);
  if (!close(energy, initial_energy, 0.0, band)) {
    return fmt((id + ": recomputed total energy").c_str(), energy,
               initial_energy, band);
  }
  return "";
}

std::string check_response(const tl::ProblemConfig& cfg, const Reference& ref,
                           const service::SolveResponse& response) {
  const std::string where = "response " + response.label;
  if (!response.ok()) return where + ": error " + response.error;
  if (!response.converged) return where + ": not converged";
  if (!(response.final_rr <= cfg.eps * response.initial_rr)) {
    return fmt((where + ": final_rr").c_str(), response.final_rr,
               cfg.eps * response.initial_rr, 0.0);
  }
  if (!close(response.initial_rr, ref.rr0, 1e-8, 1e-300)) {
    return fmt((where + ": first-step rr0").c_str(), response.initial_rr,
               ref.rr0, 1e-8 * ref.rr0);
  }
  const double band =
      energy_band(cfg, ref, cfg.end_step, response.iterations);
  if (!close(response.final_temperature, ref.energy, 0.0, band)) {
    return fmt((where + ": final temperature").c_str(),
               response.final_temperature, ref.energy, band);
  }
  return "";
}

std::string check_counters_equal(const machine::Counters& traced,
                                 const machine::Counters& untraced) {
  if (traced.to_string() == untraced.to_string()) return "";
  return "traced counters differ: " + traced.to_string() + " vs untraced " +
         untraced.to_string();
}

}  // namespace perfbench
