// checks.hpp — output checks built on properties of the method and on
// quantities the benchmark computes itself, never on stored copies of
// earlier output.
//
// The properties: the 5-point operator with zero-flux boundaries conserves
// the sum of u, so each implicit step can only change the total energy by
// the sum of its final residual, |sum r| <= sqrt(N) ||r||, and a solve that
// met the eps rule has ||r||^2 <= eps * rr0.  The benchmark computes the
// initial energy, the mass and the first step's rr0 from the deck with its
// own operator, so the bands are derived from the deck's eps and nothing
// the program reports can widen them.  Every check returns "" when it
// passes and a one-line reason when it fails.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/backend.hpp"
#include "core/driver.hpp"
#include "machine/instrumentation.hpp"
#include "service/service.hpp"

namespace perfbench {

/// What the benchmark computes from the deck alone.
struct Reference {
  long cells = 0;
  double cell_volume = 0.0;
  double energy = 0.0;   // sum of density * energy * volume, initial state
  double mass = 0.0;     // sum of density * volume
  double rr0 = 0.0;      // ||u0 - A u0||^2 of the first step
  double a_inf = 0.0;    // max row sum of |A|
  double u0_norm = 0.0;  // ||u0||_2 of the first step
};

Reference make_reference(const tl::ProblemConfig& cfg);

/// Interior fields in row-major order (x fastest), as read_field gives them.
struct Fields {
  std::vector<double> density;
  std::vector<double> energy;  // energy0 after the run: the committed state
  std::vector<double> u;
  std::vector<double> u0;
};

/// Read the final fields back through Backend::read_field.
Fields read_fields(tea::Backend& backend);

/// ||u0 - A u||^2 with the benchmark's own operator for `cfg`'s step.
double residual_norm2(const tl::ProblemConfig& cfg,
                      const std::vector<double>& density,
                      const std::vector<double>& u,
                      const std::vector<double>& u0);

/// Largest change of total energy `steps` implicit steps may make when each
/// solve meets the eps rule; `iterations` bounds the rounding drift.
double energy_band(const tl::ProblemConfig& cfg, const Reference& ref,
                   int steps, long iterations);

/// A driver result: every step converged under the eps rule, the first
/// step's rr0 matches the benchmark's, and the summaries conserve energy
/// and mass.
std::string check_run(const tl::ProblemConfig& cfg, const Reference& ref,
                      const tea::RunResult& run);

/// Fields read back after a traced solve: the painted initial energy, the
/// final residual recomputed with the benchmark's operator against the eps
/// rule, and the final total energy against the initial one.
std::string check_fields(const tl::ProblemConfig& cfg, const Reference& ref,
                         const Fields& fields, const tea::RunResult& run,
                         double initial_energy);

/// A service response: ok, converged, final_rr <= eps * initial_rr, the
/// first step's rr0 matches, final temperature within the energy band.
std::string check_response(const tl::ProblemConfig& cfg, const Reference& ref,
                           const service::SolveResponse& response);

/// Exact equality of two counter sets.
std::string check_counters_equal(const machine::Counters& traced,
                                 const machine::Counters& untraced);

}  // namespace perfbench
