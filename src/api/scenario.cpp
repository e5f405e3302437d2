///
/// \file scenario.cpp
/// \brief Built-in scenarios and make_scenario(), the fixed lookup over
/// them.
///

#include "api/scenario.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "dist/domain_mask.hpp"
#include "dist/tiling.hpp"
#include "model/crack.hpp"
#include "support/assert.hpp"

namespace nlh::api {

// ------------------------------------------------------- scenario defaults --

void scenario::fill_aux(const scenario_context&, double, const nonlocal::dp_rect&,
                        std::vector<double>&) const {}

void scenario::source_into(const scenario_context& ctx, double,
                           const std::vector<double>&, const nonlocal::dp_rect& rect,
                           std::vector<double>& out) const {
  const auto& g = *ctx.grid;
  for (int i = rect.row_begin; i < rect.row_end; ++i)
    for (int j = rect.col_begin; j < rect.col_end; ++j) out[g.flat(i, j)] = 0.0;
}

double scenario::exact(double, double, double) const {
  NLH_ASSERT_MSG(false, "scenario::exact called on a scenario without an exact "
                        "solution (check has_exact() first)");
  return 0.0;
}

std::vector<char> scenario::sd_mask(int, int) const { return {}; }

std::vector<double> scenario::sd_work(int, int) const { return {}; }

// --------------------------------------------------------------- built-ins --

std::shared_ptr<const scenario> make_scenario(const std::string& name) {
  if (name == "crack") return std::make_shared<const crack_scenario>();
  if (name == "gaussian_pulse") return std::make_shared<const gaussian_pulse_scenario>();
  if (name == "lshape") return std::make_shared<const lshape_scenario>();
  if (name == "manufactured") return std::make_shared<const manufactured_scenario>();
  std::ostringstream msg;
  msg << "unknown scenario '" << name << "'; built-in scenarios:";
  for (const auto& key : scenario_names()) msg << " " << key;
  throw std::invalid_argument(msg.str());
}

std::vector<std::string> scenario_names() {
  return {"crack", "gaussian_pulse", "lshape", "manufactured"};
}

// ----------------------------------------------------------- manufactured --

namespace {
constexpr double two_pi = 2.0 * 3.14159265358979323846;
}

double manufactured_scenario::w(double t, double x1, double x2) {
  if (x1 < 0.0 || x1 > 1.0 || x2 < 0.0 || x2 > 1.0) return 0.0;
  return std::cos(two_pi * t) * std::sin(two_pi * x1) * std::sin(two_pi * x2);
}

double manufactured_scenario::dwdt(double t, double x1, double x2) {
  if (x1 < 0.0 || x1 > 1.0 || x2 < 0.0 || x2 > 1.0) return 0.0;
  return -two_pi * std::sin(two_pi * t) * std::sin(two_pi * x1) * std::sin(two_pi * x2);
}

double manufactured_scenario::u0(double x1, double x2) { return w(0.0, x1, x2); }

double manufactured_scenario::initial(double x1, double x2) const { return u0(x1, x2); }

void manufactured_scenario::fill_aux(const scenario_context& ctx, double t,
                                     const nonlocal::dp_rect& rect,
                                     std::vector<double>& aux) const {
  const auto& g = *ctx.grid;
  for (int i = rect.row_begin; i < rect.row_end; ++i)
    for (int j = rect.col_begin; j < rect.col_end; ++j)
      aux[g.flat(i, j)] = w(t, g.x(j), g.y(i));
}

void manufactured_scenario::source_into(const scenario_context& ctx, double t,
                                        const std::vector<double>& aux,
                                        const nonlocal::dp_rect& rect,
                                        std::vector<double>& out) const {
  const auto& g = *ctx.grid;
  NLH_ASSERT(aux.size() == g.total() && out.size() == g.total());
  // out <- L_h[w] over rect, then b = dw/dt - out.
  nonlocal::apply_nonlocal_operator(g, *ctx.plan, ctx.scaling_constant, aux, out, rect);
  for (int i = rect.row_begin; i < rect.row_end; ++i)
    for (int j = rect.col_begin; j < rect.col_end; ++j) {
      const auto idx = g.flat(i, j);
      out[idx] = dwdt(t, g.x(j), g.y(i)) - out[idx];
    }
}

double manufactured_scenario::exact(double t, double x1, double x2) const {
  return w(t, x1, x2);
}

// --------------------------------------------------------- gaussian pulse --

gaussian_pulse_scenario::gaussian_pulse_scenario(double center_x, double center_y,
                                                 double sigma, double amplitude,
                                                 double support_radius)
    : cx_(center_x),
      cy_(center_y),
      sigma_(sigma),
      amplitude_(amplitude),
      support_radius_(support_radius) {
  NLH_ASSERT_MSG(sigma > 0.0, "gaussian_pulse_scenario: sigma must be positive");
  NLH_ASSERT_MSG(support_radius >= 0.0,
                 "gaussian_pulse_scenario: support_radius must be >= 0");
}

double gaussian_pulse_scenario::initial(double x1, double x2) const {
  if (x1 < 0.0 || x1 > 1.0 || x2 < 0.0 || x2 > 1.0) return 0.0;
  const double dx = x1 - cx_;
  const double dy = x2 - cy_;
  const double r2 = dx * dx + dy * dy;
  const double inv2s2 = 1.0 / (2.0 * sigma_ * sigma_);
  if (support_radius_ > 0.0) {
    if (r2 >= support_radius_ * support_radius_) return 0.0;
    // Shift the profile so it reaches the cutoff continuously; the far
    // field is exact 0.0, not a tiny tail.
    return amplitude_ *
           (std::exp(-r2 * inv2s2) -
            std::exp(-support_radius_ * support_radius_ * inv2s2));
  }
  return amplitude_ * std::exp(-r2 * inv2s2);
}

// ------------------------------------------------------------------ lshape --

double lshape_scenario::initial(double x1, double x2) const {
  // Pulse centered in the lower-left quadrant, away from the re-entrant
  // corner of the L.
  return gaussian_pulse_scenario(0.3, 0.3, 0.08).initial(x1, x2);
}

std::vector<char> lshape_scenario::sd_mask(int sd_rows, int sd_cols) const {
  // l_shape only reads the SD-grid geometry, so a unit tiling is enough.
  return dist::domain_mask::l_shape(dist::tiling(sd_rows, sd_cols, 1, 1)).raw();
}

// ------------------------------------------------------------------- crack --

crack_scenario::crack_scenario(double x0, double y0, double x1, double y1,
                               double work_reduction)
    : x0_(x0), y0_(y0), x1_(x1), y1_(y1), reduction_(work_reduction) {
  NLH_ASSERT_MSG(work_reduction >= 0.0 && work_reduction < 1.0,
                 "crack_scenario: work_reduction must be in [0, 1)");
}

double crack_scenario::initial(double x1, double x2) const {
  // The crack perturbs work, not temperature: start from the same smooth
  // field as the manufactured problem so the solve stays comparable.
  return manufactured_scenario::u0(x1, x2);
}

std::vector<double> crack_scenario::sd_work(int sd_rows, int sd_cols) const {
  // crack_work_scale only reads the SD-grid geometry, so a unit tiling is
  // enough to reuse it here.
  const dist::tiling t(sd_rows, sd_cols, 1, 1);
  return model::crack_work_scale(t, model::crack_line{x0_, y0_, x1_, y1_},
                                 reduction_);
}

}  // namespace nlh::api
