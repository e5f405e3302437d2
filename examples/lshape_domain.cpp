///
/// \file lshape_domain.cpp
/// \brief Non-square material domains through the `nlh::api` facade: the
/// `lshape` scenario's SD mask shapes the dual graph the session
/// partitions, the virtual cluster scales the masked decomposition
/// (matching the square-domain behaviour of Fig. 13), and a small real
/// solve runs end-to-end through the same session API.
///
/// Usage: lshape_domain [--sd-grid 12] [--shape l|disk] [--max-nodes 8]
///

#include <cmath>
#include <iostream>

#include "api/session.hpp"
#include "dist/sim_dist.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

/// Disk-shaped material domain, defined locally to show how callers extend
/// the scenario interface beyond the built-ins (session_options::
/// custom_scenario).
class disk_scenario final : public nlh::api::scenario {
 public:
  std::string name() const override { return "disk"; }
  double initial(double x1, double x2) const override {
    return nlh::api::gaussian_pulse_scenario(0.5, 0.5, 0.08).initial(x1, x2);
  }
  std::vector<char> sd_mask(int sd_rows, int sd_cols) const override {
    // SD centers within the inscribed radius keep material (matches
    // dist::domain_mask::disk).
    const double cy = sd_rows / 2.0;
    const double cx = sd_cols / 2.0;
    const double radius = std::min(sd_rows, sd_cols) / 2.0;
    std::vector<char> mask(static_cast<std::size_t>(sd_rows) * sd_cols, 0);
    for (int r = 0; r < sd_rows; ++r)
      for (int c = 0; c < sd_cols; ++c) {
        const double dy = (r + 0.5) - cy;
        const double dx = (c + 0.5) - cx;
        if (dy * dy + dx * dx <= radius * radius)
          mask[static_cast<std::size_t>(r) * sd_cols + c] = 1;
      }
    return mask;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace nlh;
  const support::cli cli(argc, argv);
  const int sd_grid = cli.get_int("sd-grid", 12);
  const std::string shape = cli.get("shape", "l");
  const int max_nodes = cli.get_int("max-nodes", 8);
  const int sd_size = 50;

  api::session_options opt;
  opt.mode = api::execution_mode::distributed;
  if (shape == "disk")
    opt.custom_scenario = std::make_shared<const disk_scenario>();
  else
    opt.scenario = "lshape";
  opt.sd_grid = sd_grid;
  opt.n = sd_grid * sd_size;
  opt.epsilon_factor = 8;
  opt.nodes = 1;

  // One session per node count: the facade builds the masked dual graph and
  // its partition at construction; the solver is lazy, so these partition
  // studies never allocate solver state.
  api::session probe(opt);
  const auto& t = probe.sd_tiling();
  const auto& mask = probe.mask();

  std::cout << "Masked domain (" << shape << "): " << mask.num_active() << " of "
            << t.num_sds() << " SDs active.\n\nShape ('#' = material):\n";
  for (int r = 0; r < t.sd_rows(); ++r) {
    for (int c = 0; c < t.sd_cols(); ++c)
      std::cout << (mask.active(t.sd_at(r, c)) ? '#' : '.');
    std::cout << '\n';
  }

  // Scale the masked decomposition over node counts on the virtual cluster.
  support::table tab({"nodes", "edge-cut DPs", "balance", "speedup", "efficiency"});
  dist::sim_cost_model cost;
  cost.sd_active = mask.raw();
  dist::sim_cluster_config cluster;
  double t1 = 0.0;
  for (int nodes = 1; nodes <= max_nodes; nodes *= 2) {
    opt.nodes = nodes;
    api::session s(opt);
    const auto res =
        dist::simulate_timestepping(s.sd_tiling(), s.ownership(), 10, cost, cluster);
    if (nodes == 1) t1 = res.makespan;
    tab.row()
        .add(nodes)
        .add(s.partition_edge_cut(), 6)
        .add(s.partition_balance(), 4)
        .add(t1 / res.makespan, 4)
        .add(t1 / res.makespan / nodes, 3);
  }
  tab.print(std::cout);
  std::cout << "\nThe masked dual graph gives the partitioner the true "
               "communication structure of the\nnon-square domain; scaling "
               "matches the square-domain behaviour of Fig. 13.\n";

  // A small real solve through the same facade: the pulse in the material
  // region diffuses and its energy decays monotonically.
  api::session_options ropt = opt;
  ropt.sd_grid = 4;
  ropt.n = 32;
  ropt.epsilon_factor = 2;
  ropt.nodes = 2;
  ropt.num_steps = 5;
  api::session real(ropt);
  auto& h = real.solver();
  const auto& g = h.grid();
  auto l2 = [&g](const std::vector<double>& f) {
    double sum = 0.0;
    for (int i = 0; i < g.n(); ++i)
      for (int j = 0; j < g.n(); ++j) sum += f[g.flat(i, j)] * f[g.flat(i, j)];
    return std::sqrt(sum * g.cell_volume());
  };
  const double before = l2(h.field());
  h.run(ropt.num_steps);
  const double after = l2(h.field());
  std::cout << "\nReal solve through the facade (" << ropt.n << "x" << ropt.n
            << " mesh, " << ropt.nodes << " localities, " << ropt.num_steps
            << " steps): ||u||_2 " << before << " -> " << after
            << (after < before ? " (pulse diffusing, as expected)" : "") << "\n";
  return after < before ? 0 : 1;
}
