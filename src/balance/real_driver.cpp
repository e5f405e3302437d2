#include "balance/real_driver.hpp"

namespace nlh::balance {

std::vector<real_balance_iteration> run_real_balancing(dist::dist_solver& solver,
                                                       const real_balance_config& cfg) {
  std::vector<real_balance_iteration> log;
  for (int it = 0; it < cfg.iterations; ++it) {
    real_balance_iteration entry;
    entry.iteration = it;
    entry.sd_counts_before = solver.owners().sd_counts();

    solver.reset_busy_counters();
    solver.run(cfg.steps_per_iteration);

    // The solver's own pools: busy time is per tenant, never process-wide.
    entry.busy_fraction.reserve(static_cast<std::size_t>(solver.owners().num_nodes()));
    for (int l = 0; l < solver.owners().num_nodes(); ++l)
      entry.busy_fraction.push_back(solver.busy_fraction(l));

    const auto traffic_before = solver.comm().total_bytes();
    // Balance on a copy of the ownership map; migrations applied through
    // the solver keep its map in sync (migrate_sd updates it).
    auto own = solver.owners();
    const auto rep =
        balance_step(solver.sd_tiling(), own, entry.busy_fraction, cfg.opts,
                     [&](const sd_move& m) { solver.migrate_sd(m.sd, m.to_node); });
    entry.sds_moved = static_cast<int>(rep.moves.size());
    entry.migration_bytes = solver.comm().total_bytes() - traffic_before;
    entry.sd_counts_after = solver.owners().sd_counts();
    solver.reset_busy_counters();  // Algorithm 1 line 35
    log.push_back(std::move(entry));
  }
  return log;
}

}  // namespace nlh::balance
