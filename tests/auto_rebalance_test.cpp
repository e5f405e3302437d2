// The live auto-rebalancing battery (docs/balance.md): bitwise
// serial==distributed equality while the Algorithm 1 loop migrates SDs
// between steps — forced every step, every 3 steps, and at seeded-random
// intervals, for every kernel backend x overlap schedule — plus the
// anti-ping-pong (deadband/cooldown/max_moves) damping, the zero-imbalance
// no-op path, the partition/report consistency property, and the api-layer
// policy surface (validation, runtime_metrics, metrics_snapshot).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "api/session.hpp"
#include "balance/auto_rebalancer.hpp"
#include "dist/dist_solver.hpp"
#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/serial_solver.hpp"
#include "support/rng.hpp"

namespace dist = nlh::dist;
namespace nl = nlh::nonlocal;
namespace api = nlh::api;
namespace balance = nlh::balance;

namespace {

/// Serial reference on the same mesh / dt / kernel backend as `cfg`.
std::vector<double> serial_reference(const dist::dist_config& cfg, int steps) {
  nl::solver_config scfg;
  scfg.n = cfg.sd_cols * cfg.sd_size;
  scfg.epsilon_factor = cfg.epsilon_factor;
  scfg.conductivity = cfg.conductivity;
  scfg.dt = cfg.dt;
  scfg.dt_safety = cfg.dt_safety;
  scfg.num_steps = steps;
  scfg.kind = cfg.kind;
  scfg.backend = cfg.backend;
  nl::serial_solver s(scfg);
  s.set_initial_condition();
  for (int k = 0; k < steps; ++k) s.step(k);
  return s.field();
}

/// Bitwise comparison over the interior DPs (exact double equality — online
/// rebalancing must not change a single rounding).
void expect_bitwise_equal(const nl::grid2d& g, const std::vector<double>& a,
                          const std::vector<double>& b) {
  int mismatches = 0;
  for (int i = 0; i < g.n() && mismatches < 5; ++i)
    for (int j = 0; j < g.n() && mismatches < 5; ++j)
      if (a[g.flat(i, j)] != b[g.flat(i, j)]) {
        ADD_FAILURE() << "field mismatch at (" << i << ", " << j
                      << "): " << a[g.flat(i, j)] << " vs " << b[g.flat(i, j)];
        ++mismatches;
      }
}

/// 3x3 SDs over 3 localities; threads_per_locality 2 so rebalancing
/// interleaves with genuinely concurrent compute under TSAN.
dist::dist_config battery_config(dist::overlap_schedule sched,
                                 const std::string& backend) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 3;
  cfg.sd_size = 6;
  cfg.epsilon_factor = 2;
  cfg.threads_per_locality = 2;
  cfg.schedule = sched;
  cfg.backend = nl::parse_kernel_backend(backend);
  return cfg;
}

dist::ownership_map battery_ownership(const dist::tiling& t) {
  return dist::ownership_map(t, 3, {0, 1, 2, 0, 1, 2, 2, 0, 1});
}

/// Synthetic busy-time source: locality 0 reports ~9x the busy time of the
/// others (it looks like the slow node and must shed SDs), jittered per
/// check from a seeded stream so successive epochs see varying loads.
balance::auto_rebalancer::busy_sampler skewed_sampler(std::uint64_t seed) {
  auto rng = std::make_shared<nlh::support::rng>(seed);
  return [rng](const dist::dist_solver& s) {
    std::vector<double> busy;
    for (int l = 0; l < s.owners().num_nodes(); ++l)
      busy.push_back((l == 0 ? 0.9 : 0.1) * rng->uniform(0.8, 1.2));
    return busy;
  };
}

}  // namespace

// ------------------------- rebalance cadence x backend x schedule battery ----

using CadenceParam =
    std::tuple<std::string, dist::overlap_schedule, std::string>;

class RebalanceCadenceEquivalence
    : public ::testing::TestWithParam<CadenceParam> {};

TEST_P(RebalanceCadenceEquivalence, BitwiseMatchesSerialReference) {
  const auto [cadence, sched, backend_name] = GetParam();
  auto cfg = battery_config(sched, backend_name);
  ASSERT_TRUE(cfg.backend.has_value());

  cfg.rebalance.enabled = true;
  if (cadence == "every_step") {
    cfg.rebalance.interval = 1;
    cfg.rebalance.trigger = 0.0;  // every check is an epoch
    cfg.rebalance.cooldown = 0;
  } else if (cadence == "every_3") {
    cfg.rebalance.interval = 3;
    cfg.rebalance.trigger = 0.0;
    cfg.rebalance.cooldown = 0;
  } else {  // seeded-random epochs
    cfg.rebalance.interval = 1;
    cfg.rebalance.trigger = 1.0;
    cfg.rebalance.cooldown = 1;
  }

  const dist::tiling t(3, 3, 6, 2);
  dist::dist_solver solver(cfg, battery_ownership(t));
  ASSERT_NE(solver.rebalancer(), nullptr);

  if (cadence == "random") {
    // Each check flips a seeded coin between a balanced and a skewed load,
    // so epochs fire at reproducible but irregular steps.
    auto rng = std::make_shared<nlh::support::rng>(20260807);
    solver.rebalancer()->set_sampler([rng](const dist::dist_solver& s) {
      const bool skew = rng->next_double() < 0.5;
      std::vector<double> busy;
      for (int l = 0; l < s.owners().num_nodes(); ++l)
        busy.push_back(skew && l == 0 ? 0.9 : 0.1);
      return busy;
    });
  } else {
    solver.rebalancer()->set_sampler(skewed_sampler(42));
  }

  const int steps = 9;
  solver.set_initial_condition();
  solver.run(steps);

  expect_bitwise_equal(solver.grid(), solver.gather(),
                       serial_reference(cfg, steps));

  const auto rs = solver.rebalance_stats();
  EXPECT_GT(rs.checks, 0u);
  EXPECT_GT(rs.epochs, 0u);
  EXPECT_GT(rs.moves, 0u);  // the skewed load really migrated SDs
  // Every epoch that moved SDs recompiled the plan exactly once more.
  EXPECT_GT(solver.plan_compiles(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCadencesAllSchedulesAllBackends, RebalanceCadenceEquivalence,
    ::testing::Combine(::testing::Values("every_step", "every_3", "random"),
                       ::testing::Values(dist::overlap_schedule::bulk_sync,
                                         dist::overlap_schedule::coarse),
                       ::testing::Values("scalar", "row_run", "simd")));

// ------------------------------------------------ anti-ping-pong damping ----

TEST(RebalanceDamping, DeadbandCooldownBoundAlternatingLoad) {
  // Adversarial sampler: the "slow" locality flips every check, so an
  // undamped loop shuttles the same SDs back and forth forever.
  auto alternating = []() {
    auto flip = std::make_shared<int>(0);
    return [flip](const dist::dist_solver& s) {
      const int slow = (*flip)++ % 2;
      std::vector<double> busy;
      for (int l = 0; l < s.owners().num_nodes(); ++l)
        busy.push_back(l == slow ? 0.9 : 0.1);
      return busy;
    };
  };

  auto make_cfg = [] {
    dist::dist_config cfg;
    cfg.sd_rows = cfg.sd_cols = 2;
    cfg.sd_size = 8;
    cfg.epsilon_factor = 2;
    cfg.rebalance.enabled = true;
    cfg.rebalance.interval = 1;
    return cfg;
  };
  const dist::tiling t(2, 2, 8, 2);
  const int steps = 12;

  auto undamped_cfg = make_cfg();
  undamped_cfg.rebalance.trigger = 0.0;
  undamped_cfg.rebalance.deadband = 0.0;
  undamped_cfg.rebalance.cooldown = 0;
  undamped_cfg.rebalance.max_moves = 0;
  dist::dist_solver undamped(undamped_cfg,
                             dist::ownership_map(t, 2, {0, 0, 1, 1}));
  undamped.rebalancer()->set_sampler(alternating());
  undamped.set_initial_condition();
  undamped.run(steps);

  auto damped_cfg = make_cfg();
  damped_cfg.rebalance.trigger = 0.5;
  damped_cfg.rebalance.deadband = 0.5;
  damped_cfg.rebalance.cooldown = 2;
  damped_cfg.rebalance.max_moves = 2;
  dist::dist_solver damped(damped_cfg,
                           dist::ownership_map(t, 2, {0, 0, 1, 1}));
  damped.rebalancer()->set_sampler(alternating());
  damped.set_initial_condition();
  damped.run(steps);

  const auto u = undamped.rebalance_stats();
  const auto d = damped.rebalance_stats();
  // The undamped loop ping-pongs on every one of the 12 checks.
  EXPECT_EQ(u.epochs, static_cast<std::uint64_t>(steps));
  EXPECT_GE(u.moves, static_cast<std::uint64_t>(steps));
  // Cooldown 2 admits at most every third check as an epoch; max_moves
  // caps each one — the SD shuttle is bounded, not per-step.
  EXPECT_LE(d.epochs, static_cast<std::uint64_t>(steps) / 3 + 1);
  EXPECT_LE(d.moves, d.epochs * 2);
  EXPECT_LT(d.moves, u.moves);

  // Damping changes scheduling only — both runs stay bitwise exact.
  const auto ref = serial_reference(undamped_cfg, steps);
  expect_bitwise_equal(undamped.grid(), undamped.gather(), ref);
  expect_bitwise_equal(damped.grid(), damped.gather(), ref);
}

// ------------------------------------------------------ zero imbalance -----

TEST(RebalanceZeroImbalance, NoEpochFiresAndPlanStaysCached) {
  auto cfg = battery_config(dist::overlap_schedule::coarse, "scalar");
  cfg.rebalance.enabled = true;
  cfg.rebalance.interval = 1;
  cfg.rebalance.trigger = 1.0;

  const dist::tiling t(3, 3, 6, 2);
  dist::dist_solver solver(cfg, battery_ownership(t));
  // A perfectly uniform load: every locality reports the same busy time.
  solver.rebalancer()->set_sampler([](const dist::dist_solver& s) {
    return std::vector<double>(static_cast<std::size_t>(s.owners().num_nodes()),
                               0.5);
  });
  const auto owners_before = solver.owners().sd_counts();

  const int steps = 6;
  solver.set_initial_condition();
  solver.run(steps);

  const auto rs = solver.rebalance_stats();
  EXPECT_EQ(rs.checks, static_cast<std::uint64_t>(steps));
  EXPECT_EQ(rs.epochs, 0u);
  EXPECT_EQ(rs.moves, 0u);
  EXPECT_EQ(rs.last_imbalance_before, 0.0);
  // Ownership untouched and the step plan never recompiled after the first
  // lazy build: no-op checks must not invalidate the cache.
  EXPECT_EQ(solver.owners().sd_counts(), owners_before);
  EXPECT_EQ(solver.plan_compiles(), 1u);

  expect_bitwise_equal(solver.grid(), solver.gather(),
                       serial_reference(cfg, steps));
}

// --------------------------------------------- partition/report property ----

TEST(RebalanceProperty, OwnershipStaysAPartitionAndReportsMatch) {
  auto cfg = battery_config(dist::overlap_schedule::coarse, "row_run");
  cfg.rebalance.enabled = true;
  cfg.rebalance.interval = 1;
  cfg.rebalance.trigger = 0.0;
  cfg.rebalance.cooldown = 0;

  const dist::tiling t(3, 3, 6, 2);
  dist::dist_solver solver(cfg, battery_ownership(t));

  // Fully random seeded loads: every check redistributes toward a different
  // target, exercising arbitrary epoch sequences.
  auto rng = std::make_shared<nlh::support::rng>(7);
  solver.rebalancer()->set_sampler([rng](const dist::dist_solver& s) {
    std::vector<double> busy;
    for (int l = 0; l < s.owners().num_nodes(); ++l)
      busy.push_back(rng->uniform(0.05, 1.0));
    return busy;
  });

  int epochs_seen = 0;
  solver.rebalancer()->set_epoch_observer(
      [&](const balance::balance_report& rep) {
        ++epochs_seen;
        // The report's post-state is the solver's real ownership: the
        // migrate callback executed every move the working copy recorded.
        EXPECT_EQ(rep.sd_counts_after, solver.owners().sd_counts());
        // The ownership map stays a partition: every SD owned exactly once
        // by an in-range node, total conserved.
        const auto counts = solver.owners().sd_counts();
        EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0),
                  solver.owners().num_sds());
        for (int sd = 0; sd < solver.owners().num_sds(); ++sd) {
          const int o = solver.owners().owner(sd);
          EXPECT_GE(o, 0);
          EXPECT_LT(o, solver.owners().num_nodes());
        }
        for (const auto& mv : rep.moves) EXPECT_NE(mv.from_node, mv.to_node);
      });

  const int steps = 10;
  solver.set_initial_condition();
  solver.run(steps);

  EXPECT_EQ(epochs_seen, steps);
  EXPECT_GT(solver.rebalance_stats().moves, 0u);
  expect_bitwise_equal(solver.grid(), solver.gather(),
                       serial_reference(cfg, steps));
}

// ------------------------------------------------------------ api surface ---

TEST(ApiAutoRebalance, SerialModeRejectsEnabledPolicy) {
  api::session_options opt;
  opt.mode = api::execution_mode::serial;
  opt.auto_rebalance.enabled = true;
  const auto errs = api::session::validate(opt);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("session_options.auto_rebalance"), std::string::npos);
}

TEST(ApiAutoRebalance, PolicyKnobsAreValidated) {
  api::session_options opt;
  opt.mode = api::execution_mode::distributed;
  opt.n = 24;
  opt.sd_grid = 3;
  opt.epsilon_factor = 2;
  opt.auto_rebalance.enabled = true;
  opt.auto_rebalance.interval = 0;
  opt.auto_rebalance.trigger = -1.0;
  const auto errs = api::session::validate(opt);
  bool interval_err = false, trigger_err = false;
  for (const auto& e : errs) {
    if (e.find("session_options.auto_rebalance.interval") != std::string::npos)
      interval_err = true;
    if (e.find("session_options.auto_rebalance.trigger") != std::string::npos)
      trigger_err = true;
  }
  EXPECT_TRUE(interval_err);
  EXPECT_TRUE(trigger_err);

  // A disabled policy ignores the bad knobs (historical configs stay valid).
  opt.auto_rebalance.enabled = false;
  EXPECT_TRUE(api::session::validate(opt).empty());
}

TEST(ApiAutoRebalance, MetricsExposeRebalanceCounters) {
  api::session_options opt;
  opt.mode = api::execution_mode::distributed;
  opt.n = 24;
  opt.sd_grid = 3;
  opt.epsilon_factor = 2;
  opt.nodes = 3;
  opt.auto_rebalance.enabled = true;
  opt.auto_rebalance.interval = 1;
  opt.auto_rebalance.trigger = 0.0;  // every check fires

  api::session s(opt);
  auto& h = s.solver();
  h.run(4);

  const auto m = h.metrics();
  EXPECT_TRUE(m.is_distributed);
  EXPECT_GT(m.rebalance_epochs, 0u);

  const auto snap = h.metrics_snapshot();
  auto has_counter = [&](const std::string& name) {
    return std::any_of(snap.counters.begin(), snap.counters.end(),
                       [&](const auto& kv) { return kv.first == name; });
  };
  auto has_gauge = [&](const std::string& name) {
    return std::any_of(snap.gauges.begin(), snap.gauges.end(),
                       [&](const auto& kv) { return kv.first == name; });
  };
  EXPECT_TRUE(has_counter("balance/checks"));
  EXPECT_TRUE(has_counter("balance/epochs"));
  EXPECT_TRUE(has_counter("balance/moves"));
  EXPECT_TRUE(has_gauge("balance/imbalance_before"));
  EXPECT_TRUE(has_gauge("balance/imbalance_after"));

  // The serial twin reports the same schema as genuine zeros.
  api::session_options sopt;
  sopt.n = 24;
  sopt.epsilon_factor = 2;
  api::session ss(sopt);
  ss.solver().run(2);
  const auto sm = ss.solver().metrics();
  EXPECT_FALSE(sm.is_distributed);
  EXPECT_EQ(sm.rebalance_epochs, 0u);
  EXPECT_EQ(sm.rebalance_moves, 0u);
}

TEST(ApiAutoRebalance, FacadeStaysBitwiseWithRebalancing) {
  api::session_options opt;
  opt.mode = api::execution_mode::distributed;
  opt.n = 24;
  opt.sd_grid = 3;
  opt.epsilon_factor = 2;
  opt.nodes = 3;
  opt.kernel_backend = "simd";
  opt.auto_rebalance.enabled = true;
  opt.auto_rebalance.interval = 2;
  opt.auto_rebalance.trigger = 0.0;

  api::session d(opt);
  d.solver().run(6);

  auto sopt = opt;
  sopt.mode = api::execution_mode::serial;
  sopt.auto_rebalance = {};
  api::session s(sopt);
  s.solver().run(6);

  expect_bitwise_equal(d.solver().grid(), d.solver().field(),
                       s.solver().field());
}
