///
/// \file ablation_overlap.cpp
/// \brief Ablation for §6.3's core trick: how much exchange time does the
/// case-1/case-2 overlap hide? Two parts:
///
/// 1. The historical virtual-time sweep on the Fig. 13 configuration
///    (16x16 SDs, 8 nodes): asynchronous schedule vs a bulk-synchronous
///    runtime in the simulator.
/// 2. A **real-solver** guard: the actual dist_solver stepping under
///    injected wall-clock network latency (net::comm_world's delay model),
///    comparing the coarse (overlapped) and bulk_sync schedules
///    head-to-head. Writes BENCH_overlap.json and exits non-zero unless
///    the coarse schedule never regresses the bulk-synchronous baseline
///    beyond a noise tolerance (10% at the 1e-3 s / 1e-2 s latency
///    points, 25% at zero latency). Set NLH_BENCH_OVERLAP_JSON to
///    redirect the report (default: ./BENCH_overlap.json).
///

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "dist/dist_solver.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

/// Deterministic per-message latency jitter in [0.6, 1.4) x base — spreads
/// the arrivals the way real interconnects stagger messages.
double jittered(double base, std::uint64_t tag) {
  const std::uint64_t h = (tag * 2654435761ull) >> 16;
  return base * (0.6 + 0.8 * static_cast<double>(h % 1024) / 1024.0);
}

struct real_run {
  double seconds = 0.0;
  std::uint64_t early_tasks = 0;
  double wait_seconds = 0.0;
};

/// Wall-clock seconds for `steps` real dist_solver steps under `sched` with
/// `latency` seconds of injected per-message delivery delay (0 = inline),
/// on a fresh solver (cold plan compiled on the warm-up step, so the
/// measured loop runs the cached plan).
real_run run_real_solver(nlh::dist::overlap_schedule sched, double latency,
                         int steps) {
  using namespace nlh;
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 4;
  cfg.sd_size = 48;
  cfg.epsilon_factor = 6;
  cfg.threads_per_locality = 1;
  cfg.schedule = sched;
  cfg.backend = nonlocal::kernel_backend::row_run;  // deterministic across hosts
  const dist::tiling t(4, 4, 48, 6);
  dist::dist_solver solver(cfg, bench::block_ownership(t, 4));
  solver.set_initial_condition();
  if (latency > 0.0)
    solver.comm().set_delay_model([latency](int, int, std::uint64_t tag) {
      return jittered(latency, tag);
    });

  solver.step();  // warm-up: plan compile, pool spin-up, buffer pools
  const auto s0 = solver.stats();
  support::stopwatch sw;
  solver.run(steps);
  real_run run;
  run.seconds = sw.elapsed_s();
  const auto s1 = solver.stats();
  run.early_tasks =
      (s1.interior_early + s1.strips_early) - (s0.interior_early + s0.strips_early);
  run.wait_seconds = s1.wait_seconds - s0.wait_seconds;
  return run;
}

}  // namespace

int main() {
  using namespace nlh;

  // ---- Part 1: the historical virtual-time ablation --------------------
  const dist::tiling t(16, 16, 50, 8);
  const int nodes = 8;
  const int steps = 20;
  const double sec_per_dp = bench::measure_seconds_per_dp(8);
  const auto own = bench::metis_ownership(t, nodes);

  std::cout << "Ablation — communication hiding (case-2-first overlap) vs "
               "bulk-synchronous execution\n"
            << "800x800 mesh, 16x16 SDs, 8 nodes, 20 steps; kernel: "
            << sec_per_dp * 1e9 << " ns/DP-update\n\n";

  support::table tab({"latency", "overlap makespan s", "bulk-sync makespan s",
                      "overlap wins by"});
  for (double latency : {2e-6, 1e-4, 1e-3, 1e-2}) {
    auto cluster = bench::skylake_cluster(1, sec_per_dp);
    bench::set_uniform_speed(cluster, nodes, sec_per_dp);
    cluster.net.latency_s = latency;

    auto cost = bench::dp_cost_model();
    cost.overlap = true;
    const auto on = dist::simulate_timestepping(t, own, steps, cost, cluster);
    cost.overlap = false;
    const auto off = dist::simulate_timestepping(t, own, steps, cost, cluster);

    tab.row()
        .add(support::fmt_double(latency * 1e6, 3) + " us")
        .add(on.makespan, 4)
        .add(off.makespan, 4)
        .add(support::fmt_double((off.makespan / on.makespan - 1.0) * 100.0, 3) + " %");
  }
  tab.print(std::cout);

  // ---- Part 2: real-solver schedule guard ------------------------------
  std::cout << "\nReal-solver schedule comparison (4x4 SDs of 48x48 DPs, "
               "ghost 6, 4 localities,\nrow_run kernel, jittered injected "
               "latency; best of 5 interleaved reps x 8 steps):\n\n";

  constexpr int reps = 5;
  struct point {
    double latency;
    real_run bulk, coarse;
  };
  std::vector<point> points;
  for (double latency : {0.0, 1e-3, 1e-2}) {
    const int msteps = latency >= 1e-2 ? 6 : 8;
    point p;
    p.latency = latency;
    // Best of `reps` per schedule, the two schedules' reps interleaved so
    // a load spike on the host hits both rather than one.
    auto keep_best = [](real_run& best, const real_run& run) {
      if (run.seconds < best.seconds) best = run;
    };
    p.bulk.seconds = p.coarse.seconds = 1e100;
    for (int r = 0; r < reps; ++r) {
      keep_best(p.bulk, run_real_solver(dist::overlap_schedule::bulk_sync, latency, msteps));
      keep_best(p.coarse, run_real_solver(dist::overlap_schedule::coarse, latency, msteps));
    }
    // Normalize to per-step seconds so the points are comparable.
    p.bulk.seconds /= msteps;
    p.coarse.seconds /= msteps;
    points.push_back(p);
  }

  support::table rtab({"latency", "bulk_sync s/step", "coarse s/step",
                       "coarse vs bulk"});
  for (const auto& p : points)
    rtab.row()
        .add(support::fmt_double(p.latency * 1e3, 3) + " ms")
        .add(p.bulk.seconds, 6)
        .add(p.coarse.seconds, 6)
        .add(support::fmt_double(p.bulk.seconds / p.coarse.seconds, 3) + "x");
  rtab.print(std::cout);

  // Gate: the overlapped coarse schedule must never regress bulk_sync.
  // Tolerances are sized for shared CI runners (oversubscribed vCPUs,
  // best-of-5 over a handful of steps): 10% at the latency points, where
  // the schedules genuinely separate; 25% at zero latency, where the whole
  // step is sub-10ms of pure task overhead and the comparison measures
  // scheduler noise, not communication hiding.
  constexpr double tol = 1.10;
  constexpr double tol_zero = 1.25;
  bool pass = true;
  std::string rows;
  for (const auto& p : points) {
    const bool high_latency = p.latency >= 1e-3;
    if (p.coarse.seconds > p.bulk.seconds * (high_latency ? tol : tol_zero))
      pass = false;

    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"latency_s\": %g, \"bulk_sync_s_per_step\": %.6f, "
                  "\"coarse_s_per_step\": %.6f, \"coarse_vs_bulk\": %.3f, "
                  "\"coarse_early_tasks\": %llu, \"coarse_wait_seconds\": %.4f}",
                  p.latency, p.bulk.seconds, p.coarse.seconds,
                  p.bulk.seconds / p.coarse.seconds,
                  static_cast<unsigned long long>(p.coarse.early_tasks),
                  p.coarse.wait_seconds);
    if (!rows.empty()) rows += ",\n";
    rows += row;
  }

  const char* env = std::getenv("NLH_BENCH_OVERLAP_JSON");
  const char* path = env ? env : "BENCH_overlap.json";
  std::FILE* fp = std::fopen(path, "w");
  if (!fp) {
    std::fprintf(stderr, "overlap guard: cannot open %s\n", path);
    return 1;
  }
  std::fprintf(fp,
               "{\n"
               "  \"bench\": \"ablation_overlap\",\n"
               "  \"config\": {\"sd_grid\": 4, \"sd_size\": 48, \"ghost\": 6, "
               "\"nodes\": 4, \"backend\": \"row_run\"},\n"
               "  \"gate\": \"coarse <= bulk_sync * %.2f at latency >= 1e-3; "
               "<= bulk_sync * %.2f at zero latency\",\n"
               "  \"pass\": %s,\n"
               "  \"results\": [\n%s\n  ]\n"
               "}\n",
               tol, tol_zero, pass ? "true" : "false", rows.c_str());
  std::fclose(fp);

  std::cout << "\nTakeaway: at realistic interconnect latencies the overlap "
               "fully hides the exchange;\nas latency grows, the "
               "bulk-synchronous schedule pays it on the critical path every "
               "step\nwhile the coarse schedule keeps computing case-2 "
               "interiors (paper §6.3, docs/overlap.md).\n"
            << "\n  guard " << (pass ? "PASS" : "FAIL") << " -> " << path << "\n";
  return pass ? 0 : 1;
}
