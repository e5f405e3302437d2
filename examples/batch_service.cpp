///
/// \file batch_service.cpp
/// \brief Multi-tenant service demo: sweep scenarios x kernel backends x
/// execution modes concurrently through `nlh::api::batch_runner` over one
/// shared AMT pool, then cross-check every serial/distributed pair for the
/// per-job bitwise guarantee and report aggregate throughput.
///
/// Usage: batch_service [--n 32] [--eps-factor 2] [--steps 5] [--sd-grid 4]
///                      [--nodes 2] [--pool-threads 4] [--cap 3]
///                      [--policy fifo|priority]
///                      [--schedule coarse|bulk_sync]
///                      [--json PATH] [--soak]
///                      [--auto-rebalance] [--hibernate] [--resident-cap 3]
///                      [--rounds N] [--trace-out PATH] [--metrics-out PATH]
///
/// Service mode: batch_service --service
///                      [--seed 42] [--arrivals 400] [--service-seconds 0]
///                      [--tenants 8] [--rate 120] [--burst 4]
///                      [--time-scale 0] [--no-qos] [--n 24]
///                      [--pool-threads 4] [--cap 0]
///                      [--quota-rate 200] [--quota-burst 32] [--quota-cap 16]
///                      [--metrics-out PATH] [--trace-out PATH]
///
/// `--service` switches from the one-shot batch sweep to the long-running
/// QoS front door (`nlh::svc::service_loop`, docs/service.md): a seeded
/// MMPP traffic generator offers an open-loop tenant/class mix
/// (interactive / batch / soak), the service polices per-tenant quotas and
/// schedules by class weight, and the run asserts the QoS contract —
/// interactive p99 step latency strictly below batch p99 (skipped under
/// `--no-qos`, which flattens scheduling to FIFO for A/B runs). `--rate`
/// is offered jobs/second of *trace* time; `--time-scale` maps trace time
/// to wall time (0 = submit back-to-back, the saturating default;
/// 1 = real time, what the nightly soak drives for 2 minutes via
/// `--service-seconds 120 --time-scale 1`). The `svc/*` observables land
/// in `--metrics-out` for the nightly asserts.
///
/// `--soak` switches to the ROADMAP stress configuration — 16x16 SDs on 8
/// localities for hundreds of steps, distributed jobs across every
/// scenario x backend — which the nightly CI job runs, uploading the
/// `--json` metrics file as an artifact.
///
/// `--hibernate` (default on under --soak) makes every job a *persistent
/// tenant* (batch_job::session_key) and turns on LRU hibernation to cold
/// storage with at most `--resident-cap` tenant sessions in memory
/// (docs/checkpoint.md). Each tenant's step budget is split across
/// `--rounds` jobs (default 2 when hibernating), so parked tenants really
/// hibernate between rounds and restore transparently on their next job —
/// the serial/distributed bitwise cross-check still passing is the demo's
/// proof that the round trip is invisible. The `ckpt/*` observables land
/// in `--metrics-out`, which the nightly soak asserts on.
///
/// `--auto-rebalance` (default on under --soak) turns on live Algorithm 1
/// rebalancing (docs/balance.md) for every distributed job; the rebalance
/// observables then land in `--metrics-out` as
/// `api/job/<label>/balance/...`, which the nightly soak asserts on.
///
/// `--trace-out` enables span tracing for the whole batch and writes a
/// Chrome-tracing / Perfetto JSON timeline; `--metrics-out` writes the
/// runner's full metrics snapshot (per-session step-latency histograms,
/// queue-wait, bridged AGAS counters) — see docs/observability.md. The
/// nightly soak passes both and uploads the files as artifacts.
///
/// Exit status: 0 when every job succeeded (and, in sweep mode, every
/// serial/distributed pair agreed bitwise); 1 otherwise.
///

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/batch.hpp"
#include "dist/dist_solver.hpp"
#include "obs/config.hpp"
#include "obs/trace_export.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "svc/service.hpp"
#include "svc/traffic_gen.hpp"

namespace api = nlh::api;
namespace svc = nlh::svc;

namespace {

/// The long-running front-door demo (--service): deterministic MMPP
/// traffic through service_loop, per-class latency report, QoS assert.
int run_service(const nlh::support::cli& cli) {
  const std::string trace_path = cli.get("trace-out", "");
  const std::string metrics_path = cli.get("metrics-out", "");
  if (!trace_path.empty()) nlh::obs::set_tracing_enabled(true);

  svc::traffic_options traffic;
  traffic.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  traffic.duration_seconds = cli.get_double("service-seconds", 0.0);
  traffic.arrivals =
      cli.get_int("arrivals", traffic.duration_seconds > 0.0 ? 0 : 400);
  traffic.mean_rate = cli.get_double("rate", 120.0);
  traffic.burst_factor = cli.get_double("burst", 4.0);
  traffic.tenants = cli.get_int("tenants", 8);
  traffic.n = cli.get_int("n", 24);
  traffic.eps_factor = cli.get_int("eps-factor", 2);
  const double time_scale = cli.get_double("time-scale", 0.0);

  svc::service_options sopt;
  sopt.pool_threads = static_cast<unsigned>(cli.get_int("pool-threads", 4));
  sopt.max_concurrent = cli.get_int("cap", 0);  // 0 = pool_threads
  sopt.qos.enabled = !cli.get_flag("no-qos", false);
  sopt.default_quota.rate_per_second = cli.get_double("quota-rate", 200.0);
  sopt.default_quota.burst = cli.get_double("quota-burst", 32.0);
  sopt.default_quota.max_in_flight = cli.get_int("quota-cap", 16);

  const auto trace = svc::generate_traffic(traffic);
  std::cout << "batch_service --service: " << trace.size()
            << " arrivals (seed " << traffic.seed << ", checksum "
            << std::hex << svc::trace_checksum(trace) << std::dec
            << "), mean rate " << traffic.mean_rate << "/s x burst "
            << traffic.burst_factor << ", " << traffic.tenants
            << " tenants, time-scale " << time_scale << ", QoS "
            << (sopt.qos.enabled ? "on" : "OFF (FIFO baseline)") << "\n\n";

  svc::service_loop loop(sopt);
  auto futures = svc::replay(loop, trace, time_scale);
  for (auto& f : futures) f.get();

  const auto st = loop.stats();
  nlh::support::table out({"class", "submitted", "completed", "shed",
                           "qwait-p50-ms", "qwait-p99-ms", "step-p50-ms",
                           "step-p99-ms"});
  for (int c = 0; c < svc::qos_class_count; ++c) {
    const auto& cs = st.per_class[static_cast<std::size_t>(c)];
    out.row()
        .add(svc::to_string(static_cast<svc::qos_class>(c)))
        .add(static_cast<long long>(cs.submitted))
        .add(static_cast<long long>(cs.completed))
        .add(static_cast<long long>(cs.shed))
        .add(cs.queue_wait.p50 * 1e3, 2)
        .add(cs.queue_wait.p99 * 1e3, 2)
        .add(cs.step_latency.p50 * 1e3, 2)
        .add(cs.step_latency.p99 * 1e3, 2);
  }
  out.print(std::cout);
  std::cout << "service: " << st.jobs_per_second << " jobs/s over "
            << st.wall_seconds << " s; quota delayed " << st.quota_delayed
            << ", quota shed " << st.quota_shed << "\n";

  bool ok = true;
  const auto& inter = st.of(svc::qos_class::interactive);
  const auto& batch = st.of(svc::qos_class::batch);
  if (inter.completed == 0) {
    std::cout << "FAIL: no interactive job completed\n";
    ok = false;
  }
  // The QoS contract the nightly asserts: under the class weights the
  // interactive tail must sit strictly below the batch tail. A FIFO
  // baseline run (--no-qos) makes no such promise.
  if (sopt.qos.enabled && inter.completed > 0 && batch.completed > 0 &&
      !(inter.step_latency.p99 < batch.step_latency.p99)) {
    std::cout << "FAIL: interactive p99 step latency "
              << inter.step_latency.p99 * 1e3
              << " ms not below batch p99 " << batch.step_latency.p99 * 1e3
              << " ms\n";
    ok = false;
  }

  if (!metrics_path.empty()) {
    loop.dump_metrics(metrics_path);
    std::cout << "metrics snapshot written to " << metrics_path << "\n";
  }
  if (!trace_path.empty()) {
    nlh::obs::set_tracing_enabled(false);
    if (nlh::obs::write_chrome_trace(trace_path))
      std::cout << "trace timeline written to " << trace_path << "\n";
    else
      ok = false;
  }
  std::cout << (ok ? "\nservice OK\n" : "\nservice FAILED\n");
  return ok ? 0 : 1;
}

/// Interior field of a finished job's session, keyed for pair matching.
struct captured_field {
  int n = 0;
  std::vector<double> values;
};

double max_abs_diff(const nlh::nonlocal::grid2d& g, const std::vector<double>& a,
                    const std::vector<double>& b) {
  double m = 0.0;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      m = std::max(m, std::abs(a[g.flat(i, j)] - b[g.flat(i, j)]));
  return m;
}

void write_json(const std::string& path, const api::batch_metrics& agg,
                const std::vector<api::batch_job_result>& results, bool soak) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "batch_service: cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"mode\": \"" << (soak ? "soak" : "sweep") << "\",\n";
  out << "  \"aggregate\": {\"jobs_submitted\": " << agg.jobs_submitted
      << ", \"jobs_completed\": " << agg.jobs_completed
      << ", \"jobs_failed\": " << agg.jobs_failed
      << ", \"total_steps\": " << agg.total_steps
      << ", \"ghost_bytes\": " << agg.ghost_bytes
      << ", \"wall_seconds\": " << agg.wall_seconds
      << ", \"jobs_per_second\": " << agg.jobs_per_second << "},\n";
  out << "  \"jobs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"label\": \"" << r.label << "\", \"ok\": " << (r.ok ? "true" : "false")
        << ", \"steps\": " << r.metrics.steps
        << ", \"wall_seconds\": " << r.metrics.wall_seconds
        << ", \"ghost_bytes\": " << r.metrics.ghost_bytes << ", \"backend\": \""
        << r.metrics.kernel_backend << "\"}" << (i + 1 < results.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) try {
  const nlh::support::cli cli(argc, argv);
  if (cli.get_flag("service", false)) return run_service(cli);
  const bool soak = cli.get_flag("soak", false);

  // Sweep defaults stay example-sized; --soak is the ROADMAP stress config
  // (16x16 SDs, 8 localities, hundreds of steps).
  const int n = cli.get_int("n", soak ? 128 : 32);
  const int eps = cli.get_int("eps-factor", soak ? 4 : 2);
  const int steps = cli.get_int("steps", soak ? 200 : 5);
  const int sd_grid = cli.get_int("sd-grid", soak ? 16 : 4);
  const int nodes = cli.get_int("nodes", soak ? 8 : 2);
  const bool auto_rebalance = cli.get_flag("auto-rebalance", soak);
  const bool hibernate = cli.get_flag("hibernate", soak);
  const int resident_cap = cli.get_int("resident-cap", 3);
  const int rounds = std::max(1, cli.get_int("rounds", hibernate ? 2 : 1));
  const std::string json_path = cli.get("json", "");
  const std::string trace_path = cli.get("trace-out", "");
  const std::string metrics_path = cli.get("metrics-out", "");
  if (!trace_path.empty()) nlh::obs::set_tracing_enabled(true);

  api::batch_options bopt;
  bopt.pool_threads = static_cast<unsigned>(cli.get_int("pool-threads", 4));
  bopt.max_concurrent_jobs = cli.get_int("cap", 3);
  // Closed value set mapped straight to the enum: a typo'd policy aborts
  // with the valid spellings instead of silently running the default.
  bopt.admission = cli.get_enum<api::admission_policy>(
      "policy", api::admission_policy::fifo,
      {{"fifo", api::admission_policy::fifo},
       {"priority", api::admission_policy::priority}});
  // Overlap schedule for the distributed jobs, same closed-set contract
  // (session_options carries it by name; dist/dist_solver.hpp).
  const nlh::dist::overlap_schedule sched =
      cli.get_enum<nlh::dist::overlap_schedule>(
          "schedule", nlh::dist::overlap_schedule::coarse,
          {{"coarse", nlh::dist::overlap_schedule::coarse},
           {"bulk_sync", nlh::dist::overlap_schedule::bulk_sync}});
  const std::string schedule_name = nlh::dist::overlap_schedule_name(sched);
  if (hibernate) {
    bopt.hibernation.enabled = true;
    bopt.hibernation.resident_cap = static_cast<std::size_t>(resident_cap);
  }

  const std::vector<std::string> scenarios = {"manufactured", "gaussian_pulse",
                                              "lshape", "crack"};
  const std::vector<std::string> backends = {"scalar", "row_run", "simd"};

  // Captured interior fields for the bitwise cross-check (sweep mode only;
  // the hook runs on pool workers, hence the mutex).
  std::mutex fields_mu;
  std::map<std::string, captured_field> fields;

  std::vector<api::batch_job> jobs;
  // Round-major submission order: round 0 of *every* tenant runs before any
  // round 1, so under --hibernate the whole roster cycles through the
  // resident cap between rounds — each tenant is parked, LRU-evicted to
  // cold storage and transparently restored by its next round's job.
  for (int round = 0; round < rounds; ++round)
    for (const auto& scn : scenarios)
      for (const auto& backend : backends)
        for (const char* mode : {"serial", "distributed"}) {
          if (soak && std::string(mode) == "serial") continue;  // all-dist
          const std::string key = scn + "/" + backend + "/" + mode;
          api::batch_job job;
          job.options.scenario = scn;
          job.options.kernel_backend = backend;
          job.options.n = n;
          job.options.epsilon_factor = eps;
          job.options.num_steps = steps;
          job.options.sd_grid = sd_grid;
          job.options.nodes = nodes;
          job.options.mode = std::string(mode) == "serial"
                                 ? api::execution_mode::serial
                                 : api::execution_mode::distributed;
          job.options.overlap_schedule = schedule_name;
          // Queue-wait split per mode: serial jobs are the short/cheap
          // class of this sweep, distributed the heavy one —
          // api/batch/queue_wait_seconds/<mode> in the metrics snapshot.
          job.admission_class = mode;
          if (auto_rebalance &&
              job.options.mode == api::execution_mode::distributed) {
            // Live Algorithm 1 loop on every distributed tenant: sample
            // every 10 steps, act on >= 1 SD of imbalance, damped against
            // noise.
            job.options.auto_rebalance.enabled = true;
            job.options.auto_rebalance.interval = 10;
            job.options.auto_rebalance.trigger = 1.0;
            job.options.auto_rebalance.deadband = 0.5;
            job.options.auto_rebalance.cooldown = 1;
          }
          const int per_round = steps / rounds;
          job.num_steps =
              round + 1 < rounds ? per_round : steps - per_round * (rounds - 1);
          if (hibernate) job.session_key = key;
          job.label = rounds > 1 ? key + "#" + std::to_string(round) : key;
          if (!soak && round + 1 == rounds) {
            job.on_complete = [&fields_mu, &fields, key](api::session& s) {
              captured_field f;
              f.n = s.solver().grid().n();
              f.values = s.solver().field();
              std::lock_guard<std::mutex> lk(fields_mu);
              fields[key] = std::move(f);
            };
          }
          jobs.push_back(std::move(job));
        }

  std::cout << "batch_service: " << jobs.size() << " jobs (" << scenarios.size()
            << " scenarios x " << backends.size() << " backends"
            << (soak ? ", distributed soak" : " x 2 modes") << "), " << n << "x"
            << n << " mesh, " << sd_grid << "x" << sd_grid << " SDs, " << nodes
            << " localities, " << steps << " steps; cap "
            << bopt.max_concurrent_jobs << " over " << bopt.pool_threads
            << " pool threads"
            << (auto_rebalance ? "; auto-rebalance on distributed jobs" : "")
            << "\n\n";

  api::batch_runner runner(bopt);
  auto futures = runner.submit_all(std::move(jobs));

  std::vector<api::batch_job_result> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());

  nlh::support::table out({"job", "ok", "steps", "wall-s", "ghost-KiB", "backend"});
  bool all_ok = true;
  for (const auto& r : results) {
    out.row()
        .add(r.label)
        .add(r.ok ? "yes" : ("FAIL: " + r.error))
        .add(r.metrics.steps)
        .add(r.metrics.wall_seconds, 3)
        .add(static_cast<double>(r.metrics.ghost_bytes) / 1024.0, 1)
        .add(r.metrics.kernel_backend);
    all_ok = all_ok && r.ok;
  }
  out.print(std::cout);

  // Per-job bitwise guarantee: every serial/distributed pair of one
  // (scenario, backend) cell must agree exactly, even though all pairs ran
  // interleaved with jobs pinned to other backends.
  if (!soak) {
    int pairs = 0, mismatches = 0;
    const nlh::nonlocal::grid2d grid(n, static_cast<double>(eps) / n);
    for (const auto& scn : scenarios)
      for (const auto& backend : backends) {
        const auto s = fields.find(scn + "/" + backend + "/serial");
        const auto d = fields.find(scn + "/" + backend + "/distributed");
        if (s == fields.end() || d == fields.end()) continue;
        ++pairs;
        const double diff = max_abs_diff(grid, s->second.values, d->second.values);
        if (diff != 0.0) {
          ++mismatches;
          std::cout << "MISMATCH " << scn << "/" << backend
                    << ": max |serial - distributed| = " << diff << "\n";
        }
      }
    std::cout << "\nbitwise serial==distributed pairs: " << pairs - mismatches
              << "/" << pairs << " exact\n";
    all_ok = all_ok && mismatches == 0 && pairs > 0;
  }

  const auto agg = runner.aggregate();
  std::cout << "aggregate: " << agg.jobs_completed << "/" << agg.jobs_submitted
            << " jobs ok, " << agg.total_steps << " steps, "
            << static_cast<double>(agg.ghost_bytes) / (1024.0 * 1024.0)
            << " MiB ghost traffic, " << agg.wall_seconds << " s wall, "
            << agg.jobs_per_second << " jobs/s\n";

  if (hibernate && runner.hibernation()) {
    const auto* hib = runner.hibernation();
    const auto st = hib->current_stats();
    const double ratio =
        st.bytes_encoded > 0
            ? static_cast<double>(st.bytes_raw) / static_cast<double>(st.bytes_encoded)
            : 0.0;
    std::cout << "hibernation: " << hib->session_count() << " tenants held, "
              << hib->resident_count() << " resident (cap " << resident_cap
              << "), " << st.hibernates << " hibernates / " << st.restores
              << " restores, " << st.bytes_raw / 1024 << " KiB raw -> "
              << st.bytes_encoded / 1024 << " KiB cold (" << ratio << "x)\n";
    // The service claim (docs/checkpoint.md): the runner holds at least 4x
    // more tenant sessions than the resident cap keeps in memory, and
    // multi-round tenants really made the cold-storage round trip.
    if (hib->session_count() < 4 * static_cast<std::size_t>(resident_cap)) {
      std::cout << "FAIL: only " << hib->session_count() << " tenants held for "
                << "resident cap " << resident_cap << " (need >= 4x)\n";
      all_ok = false;
    }
    if (rounds > 1 && st.restores == 0) {
      std::cout << "FAIL: multi-round tenants never restored from cold storage\n";
      all_ok = false;
    }
  }

  if (!json_path.empty()) write_json(json_path, agg, results, soak);

  if (!metrics_path.empty()) {
    runner.dump_metrics(metrics_path);
    std::cout << "metrics snapshot written to " << metrics_path << "\n";
  }
  if (!trace_path.empty()) {
    nlh::obs::set_tracing_enabled(false);
    if (nlh::obs::write_chrome_trace(trace_path))
      std::cout << "trace timeline written to " << trace_path
                << " (load in ui.perfetto.dev or chrome://tracing)\n";
    else
      all_ok = false;
  }

  return all_ok ? 0 : 1;
} catch (const std::exception& e) {
  // get_enum and options validation throw with actionable messages.
  std::cerr << "batch_service: " << e.what() << "\n";
  return 2;
}
