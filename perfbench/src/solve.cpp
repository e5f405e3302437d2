///
/// \file solve.cpp
/// \brief The three closed-loop solve workloads: one client calls
/// `solver_handle::step()` back to back through `api::session`.
///
/// dist_pulse_sd24       distributed gaussian_pulse in the paper's regime
///                       (24-DP SDs, eps 4, 2 localities x 2 threads).
/// serial_manufactured   the serial reference solver on the manufactured
///                       problem: the single-threaded baseline, dominated by
///                       the scenario source term.
/// dist_lshape_rebalance distributed lshape on a block partition with the
///                       live Algorithm 1 rebalancer at its default policy.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "api/scenario.hpp"
#include "api/session.hpp"
#include "bench.hpp"
#include "obs/trace_export.hpp"

namespace perfbench {
namespace {

using nlh::api::session;
using nlh::api::session_options;

/// How a solve workload proves its output.
enum class check_kind {
  bitwise_vs_serial,  ///< final field == a serial run of the same options
  error_vs_exact,     ///< max-relative error against the exact solution
};

struct solve_spec {
  session_options opt;
  check_kind check = check_kind::bitwise_vs_serial;
  double error_bound = 0.0;  ///< error_vs_exact only
};

constexpr int kSetupReps = 15;
/// Steps of the pre-warm session, run and discarded before the set-up
/// repetitions: the first work of a process on an idle virtual machine
/// runs slow (vCPU wake-up, page faults, allocator growth), and it would
/// land in setup_s. Fewer than kRssStep, so the pre-warm session's memory
/// high-water mark stays below the measured session's.
constexpr int kPrewarmSteps = 150;
/// Steps of the measured session run before its timed phase. A count, not
/// a time, so every build does the same work before the timed phase and the
/// peak RSS read below.
constexpr int kWarmupSteps = 100;
/// Steps per chunk of the interleaved (traced) measurement.
constexpr int kChunkSteps = 10;
/// Steps since session construction after which the peak RSS is read.
constexpr int kRssStep = 400;
/// Ring capacity for traced solve runs: one 10-step chunk of the 24-DP
/// distributed workload records ~1.5e4 events per worker thread.
constexpr std::size_t kTraceRing = std::size_t{1} << 17;

double get_gauge(const nlh::obs::metrics_snapshot& s, const std::string& n) {
  for (const auto& [k, v] : s.gauges)
    if (k == n) return v;
  return 0.0;
}

std::uint64_t get_counter(const nlh::obs::metrics_snapshot& s, const std::string& n) {
  for (const auto& [k, v] : s.counters)
    if (k == n) return v;
  return 0;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// DPs one step updates: the material domain (masked SDs carry none).
double dps_per_step(session& s) {
  const auto& o = s.options();
  const double all = static_cast<double>(o.n) * o.n;
  if (o.mode != nlh::api::execution_mode::distributed) return all;
  const auto& m = s.mask();
  return all * m.num_active() / static_cast<double>(o.sd_grid * o.sd_grid);
}

wl_result run_solve(const solve_spec& sp, const run_config& cfg) {
  wl_result r;
  const bool dist = sp.opt.mode == nlh::api::execution_mode::distributed;

  {
    session warm(sp.opt);
    warm.solver().run(kPrewarmSteps);
  }

  // --- Set-up: construction through the first completed step, repeated.
  std::unique_ptr<session> s;
  std::vector<double> build_s, first_s;
  ring_capacity rings;
  for (int k = 0; k < kSetupReps; ++k) {
    // The measured session's workers must start with the traced capacity.
    if (k == kSetupReps - 1 && cfg.mode != run_mode::plain) rings.set(kTraceRing);
    s.reset();
    const auto t0 = clock_type::now();
    s = std::make_unique<session>(sp.opt);
    s->solver();
    const double built = seconds_since(t0);
    s->solver().step();
    const double total = seconds_since(t0);
    r.setup_s.push_back(total);
    build_s.push_back(built);
    first_s.push_back(total - built);
  }
  auto& h = s->solver();
  r.layer["api.session_build_s"] = median(build_s);
  r.layer["api.first_step_s"] = median(first_s);
  const double dps = dps_per_step(*s);

  // Per-step balance sampling through the observer (traced runs only):
  // an epoch is "improving" when it lowered the imbalance it measured.
  std::uint64_t seen_epochs = 0, improving = 0;
  if (cfg.mode != run_mode::plain && sp.opt.auto_rebalance.enabled) {
    h.set_observer([&](const nlh::api::step_event&) {
      const auto m = h.metrics();
      if (m.rebalance_epochs > seen_epochs) {
        if (m.rebalance_imbalance_after < m.rebalance_imbalance_before) ++improving;
        seen_epochs = m.rebalance_epochs;
      }
    });
  }

  auto read_rss_at_fixed_step = [&] {
    if (r.rss_mb == 0.0 && h.current_step() == kRssStep) r.rss_mb = peak_rss_mb();
  };

  // --- Warm-up: caches, page faults, pool wake-up patterns.
  for (int k = 0; k < kWarmupSteps; ++k) {
    h.step();
    read_rss_at_fixed_step();
  }

  const auto m0 = h.metrics();
  const auto snap0 = h.metrics_snapshot();

  // --- Measured phase.
  std::vector<double> traced_rates, plain_rates;
  windows win(cfg.seconds);
  step_breakdown bd;
  std::uint64_t events = 0, dropped = 0;
  long long traced_steps = 0;
  bool chrome_written = false;
  const auto t0 = clock_type::now();
  for (int chunk = 0; seconds_since(t0) < cfg.seconds; ++chunk) {
    const bool traced = cfg.mode == run_mode::interleaved && chunk % 2 == 1;
    if (traced) trace_begin_window();
    double chunk_s = 0.0;
    for (int k = 0; k < kChunkSteps; ++k) {
      const auto ts = clock_type::now();
      {
        nlh::obs::span sp_step("bench/step");
        h.step();
      }
      const double dt = seconds_since(ts);
      chunk_s += dt;
      if (!traced) {
        r.op_ms.push_back(dt * 1e3);
        win.add(seconds_since(t0), dps / 1e6, dt * 1e3, dt);
      }
      read_rss_at_fixed_step();
    }
    (traced ? traced_rates : plain_rates).push_back(kChunkSteps * dps / chunk_s / 1e6);
    if (traced) {
      const auto lost = nlh::obs::tracer::instance().dropped();
      const auto ev = trace_take();
      dropped += lost;
      events += ev.size() + lost;
      traced_steps += kChunkSteps;
      bd.add(ev);
      if (!chrome_written) {
        chrome_written = nlh::obs::write_chrome_trace(
            cfg.out_dir + "/" + cfg.stem + ".trace.json", ev,
            nlh::obs::tracer::instance().thread_names());
      }
    }
  }
  r.mdps = win.rate();
  r.notes.push_back(win.describe());
  r.lat_p50_ms = win.latency(0.5);
  r.lat_p75_ms = win.latency(0.75);
  if (r.rss_mb == 0.0) r.rss_mb = peak_rss_mb();

  const auto m1 = h.metrics();
  const auto snap1 = h.metrics_snapshot();
  const int total_steps = h.current_step();
  r.attempted = total_steps;
  r.report.emplace_back("mdps", r.mdps);
  r.report.emplace_back("step_p50_ms", quantile(r.op_ms, 0.5));
  r.report.emplace_back("step_p90_ms", quantile(r.op_ms, 0.9));
  r.report.emplace_back("step_samples", static_cast<double>(r.op_ms.size()));

  // --- Layer observations over the measured phase.
  auto& L = r.layer;
  const double ms = std::max<double>(1, m1.steps - m0.steps);
  L["kernel.mdps"] = get_gauge(snap1, "kernel/mdps");
  if (dist) {
    L["dist.comm_wait_s_per_step"] = (m1.comm_wait_seconds - m0.comm_wait_seconds) / ms;
    L["dist.ghost_bytes_per_step"] = static_cast<double>(m1.ghost_bytes - m0.ghost_bytes) / ms;
    L["dist.messages_per_step"] =
        static_cast<double>(get_counter(snap1, "dist/ghost/messages") -
                            get_counter(snap0, "dist/ghost/messages")) / ms;
    L["dist.early_tasks_per_step"] =
        static_cast<double>(m1.overlap_early_tasks - m0.overlap_early_tasks) / ms;
    double bmin = 1.0, bmax = 0.0;
    for (int l = 0; l < sp.opt.nodes; ++l) {
      const double b = get_gauge(snap1, "amt/pool#" + std::to_string(l) + "/busy_fraction");
      bmin = std::min(bmin, b);
      bmax = std::max(bmax, b);
    }
    L["dist.busy_frac_min"] = bmin;
    L["dist.busy_frac_max"] = bmax;
    L["balance.busy_spread"] = bmax - bmin;
    L["dist.plan_compiles"] = static_cast<double>(get_counter(snap1, "dist/plan/compiles"));
    L["partition.edge_cut"] = s->partition_edge_cut();
    L["partition.balance"] = s->partition_balance();
    L["balance.epochs"] = static_cast<double>(m1.rebalance_epochs);
    L["balance.moves"] = static_cast<double>(m1.rebalance_moves);
    L["balance.imbalance_before"] = m1.rebalance_imbalance_before;
    L["balance.imbalance_after"] = m1.rebalance_imbalance_after;
    if (seen_epochs > 0)
      L["balance.improving_epoch_frac"] =
          static_cast<double>(improving) / static_cast<double>(seen_epochs);
    r.report.emplace_back("rebalance_epochs", static_cast<double>(m1.rebalance_epochs));
    r.report.emplace_back("rebalance_moves", static_cast<double>(m1.rebalance_moves));
  }
  if (traced_steps > 0) {
    const auto parts = bd.per_step();
    auto part = [&](const char* span) {
      const auto it = parts.find(span);
      return it == parts.end() ? 0.0 : it->second;
    };
    for (const char* n : {"step", "drain", "pack_send", "aux", "interior", "strip", "unpack"})
      L[std::string("dist.self_s.") + n] = part((std::string("dist/") + n).c_str());
    L["api.self_s.step"] = part("api/step");
    L["amt.self_s.task"] = part("amt/task");
    L["balance.self_s.epoch"] = part("balance/epoch");
    // Everything the named parts above do not cover: client time outside
    // any library span, plus any other span name.
    double named = 0.0;
    for (const auto& [k, v] : L)
      if (k.find(".self_s.") != std::string::npos) named += v;
    L["dist.step_wall_s"] = bd.wall_s() / static_cast<double>(bd.steps());
    L["dist.unaccounted_s"] = L["dist.step_wall_s"] - named;
    L["obs.events_per_step"] = static_cast<double>(events) / traced_steps;
    L["obs.dropped"] = static_cast<double>(dropped);
    L["obs.trace_overhead_frac"] = 1.0 - median(traced_rates) / median(plain_rates);
    r.notes.push_back("trace breakdown identity error " +
                      std::to_string(bd.identity_error_s() * 1e9 / bd.steps()) +
                      " ns/step over " + std::to_string(bd.steps()) + " traced steps");
    if (bd.identity_error_s() > 1e-6 * bd.wall_s())
      r.fail("trace self times do not sum to the step wall time");
  }
  h.set_observer(nullptr);

  // --- Correctness, outside the timed region.
  if (sp.check == check_kind::bitwise_vs_serial) {
    auto ref_opt = sp.opt;
    ref_opt.mode = nlh::api::execution_mode::serial;
    ref_opt.auto_rebalance = {};
    session ref(ref_opt);
    auto& rh = ref.solver();
    const auto tr = clock_type::now();
    rh.run(total_steps);
    const double ref_s = seconds_since(tr);
    r.notes.push_back("serial reference took " + std::to_string(ref_s) + " s");
    if (dist) {
      const double serial_mdps = total_steps * dps / ref_s / 1e6;
      L["dist.speedup_vs_serial"] = r.mdps / serial_mdps;
      r.report.emplace_back("serial_reference_mdps", serial_mdps);
    }
    if (!bitwise_equal(h.field(), rh.field())) {
      r.fail("final field differs from the serial reference after " +
             std::to_string(total_steps) + " steps");
      r.failed = r.attempted;
    } else {
      r.notes.push_back("final field bitwise equal to serial after " +
                        std::to_string(total_steps) + " steps");
    }
  } else {
    const double err = h.error_vs_exact();
    r.report.emplace_back("error_vs_exact", err);
    if (!(err < sp.error_bound)) {
      r.fail("error_vs_exact " + std::to_string(err) + " exceeds bound " +
             std::to_string(sp.error_bound));
      r.failed = r.attempted;
    }
  }
  s.reset();
  return r;
}

}  // namespace

wl_result run_dist_pulse_sd24(const run_config& cfg) {
  rng g(cfg.seed);
  solve_spec sp;
  auto& o = sp.opt;
  // The seed places and sizes the pulse; the cost per step does not depend
  // on it, so every seed measures the same work.
  const double cx = g.uniform(0.35, 0.65), cy = g.uniform(0.35, 0.65);
  const double sigma = g.uniform(0.08, 0.12);
  o.custom_scenario = std::make_shared<nlh::api::gaussian_pulse_scenario>(cx, cy, sigma);
  o.mode = nlh::api::execution_mode::distributed;
  o.n = 384;
  o.epsilon_factor = 4;
  o.sd_grid = 16;
  o.nodes = 2;
  o.threads_per_locality = 2;
  o.partitioner = nlh::api::partition_strategy::multilevel;
  return run_solve(sp, cfg);
}

wl_result run_serial_manufactured(const run_config& cfg) {
  rng g(cfg.seed);
  solve_spec sp;
  auto& o = sp.opt;
  // The seed picks the conductivity (and with it dt); the manufactured
  // source is exact at the discrete level for any value.
  o.conductivity = g.uniform(0.8, 1.2);
  o.scenario = "manufactured";
  o.mode = nlh::api::execution_mode::serial;
  o.n = 384;
  o.epsilon_factor = 4;
  sp.check = check_kind::error_vs_exact;
  sp.error_bound = 1e-3;
  return run_solve(sp, cfg);
}

wl_result run_dist_lshape_rebalance(const run_config& cfg) {
  solve_spec sp;
  auto& o = sp.opt;
  // lshape has no parameters: every seed runs the same input.
  o.scenario = "lshape";
  o.mode = nlh::api::execution_mode::distributed;
  o.n = 384;
  o.epsilon_factor = 4;
  o.sd_grid = 16;
  o.nodes = 4;
  o.threads_per_locality = 1;
  o.partitioner = nlh::api::partition_strategy::block;
  o.auto_rebalance.enabled = true;
  return run_solve(sp, cfg);
}

}  // namespace perfbench
