///
/// \file traffic_gen.cpp
/// \brief MMPP trace generation, checksum and open-loop replay.
///

#include "svc/traffic_gen.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "support/rng.hpp"
#include "support/validate.hpp"

namespace nlh::svc {

std::vector<std::string> traffic_options::validate() const {
  std::vector<std::string> errs;
  if (arrivals < 0)
    errs.push_back("traffic_options.arrivals: must be >= 0 (got " +
                   std::to_string(arrivals) + ")");
  if (duration_seconds < 0.0)
    errs.push_back("traffic_options.duration_seconds: must be >= 0");
  if (arrivals == 0 && duration_seconds <= 0.0)
    errs.push_back(
        "traffic_options: set arrivals > 0 or duration_seconds > 0 — an "
        "empty trace generates nothing");
  if (!(mean_rate > 0.0))
    errs.push_back("traffic_options.mean_rate: must be > 0 (got " +
                   std::to_string(mean_rate) + ")");
  if (!(burst_factor >= 1.0))
    errs.push_back("traffic_options.burst_factor: must be >= 1 (1 = plain "
                   "Poisson; got " +
                   std::to_string(burst_factor) + ")");
  if (!(mean_on_seconds > 0.0) || !(mean_off_seconds > 0.0))
    errs.push_back("traffic_options.mean_on_seconds/mean_off_seconds: phase "
                   "means must be > 0");
  if (tenants < 1)
    errs.push_back("traffic_options.tenants: must be >= 1 (got " +
                   std::to_string(tenants) + ")");
  if (interactive_fraction < 0.0 || batch_fraction < 0.0 ||
      interactive_fraction + batch_fraction > 1.0)
    errs.push_back("traffic_options.interactive_fraction/batch_fraction: "
                   "must be >= 0 and sum to <= 1 (soak takes the remainder)");
  if (n < 4)
    errs.push_back("traffic_options.n: must be >= 4 (got " +
                   std::to_string(n) + ")");
  if (steps_interactive < 1 || steps_batch < 1 || steps_soak < 1)
    errs.push_back("traffic_options.steps_*: every class needs >= 1 step");
  return errs;
}

namespace {

/// Exponential sample with the given mean; 1 - U keeps log's argument > 0.
double exp_sample(support::rng& r, double mean) {
  return -mean * std::log(1.0 - r.next_double());
}

}  // namespace

std::vector<arrival> generate_traffic(const traffic_options& opt) {
  support::throw_if_invalid("traffic_options", opt.validate());

  support::rng r(opt.seed);
  std::vector<arrival> trace;
  if (opt.arrivals > 0) trace.reserve(static_cast<std::size_t>(opt.arrivals));

  double t = 0.0;
  bool burst = false;  // start quiet; the first burst phase is drawn below
  double phase_end = exp_sample(r, opt.mean_off_seconds);
  std::uint64_t id = 0;

  const auto done = [&] {
    if (opt.arrivals > 0)
      return static_cast<int>(trace.size()) >= opt.arrivals;
    return t >= opt.duration_seconds;
  };

  while (!done()) {
    const double rate =
        burst ? opt.mean_rate * opt.burst_factor : opt.mean_rate;
    const double dt = exp_sample(r, 1.0 / rate);
    if (t + dt >= phase_end) {
      // Phase boundary before the next arrival: switch state and redraw
      // the interarrival at the new rate (memorylessness makes the
      // restart exact, not an approximation).
      t = phase_end;
      burst = !burst;
      phase_end =
          t + exp_sample(r, burst ? opt.mean_on_seconds : opt.mean_off_seconds);
      continue;
    }
    t += dt;
    if (opt.arrivals == 0 && t >= opt.duration_seconds) break;

    arrival a;
    a.t = t;
    a.id = id++;
    a.tenant = "tenant-" + std::to_string(r.uniform_int(0, opt.tenants - 1));
    const double u = r.next_double();
    if (u < opt.interactive_fraction)
      a.cls = qos_class::interactive;
    else if (u < opt.interactive_fraction + opt.batch_fraction)
      a.cls = qos_class::batch;
    else
      a.cls = qos_class::soak;

    a.job.options.scenario = opt.scenario;
    a.job.options.mode = api::execution_mode::serial;
    a.job.options.n = opt.n;
    a.job.options.epsilon_factor = opt.eps_factor;
    a.job.options.kernel_backend = opt.kernel_backend;
    const int steps = a.cls == qos_class::interactive ? opt.steps_interactive
                      : a.cls == qos_class::batch    ? opt.steps_batch
                                                     : opt.steps_soak;
    a.job.options.num_steps = steps;
    a.job.num_steps = steps;
    a.job.label = a.tenant + "/" + to_string(a.cls) + "/" + std::to_string(a.id);
    trace.push_back(std::move(a));
  }
  return trace;
}

std::uint64_t trace_checksum(const std::vector<arrival>& trace) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffull;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  const auto mix_str = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const auto& a : trace) {
    mix(static_cast<std::uint64_t>(std::llround(a.t * 1e9)));
    mix(a.id);
    mix_str(a.tenant);
    mix(static_cast<std::uint64_t>(a.cls));
    mix(static_cast<std::uint64_t>(a.job.num_steps));
    mix(static_cast<std::uint64_t>(a.job.options.n));
    mix_str(a.job.label);
  }
  return h;
}

std::vector<amt::future<svc_result>> replay(service_loop& svc,
                                            const std::vector<arrival>& trace,
                                            double time_scale) {
  std::vector<amt::future<svc_result>> futs;
  futs.reserve(trace.size());
  const auto start = std::chrono::steady_clock::now();
  for (const auto& a : trace) {
    if (time_scale > 0.0) {
      const auto due =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(a.t * time_scale));
      std::this_thread::sleep_until(due);
    }
    futs.push_back(svc.submit(a.tenant, a.cls, a.job));
  }
  return futs;
}

}  // namespace nlh::svc
