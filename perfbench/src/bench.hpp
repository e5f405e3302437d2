#pragma once
///
/// \file bench.hpp
/// \brief Shared declarations of the repository benchmark program
/// (perfbench/README.md): run configuration, per-workload results, sample
/// statistics, the benchmark-owned RNG and the trace breakdown.
///
/// The program talks to the library only through its public headers. Every
/// timing here is taken on the client side with std::chrono::steady_clock.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/tracer.hpp"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A measured phase cut into windows of about kWindowSeconds. Contention
/// from other tenants of a shared host only ever slows a window down, so a
/// closed loop reports its best windows: the 90th percentile of window
/// rates and the 10th percentile of the windows' latency quantiles. A
/// window holds many steps or jobs, so the system's own periodic costs
/// (rebalance epochs, restores) recur in every window and stay in. Load
/// the benchmark modulates itself does not recur evenly (a best window of
/// an MMPP is mostly a low-rate one), so the open loop takes the median
/// window's latency instead.
class windows {
 public:
  explicit windows(double seconds);
  /// One operation that ended `at_s` seconds into the phase. Operations
  /// of a closed single-client loop pass their duration as `busy_s`; the
  /// window rate is then work per busy second (untimed gaps excluded),
  /// otherwise work per window second.
  void add(double at_s, double work, double latency_ms, double busy_s = 0.0);
  /// Work per second of each window with work in it.
  std::vector<double> rates() const;
  /// 90th percentile over windows of work per second.
  double rate() const { return quantile(rates(), 0.9); }
  /// The window rates as text, for the run record.
  std::string describe() const;
  /// Percentile `over` (default: the best tenth) over windows of each
  /// window's latency quantile q.
  double latency(double q, double over = 0.1) const;

 private:
  std::size_t slot(double at_s) const;
  double w_s_;
  std::vector<std::vector<double>> lat_;
  std::vector<double> work_;
  std::vector<double> busy_;
};

/// Target window length (s) and the fewest windows a phase is cut into.
constexpr double kWindowSeconds = 0.5;
constexpr int kMinWindows = 20;

/// Process peak resident set size in MiB (getrusage).
double peak_rss_mb();

/// splitmix64-seeded xoshiro256**: the benchmark's own generator, so no
/// library change can alter the inputs a seed produces.
class rng {
 public:
  explicit rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Exponential with the given rate (> 0).
  double exponential(double rate);

 private:
  std::uint64_t s_[4];
};

/// How one workload run is measured.
enum class run_mode {
  plain,        ///< untraced end-to-end measurement
  traced,       ///< service/batch: the whole measured phase traced
  interleaved,  ///< closed-loop solve: alternating untraced/traced chunks
};

struct run_config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  run_mode mode = run_mode::plain;
  /// Directory for run artefacts (checkpoint store, Chrome trace).
  std::string out_dir;
  /// Stem of this run's artefact files inside out_dir.
  std::string stem;
};

/// Everything one workload run measured.
struct wl_result {
  std::vector<double> setup_s;  ///< one sample per set-up repetition
  /// DP updates / s over the measured phase (best-quartile window, see
  /// `windows`).
  double mdps = 0.0;
  /// Window latency quantiles of op_ms (see `windows`).
  double lat_p50_ms = 0.0;
  double lat_p75_ms = 0.0;
  /// Peak RSS (MiB) after set-up plus a fixed amount of work (the same on
  /// every run, so a faster build is not charged for doing more work).
  double rss_mb = 0.0;
  /// The workload's client-visible operation latency (ms): step() for the
  /// solve workloads, interactive arrival -> resolution for the service,
  /// submit -> resolution of a tenant job for the batch runner.
  std::vector<double> op_ms;
  long long attempted = 0;
  long long failed = 0;  ///< failed, shed or incorrect operations
  bool correct = true;
  std::vector<std::string> problems;  ///< why `correct` is false
  /// Workload-specific end-to-end figures under their own names
  /// (step_p50_ms, interactive_p99_ms, capacity_jobs_s, ...), printed in
  /// the human-readable report.
  std::vector<std::pair<std::string, double>> report;
  /// Per-layer observations keyed by the BENCHMARK.json per_layer names.
  std::map<std::string, double> layer;
  /// Free-form lines for the human-readable report (checksums, counts).
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

using workload_fn = wl_result (*)(const run_config&);

/// Seconds every workload runs before its measured phase: the first second
/// of work on an idle host runs slow (vCPU wake-up, frequency ramp).
constexpr double kWarmupSeconds = 1.5;

wl_result run_dist_pulse_sd24(const run_config& cfg);
wl_result run_serial_manufactured(const run_config& cfg);
wl_result run_dist_lshape_rebalance(const run_config& cfg);
wl_result run_svc_mmpp_open(const run_config& cfg);
wl_result run_batch_hibernate(const run_config& cfg);

/// Outside-in layer probes (probes.cpp): each times public calls of one
/// layer at the shapes the workloads issue and writes its `layer.*`
/// metrics into `out`.
void run_layer_probes(std::map<std::string, double>& out);

// ------------------------------------------------------------------ trace --

/// Self-time accounting of traced closed-loop steps (trace.cpp). Each
/// "bench/step" span on the client thread is one step; its wall time is
/// split exactly into
///   - the client thread's own innermost span at each instant (api/step,
///     dist/step, balance/epoch, ...), and
///   - while the client is blocked in dist/drain, the innermost spans the
///     other threads run at that instant, each active thread taking an
///     equal share; instants with no worker span charge dist/drain (idle).
/// Time the client spends inside bench/step but outside every library span
/// is the unaccounted remainder. The parts sum to the step wall time.
class step_breakdown {
 public:
  /// Fold one snapshot of events (whole steps only) into the totals.
  void add(const std::vector<nlh::obs::trace_event>& events);
  long long steps() const { return steps_; }
  double wall_s() const { return wall_s_; }
  /// Seconds per step by span name ("" = unaccounted).
  std::map<std::string, double> per_step() const;
  /// |sum of parts - wall| over all folded steps, in seconds.
  double identity_error_s() const;

 private:
  long long steps_ = 0;
  double wall_s_ = 0.0;
  std::map<std::string, double> parts_s_;
};

/// Sets the trace ring capacity for rings created from now on (a ring is
/// sized when its thread first records) and restores the previous value
/// on destruction.
class ring_capacity {
 public:
  ring_capacity();
  ~ring_capacity();
  ring_capacity(const ring_capacity&) = delete;
  ring_capacity& operator=(const ring_capacity&) = delete;
  void set(std::size_t events);

 private:
  std::size_t saved_;
};

/// Tracer helpers: enable + clear, and snapshot + clear.
void trace_begin_window();
std::vector<nlh::obs::trace_event> trace_take();

}  // namespace perfbench
