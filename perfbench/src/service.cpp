///
/// \file service.cpp
/// \brief The two multi-tenant workloads.
///
/// svc_mmpp_open    open loop through svc::service_loop: a seeded two-state
///                  MMPP arrival trace owned by this file (not the library's
///                  traffic generator, so no library change can alter the
///                  load), offered at a fixed rate below capacity, then
///                  replayed back to back to measure capacity.
/// batch_hibernate  closed loop through api::batch_runner: 24 persistent
///                  tenants over 4 resident slots with the delta codec, so
///                  nearly every job restores a parked tenant.

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "api/batch.hpp"
#include "api/scenario.hpp"
#include "api/session.hpp"
#include "bench.hpp"
#include "obs/trace_export.hpp"
#include "svc/service.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 9;
/// Set-up repetitions of batch_hibernate (each takes well under 1 ms).
constexpr int kBatchSetupReps = 15;
/// Rounds of one job per tenant through a discarded runner before the
/// set-up repetitions: the first work of a process on an idle virtual
/// machine runs slow (vCPU wake-up, page faults, allocator growth), and it
/// would land in setup_s.
constexpr int kBatchPrewarmRounds = 4;

/// Trace ring capacity of the long-lived threads (service pool, batch
/// runner pool, client) in traced runs.
constexpr std::size_t kRingLongLived = std::size_t{1} << 18;

void finish_trace(const run_config& cfg, wl_result& r, double steps) {
  if (cfg.mode != run_mode::traced) return;
  const double dropped = static_cast<double>(nlh::obs::tracer::instance().dropped());
  const auto ev = trace_take();
  // Events recorded, kept or overwritten.
  const double recorded = static_cast<double>(ev.size()) + dropped;
  r.layer["obs.events_per_step"] = steps > 0 ? recorded / steps : 0.0;
  r.layer["obs.dropped"] = dropped;
  // The Chrome trace keeps the window's first events only (the file is for
  // looking at, and a full window runs to hundreds of MiB).
  constexpr std::size_t kChromeEvents = 200000;
  const std::vector<nlh::obs::trace_event> head(
      ev.begin(), ev.begin() + static_cast<std::ptrdiff_t>(std::min(ev.size(), kChromeEvents)));
  nlh::obs::write_chrome_trace(cfg.out_dir + "/" + cfg.stem + ".trace.json", head,
                               nlh::obs::tracer::instance().thread_names());
}

// ------------------------------------------------------------ svc_mmpp_open --

/// Job shape of every service request: a small serial session.
constexpr int kSvcN = 24;
constexpr int kSvcEps = 2;
constexpr int kSvcSteps[nlh::svc::qos_class_count] = {2, 6, 12};
constexpr double kSvcMix[nlh::svc::qos_class_count] = {0.5, 0.3, 0.2};
constexpr int kSvcTenants = 8;
/// Mean offered rate (jobs/s) of the open-loop phase: fixed, not derived
/// from a measured capacity, so a faster build faces the same load. Chosen
/// from the measured capacity (back-to-back phase) of a 4-core Xeon virtual
/// machine, 18100-26100 jobs/s over twenty seeds: the high state then
/// offers at most a quarter of it. At twice this rate the high state reached
/// 0.62 of capacity on slow runs and the interactive p75 swung with the
/// host's speed (its spread over ten seeds was twice its median).
constexpr double kOfferedRate = 3000.0;
/// MMPP: the low and high states run at these multiples of the mean rate
/// and last exponentially distributed times with this mean (s).
constexpr double kLowFactor = 0.5, kHighFactor = 1.5, kDwellMean = 0.2;
/// Outstanding requests kept in flight by the back-to-back phases.
constexpr int kCapacityWindow = 32;
/// Requests of the back-to-back warm-up. A fixed count, not a time, so the
/// peak RSS read after the open-loop phase follows the same number of
/// requests on every build.
constexpr std::size_t kWarmupJobs = 24000;
/// How long the client waits for outstanding futures once the service has
/// gone idle (or for a free slot in a back-to-back phase) before it counts
/// the rest as never resolved.
constexpr std::chrono::seconds kResolveTimeout{5};

struct arrival {
  double due_s;
  int cls;
  int tenant;
};

/// Two-state MMPP over [0, duration_s): exponential dwell in each state,
/// Poisson arrivals at the state's rate, class and tenant drawn per arrival.
std::vector<arrival> mmpp_trace(rng& g, double rate, double duration_s) {
  std::vector<arrival> out;
  bool high = g.uniform() < 0.5;
  double t = 0.0;
  double switch_at = g.exponential(1.0 / kDwellMean);
  while (true) {
    const double lambda = rate * (high ? kHighFactor : kLowFactor);
    const double next = t + g.exponential(lambda);
    if (next >= switch_at) {
      // Memoryless: restart the arrival clock at the state switch.
      t = switch_at;
      high = !high;
      switch_at = t + g.exponential(1.0 / kDwellMean);
      if (t >= duration_s) break;
      continue;
    }
    t = next;
    if (t >= duration_s) break;
    const double u = g.uniform();
    int cls = 0;
    for (double acc = kSvcMix[0]; cls + 1 < nlh::svc::qos_class_count && u >= acc;)
      acc += kSvcMix[++cls];
    const int tenant = static_cast<int>(g.next() % kSvcTenants);
    out.push_back({t, cls, tenant});
  }
  // Stretch the time axis so every seed offers exactly `rate` on average:
  // over a few dozen dwell periods the realized mean of an MMPP still
  // wanders by +-15%, which would make the load itself depend on the seed.
  if (!out.empty()) {
    const double stretch = static_cast<double>(out.size()) / (rate * duration_s);
    for (auto& a : out) a.due_s *= stretch;
  }
  return out;
}

/// FNV-1a over the trace, printed so two runs can show they offered the
/// same load.
std::uint64_t trace_checksum(const std::vector<arrival>& tr) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& a : tr) {
    mix(static_cast<std::uint64_t>(a.due_s * 1e9));
    mix(static_cast<std::uint64_t>(a.cls));
    mix(static_cast<std::uint64_t>(a.tenant));
  }
  return h;
}

nlh::svc::svc_job svc_job_of(int cls) {
  nlh::svc::svc_job j;
  j.options.scenario = "gaussian_pulse";
  j.options.mode = nlh::api::execution_mode::serial;
  j.options.n = kSvcN;
  j.options.epsilon_factor = kSvcEps;
  j.num_steps = kSvcSteps[cls];
  return j;
}

nlh::svc::service_options svc_options() {
  nlh::svc::service_options o;
  // Two workers, the generator and the 1 ms ticker leave one of the four
  // cores free, so a host that steals a core stalls queued work less.
  o.pool_threads = 2;
  // Policing runs on every submit but never binds: the per-tenant rate and
  // in-flight cap sit far above what either phase offers a tenant.
  o.default_quota.rate_per_second = 1e6;
  o.default_quota.burst = 1e5;
  o.default_quota.max_in_flight = 4096;
  return o;
}

/// Completion bookkeeping of one submitted request.
struct request {
  clock_type::time_point due;
  clock_type::time_point done;
  int cls = 0;
  bool resolved = false;
  bool ok = false;
  bool shed = false;
  double queue_wait_s = 0.0;  ///< the service's own admission -> start wait
  std::string error;
};

struct tracker {
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = 0;

  void resolve(request& q, nlh::svc::svc_result res) {
    const auto now = clock_type::now();
    std::lock_guard<std::mutex> lk(mu);
    q.done = now;
    q.resolved = true;
    q.ok = res.ok;
    q.shed = res.shed;
    q.queue_wait_s = res.queue_wait_seconds;
    q.error = std::move(res.error);
    --outstanding;
    cv.notify_all();
  }

  /// Waits until at most `limit` requests are outstanding; false when that
  /// takes longer than kResolveTimeout.
  bool wait_at_most(int limit) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, kResolveTimeout, [&] { return outstanding <= limit; });
  }
};

void submit_tracked(nlh::svc::service_loop& svc, tracker& tk, request& q, int tenant,
                    std::vector<double>* submit_us) {
  {
    std::lock_guard<std::mutex> lk(tk.mu);
    ++tk.outstanding;
  }
  const auto ts = clock_type::now();
  nlh::obs::span sp("bench/submit");
  auto fut = svc.submit("tenant-" + std::to_string(tenant),
                        static_cast<nlh::svc::qos_class>(q.cls), svc_job_of(q.cls));
  if (submit_us) submit_us->push_back(seconds_since(ts) * 1e6);
  fut.then([&tk, &q](nlh::amt::future<nlh::svc::svc_result> f) { tk.resolve(q, f.get()); });
}

}  // namespace

wl_result run_svc_mmpp_open(const run_config& cfg) {
  wl_result r;
  rng g(cfg.seed);
  const double open_s = 0.6 * cfg.seconds;
  const double cap_s = 0.4 * cfg.seconds;
  const auto trace = mmpp_trace(g, kOfferedRate, open_s);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(trace_checksum(trace)));
  r.notes.push_back("mmpp trace: " + std::to_string(trace.size()) + " arrivals over " +
                    std::to_string(open_s) + " s, checksum " + buf);

  // --- Set-up: service construction through the first completed job.
  std::unique_ptr<nlh::svc::service_loop> svc;
  std::vector<double> build_s, first_s;
  ring_capacity rings;
  for (int k = 0; k < kSetupReps; ++k) {
    svc.reset();
    if (cfg.mode == run_mode::traced && k == kSetupReps - 1) {
      rings.set(kRingLongLived);
      nlh::obs::tracer::instance().set_thread_name("bench-client");
    }
    const auto t0 = clock_type::now();
    svc = std::make_unique<nlh::svc::service_loop>(svc_options());
    const double built = seconds_since(t0);
    auto res = svc->submit("setup", nlh::svc::qos_class::interactive, svc_job_of(0)).get();
    const double total = seconds_since(t0);
    if (!res.ok) r.fail("set-up job failed: " + res.error);
    r.setup_s.push_back(total);
    build_s.push_back(built);
    first_s.push_back(total - built);
  }
  r.layer["api.session_build_s"] = median(build_s);
  r.layer["api.first_step_s"] = median(first_s);
  tracker tk;
  std::deque<request> reqs;  // stable addresses for the continuations
  // Back to back: the trace's mix with kCapacityWindow requests in flight,
  // until `until` or `max_jobs` submissions. A request that never resolves
  // stops the phase once the window stays full for kResolveTimeout.
  auto back_to_back = [&](clock_type::time_point until, std::size_t max_jobs) {
    for (std::size_t i = 0; i < max_jobs && clock_type::now() < until; ++i) {
      if (!tk.wait_at_most(kCapacityWindow - 1)) break;
      const auto& a = trace[i % trace.size()];
      auto& q = reqs.emplace_back();
      q.cls = a.cls;
      q.due = clock_type::now();
      submit_tracked(*svc, tk, q, a.tenant, nullptr);
    }
    svc->wait_idle();
  };
  back_to_back(clock_type::time_point::max(), kWarmupJobs);
  const std::size_t warm_end = reqs.size();
  if (cfg.mode == run_mode::traced) trace_begin_window();

  // --- Open-loop phase at the fixed offered rate. Latency runs from each
  // arrival's due time, so a stalled generator charges the requests it
  // delayed.
  std::vector<double> late_ms, submit_us;
  const std::size_t open_begin = reqs.size();
  const auto t0 = clock_type::now();
  for (const auto& a : trace) {
    auto& q = reqs.emplace_back();
    q.cls = a.cls;
    q.due = t0 + std::chrono::duration_cast<clock_type::duration>(
                     std::chrono::duration<double>(a.due_s));
    std::this_thread::sleep_until(q.due);
    late_ms.push_back(std::chrono::duration<double, std::milli>(clock_type::now() - q.due).count());
    submit_tracked(*svc, tk, q, a.tenant, &submit_us);
  }
  svc->wait_idle();
  r.rss_mb = peak_rss_mb();
  const std::size_t open_end = reqs.size();

  // --- Capacity phase: completions per second of wall time.
  const auto c0 = clock_type::now();
  const auto c_end = c0 + std::chrono::duration_cast<clock_type::duration>(
                              std::chrono::duration<double>(cap_s));
  back_to_back(c_end, std::numeric_limits<std::size_t>::max());
  // The service is idle, so every future should have resolved; one that
  // has not by the timeout is counted below as never resolved.
  tk.wait_at_most(0);
  const auto st = svc->stats();
  // Continuations that are late still write into `reqs`: tally under the lock.
  std::unique_lock<std::mutex> tally_lock(tk.mu);
  windows cap_jobs(cap_s), cap_work(cap_s), open_lat(open_s);
  for (std::size_t i = open_end; i < reqs.size(); ++i) {
    const auto& q = reqs[i];
    if (!q.ok || q.done >= c_end) continue;
    const double at = std::chrono::duration<double>(q.done - c0).count();
    cap_jobs.add(at, 1.0, -1.0);
    cap_work.add(at, static_cast<double>(kSvcN) * kSvcN * kSvcSteps[q.cls] / 1e6, -1.0);
  }
  // --- Outcomes and correctness: every future resolved, and the service's
  // own books balance (submitted = ok + shed + failed per class).
  long long ok = 0, shed = 0, failed = 0, unresolved = 0;
  double solver_steps = 0.0;
  std::map<std::string, long long> shed_reason;
  std::vector<double> qwait_ms[nlh::svc::qos_class_count];
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& q = reqs[i];
    if (!q.resolved) {
      ++unresolved;
      continue;
    }
    if (q.ok) {
      ++ok;
      if (i >= warm_end) solver_steps += kSvcSteps[q.cls];
      if (i >= open_begin && i < open_end) {
        qwait_ms[q.cls].push_back(q.queue_wait_s * 1e3);
        if (q.cls == 0) {
          r.op_ms.push_back(std::chrono::duration<double, std::milli>(q.done - q.due).count());
          open_lat.add(std::chrono::duration<double>(q.due - t0).count(), 1.0, r.op_ms.back());
        }
      }
    } else if (q.shed) {
      ++shed;
      const auto lp = q.error.find('('), rp = q.error.find(')');
      if (lp != std::string::npos && rp != std::string::npos && rp > lp)
        ++shed_reason[q.error.substr(lp + 1, rp - lp - 1)];
    } else {
      ++failed;
    }
  }
  tally_lock.unlock();
  finish_trace(cfg, r, solver_steps);
  r.attempted = static_cast<long long>(reqs.size());
  r.failed = shed + failed + unresolved;
  if (unresolved > 0) r.fail(std::to_string(unresolved) + " futures never resolved");
  std::uint64_t sub = 0, done = 0;
  for (const auto& c : st.per_class) {
    sub += c.submitted;
    done += c.completed + c.failed + c.shed;
    if (c.submitted != c.completed + c.failed + c.shed)
      r.fail("service books do not balance: submitted != ok + shed + failed");
  }
  // The set-up jobs went through the same service; count them too.
  if (static_cast<long long>(sub) != r.attempted + 1 || done != sub ||
      static_cast<long long>(st.per_class[0].completed + st.per_class[1].completed +
                             st.per_class[2].completed) != ok + 1)
    r.fail("service counters disagree with the client's tally");

  const double cap_jobs_s = cap_jobs.rate();
  r.notes.push_back(cap_work.describe());
  r.mdps = cap_work.rate();
  // The median window by due time, not a best one: the benchmark
  // modulates this load itself, so a best window would mostly be a
  // low-rate one and hide the bursts. A window spans two to three MMPP
  // dwell periods, so the median window carries the usual share of
  // high-state arrivals, while a host stall that hits a few windows drops
  // out.
  r.lat_p50_ms = open_lat.latency(0.5, 0.5);
  r.lat_p75_ms = open_lat.latency(0.75, 0.5);
  r.report.emplace_back("interactive_p50_ms", quantile(r.op_ms, 0.5));
  r.report.emplace_back("interactive_p99_ms", quantile(r.op_ms, 0.99));
  r.report.emplace_back("interactive_samples", static_cast<double>(r.op_ms.size()));
  r.report.emplace_back("capacity_jobs_s", cap_jobs_s);
  r.report.emplace_back("offered_jobs_s", static_cast<double>(trace.size()) / trace.back().due_s);
  // Load of the MMPP's high state as a share of the measured capacity: the
  // open-loop phase is meant to stay below 1 even in bursts.
  r.report.emplace_back("high_state_over_capacity",
                        kHighFactor * kOfferedRate / std::max(1.0, cap_jobs_s));
  r.report.emplace_back("shed_frac", static_cast<double>(shed) / std::max<long long>(1, r.attempted));

  auto& L = r.layer;
  const char* cls_names[] = {"interactive", "batch", "soak"};
  for (int c = 0; c < nlh::svc::qos_class_count; ++c) {
    L[std::string("svc.queue_wait_ms.") + cls_names[c] + ".p50"] = quantile(qwait_ms[c], 0.5);
    L[std::string("svc.queue_wait_ms.") + cls_names[c] + ".p99"] = quantile(qwait_ms[c], 0.99);
  }
  L["svc.submit_us"] = median(submit_us);
  for (const char* reason : {"quota", "queue_full", "expired"})
    L[std::string("svc.shed_frac.") + reason] =
        static_cast<double>(shed_reason[reason]) / static_cast<double>(r.attempted);
  L["svc.quota_delayed"] = static_cast<double>(st.quota_delayed);
  L["bench.gen_late_ms.p50"] = quantile(late_ms, 0.5);
  L["bench.gen_late_ms.p99"] = quantile(late_ms, 0.99);
  svc.reset();
  return r;
}

// ---------------------------------------------------------- batch_hibernate --

namespace {

/// Trace ring capacities (events) for batch_hibernate. Every amt pool
/// worker allocates a ring at start-up that outlives the thread, and each
/// restore of a distributed tenant starts a fresh pool, so at the default
/// capacity (16384 events, 640 KiB) the process grows by ~1.3 MiB per such
/// restore, hundreds of times a second. Untraced runs record nothing and
/// use the minimum; traced runs give the runner's long-lived threads and
/// the client a full ring and the short-lived tenant pools a small one.
/// `obs.rings` reports how many rings the run left behind.
constexpr std::size_t kRingMin = 16, kRingTenantPool = 256;

constexpr int kTenants = 24;
constexpr int kDistTenants = 3;
constexpr int kResidentCap = 4;
constexpr int kTenantN = 32;
constexpr int kJobSteps = 4;
/// Completed jobs after which the peak RSS is read.
constexpr long long kRssJobs = 1500;

nlh::api::session_options tenant_options(rng& g, bool distributed) {
  nlh::api::session_options o;
  // Compact-support pulse: exact zeros outside the radius, the field shape
  // the delta codec is built for.
  o.custom_scenario = std::make_shared<nlh::api::gaussian_pulse_scenario>(
      g.uniform(0.3, 0.7), g.uniform(0.3, 0.7), 0.08, 1.0, 0.3);
  o.n = kTenantN;
  o.epsilon_factor = 4;
  if (distributed) {
    o.mode = nlh::api::execution_mode::distributed;
    o.sd_grid = 2;
    o.nodes = 2;
    o.threads_per_locality = 1;
  }
  return o;
}

nlh::api::batch_options batch_opts(const std::string& dir) {
  nlh::api::batch_options b;
  b.pool_threads = 2;
  b.max_concurrent_jobs = 2;
  b.hibernation.enabled = true;
  b.hibernation.resident_cap = kResidentCap;
  b.hibernation.codec = "delta";
  b.hibernation.directory = dir;
  return b;
}

}  // namespace

wl_result run_batch_hibernate(const run_config& cfg) {
  wl_result r;
  rng g(cfg.seed);
  // Every kTenants / kDistTenants-th tenant runs distributed, at fixed
  // positions in the rotation so every seed schedules the same mix; the
  // seed places each tenant's pulse.
  std::vector<nlh::api::session_options> topt(kTenants);
  for (int i = 0; i < kTenants; ++i)
    topt[static_cast<std::size_t>(i)] = tenant_options(g, i % (kTenants / kDistTenants) == 0);
  const std::string ckpt_root = cfg.out_dir + "/" + cfg.stem + ".ckpt";

  const bool traced = cfg.mode == run_mode::traced;
  ring_capacity rings;
  rings.set(kRingMin);

  {
    nlh::api::batch_runner warm(batch_opts(ckpt_root + "/prewarm"));
    for (int round = 0; round < kBatchPrewarmRounds; ++round)
      for (int t = 0; t < kTenants; ++t) {
        nlh::api::batch_job j;
        j.options = topt[static_cast<std::size_t>(t)];
        j.num_steps = kJobSteps;
        j.session_key = "tenant-" + std::to_string(t);
        if (!warm.submit(std::move(j)).get().ok) r.fail("pre-warm job failed");
      }
  }

  // --- Set-up: runner construction through the first completed job.
  std::unique_ptr<nlh::api::batch_runner> runner;
  std::vector<double> build_s, first_s;
  for (int k = 0; k < kBatchSetupReps; ++k) {
    runner.reset();
    if (traced && k == kBatchSetupReps - 1) {
      rings.set(kRingLongLived);
      nlh::obs::tracer::instance().set_thread_name("bench-client");
    }
    const auto t0 = clock_type::now();
    runner = std::make_unique<nlh::api::batch_runner>(
        batch_opts(ckpt_root + "/runner-" + std::to_string(k)));
    const double built = seconds_since(t0);
    if (traced && k == kBatchSetupReps - 1) rings.set(kRingTenantPool);
    nlh::api::batch_job j;
    j.options = topt[0];
    j.num_steps = kJobSteps;
    auto res = runner->submit(std::move(j)).get();
    const double total = seconds_since(t0);
    if (!res.ok) r.fail("set-up job failed: " + res.error);
    r.setup_s.push_back(total);
    build_s.push_back(built);
    first_s.push_back(total - built);
  }
  r.layer["api.session_build_s"] = median(build_s);
  r.layer["api.first_step_s"] = median(first_s);
  if (cfg.mode == run_mode::traced) trace_begin_window();

  // --- Closed loop: each tenant submits its next job when the previous
  // one resolves.
  struct tenant_state {
    int steps = 0;
    std::vector<double> field;
  };
  std::vector<tenant_state> ts(kTenants);
  struct completion {
    int tenant;
    bool ok;
    std::string error;
    clock_type::time_point submitted, done;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<completion> done_q;
  int outstanding = 0;
  long long jobs = 0, ok_jobs = 0, failed_jobs = 0;

  auto submit = [&](int t) {
    nlh::api::batch_job j;
    j.options = topt[static_cast<std::size_t>(t)];
    j.num_steps = kJobSteps;
    j.session_key = "tenant-" + std::to_string(t);
    auto* st = &ts[static_cast<std::size_t>(t)];
    j.on_complete = [st](nlh::api::session& s) { st->field = s.solver().field(); };
    const auto sub = clock_type::now();
    {
      std::lock_guard<std::mutex> lk(mu);
      ++outstanding;
    }
    ++jobs;
    nlh::obs::span sp("bench/submit");
    runner->submit(std::move(j)).then(
        [&, t, sub](nlh::amt::future<nlh::api::batch_job_result> f) {
          auto res = f.get();
          const auto now = clock_type::now();
          std::lock_guard<std::mutex> lk(mu);
          done_q.push_back({t, res.ok, res.error, sub, now});
          --outstanding;
          cv.notify_all();
        });
  };

  // The measured phase follows the warm-up; jobs count by completion time.
  windows win(cfg.seconds);
  const auto t0 = clock_type::now();
  const auto tw = t0 + std::chrono::duration_cast<clock_type::duration>(
                           std::chrono::duration<double>(kWarmupSeconds));
  const auto t_end = tw + std::chrono::duration_cast<clock_type::duration>(
                              std::chrono::duration<double>(cfg.seconds));
  for (int t = 0; t < kTenants; ++t) submit(t);
  while (true) {
    completion c;
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return !done_q.empty() || outstanding == 0; });
      if (done_q.empty()) break;
      c = std::move(done_q.front());
      done_q.pop_front();
    }
    const bool measured = c.done >= tw && c.done < t_end;
    const double lat_ms = std::chrono::duration<double, std::milli>(c.done - c.submitted).count();
    if (measured) r.op_ms.push_back(lat_ms);
    if (c.ok) {
      if (++ok_jobs == kRssJobs) r.rss_mb = peak_rss_mb();
      ts[static_cast<std::size_t>(c.tenant)].steps += kJobSteps;
      if (measured)
        win.add(std::chrono::duration<double>(c.done - tw).count(), kJobSteps, lat_ms);
    } else {
      ++failed_jobs;
      r.fail("tenant-" + std::to_string(c.tenant) + " job failed: " + c.error);
    }
    if (c.done < t_end) submit(c.tenant);
  }
  runner->wait_all();
  if (r.rss_mb == 0.0) r.rss_mb = peak_rss_mb();
  finish_trace(cfg, r, static_cast<double>(ok_jobs * kJobSteps));

  const auto agg = runner->aggregate();
  const auto hs = runner->hibernation()->current_stats();
  auto& L = r.layer;
  L["batch.queue_wait_ms.p50"] = agg.queue_wait.p50 * 1e3;
  L["batch.queue_wait_ms.p90"] = agg.queue_wait.p90 * 1e3;
  L["ckpt.hibernates"] = static_cast<double>(hs.hibernates);
  L["ckpt.restores"] = static_cast<double>(hs.restores);
  L["ckpt.cold_ratio"] =
      static_cast<double>(hs.restores) / static_cast<double>(std::max<long long>(1, ok_jobs));
  runner.reset();
  std::error_code ec;
  std::filesystem::remove_all(ckpt_root, ec);

  const double tenant_steps_s = win.rate();
  r.notes.push_back(win.describe());
  r.lat_p50_ms = win.latency(0.5);
  r.lat_p75_ms = win.latency(0.75);
  r.mdps = tenant_steps_s * kTenantN * kTenantN / 1e6;
  r.report.emplace_back("tenant_steps_s", tenant_steps_s);
  r.report.emplace_back("job_p50_ms", quantile(r.op_ms, 0.5));
  r.report.emplace_back("job_p90_ms", quantile(r.op_ms, 0.9));
  r.report.emplace_back("job_samples", static_cast<double>(r.op_ms.size()));
  r.report.emplace_back("restores_per_job", L["ckpt.cold_ratio"]);

  // --- Correctness: each tenant's final field equals the same tenant run
  // straight through without hibernation, on the serial reference solver
  // (serial == distributed bitwise is the solver's own guarantee, so a
  // mismatch flags either hibernation or the distributed path).
  long long wrong = 0;
  const auto ref0 = clock_type::now();
  for (int t = 0; t < kTenants; ++t) {
    const auto& st = ts[static_cast<std::size_t>(t)];
    if (st.steps == 0) continue;
    auto ref_opt = topt[static_cast<std::size_t>(t)];
    ref_opt.mode = nlh::api::execution_mode::serial;
    nlh::api::session ref(ref_opt);
    ref.solver().run(st.steps);
    const auto f = ref.solver().field();
    if (f.size() != st.field.size() ||
        std::memcmp(f.data(), st.field.data(), f.size() * sizeof(double)) != 0) {
      ++wrong;
      r.fail("tenant-" + std::to_string(t) + " field differs from its unhibernated run");
    }
  }
  r.attempted = jobs;
  r.failed = failed_jobs + wrong;
  r.notes.push_back("reference runs took " + std::to_string(seconds_since(ref0)) + " s");
  r.notes.push_back(std::to_string(ok_jobs) + " tenant jobs, " + std::to_string(kTenants - wrong) +
                    "/" + std::to_string(kTenants) + " tenants bitwise equal to unhibernated runs");
  return r;
}

}  // namespace perfbench
