///
/// \file batch.cpp
/// \brief batch_runner implementation: FIFO admission through
/// svc::class_scheduler, per-tenant serial execution on the shared pool,
/// per-job result promises and aggregate metrics.
///

#include "api/batch.hpp"

#include <limits>
#include <utility>

#include "obs/metrics_export.hpp"
#include "obs/tracer.hpp"
#include "support/stopwatch.hpp"
#include "support/validate.hpp"

namespace nlh::api {

std::vector<std::string> validate(const batch_options& opt) {
  std::vector<std::string> errs;
  if (opt.pool_threads < 1)
    errs.push_back("batch_options.pool_threads: the shared pool needs at least "
                   "1 worker (got " +
                   std::to_string(opt.pool_threads) + ")");
  if (opt.max_concurrent_jobs < 1)
    errs.push_back("batch_options.max_concurrent_jobs: must be at least 1 (got " +
                   std::to_string(opt.max_concurrent_jobs) + ")");
  if (opt.pool_threads >= 1 && opt.max_concurrent_jobs >= 1 &&
      static_cast<unsigned>(opt.max_concurrent_jobs) > opt.pool_threads)
    errs.push_back(
        "batch_options.max_concurrent_jobs: cap " +
        std::to_string(opt.max_concurrent_jobs) + " exceeds pool_threads " +
        std::to_string(opt.pool_threads) +
        "; every running job occupies one worker, so excess slots can never fill");
  if (opt.hibernation.enabled) {
    if (const auto herr = opt.hibernation.validate(); !herr.empty())
      errs.push_back("batch_options." + herr);
  }
  return errs;
}

namespace {

batch_options validated(batch_options opt) {
  support::throw_if_invalid("batch_options", validate(opt));
  return opt;
}

/// FIFO admission is class_scheduler's no-QoS baseline; every batch job is
/// one class, whose queue never refuses (submit never throws or sheds).
svc::scheduler_options fifo_scheduler(const batch_options& opt) {
  svc::scheduler_options s;
  s.qos.enabled = false;
  s.qos.batch.queue_cap = std::numeric_limits<int>::max();
  s.max_concurrent = opt.max_concurrent_jobs;
  return s;
}

constexpr const char* kClosed =
    "abandoned: batch_runner is draining; admission is closed";
constexpr const char* kDrained =
    "abandoned: batch_runner drained before admission";

}  // namespace

batch_runner::batch_runner(batch_options opt)
    : opt_(validated(std::move(opt))),
      // Batch jobs carry no quota ready-time and QoS is off (no deadlines),
      // so the scheduler's clock never decides anything.
      sched_(fifo_scheduler(opt_), pool_, [] { return 0.0; }),
      pool_(opt_.pool_threads) {
  if (opt_.hibernation.enabled)
    hib_ = std::make_unique<ckpt::hibernation_manager>(opt_.hibernation);
}

batch_runner::~batch_runner() { wait_all(); }

amt::future<batch_job_result> batch_runner::submit(batch_job job) {
  auto j = std::make_shared<job_ctx>();
  j->job = std::move(job);
  auto fut = j->done.get_future();
  bool refused = false, parked = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    j->seq = next_seq_++;
    j->submitted = std::chrono::steady_clock::now();
    if (j->job.label.empty()) j->job.label = "job-" + std::to_string(j->seq);
    if (!clock_started_) {
      clock_started_ = true;
      first_submit_ = j->submitted;
    }
    ++agg_.jobs_submitted;
    NLH_TRACE_INSTANT("api/job_submit", j->seq);
    // Checked under mu_, so drain() (which sets draining before it
    // collects the waiting jobs under mu_) never misses a parked job.
    if (sched_.draining()) {
      refused = true;
    } else if (!j->job.session_key.empty()) {
      auto& t = tenants_[j->job.session_key];
      parked = t.busy;
      if (parked) t.waiting.push_back(j);  // its turn comes in release_tenant
      t.busy = true;
    }
  }
  if (refused)
    abandon(j, kClosed, /*holds_tenant=*/false);
  else if (!parked)
    dispatch(std::move(j));
  return fut;
}

std::vector<amt::future<batch_job_result>> batch_runner::submit_all(
    std::vector<batch_job> jobs) {
  std::vector<amt::future<batch_job_result>> futs;
  futs.reserve(jobs.size());
  for (auto& j : jobs) futs.push_back(submit(std::move(j)));
  return futs;
}

void batch_runner::dispatch(job_ptr j) {
  svc::sched_item item;
  item.cls = svc::qos_class::batch;
  item.seq = j->seq;
  item.run = [this, j] { execute(j); };
  item.shed = [this, j](const std::string&) {
    abandon(j, kDrained, /*holds_tenant=*/true);
  };
  if (sched_.enqueue(std::move(item)) != svc::class_scheduler::enqueue_result::queued)
    abandon(j, kClosed, /*holds_tenant=*/true);
}

void batch_runner::release_tenant(const std::string& key) {
  job_ptr next;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto& t = tenants_.at(key);
    if (t.waiting.empty() || sched_.draining()) {
      t.busy = false;
      return;
    }
    next = std::move(t.waiting.front());
    t.waiting.pop_front();
  }
  dispatch(std::move(next));  // the tenant stays busy: `next` holds it now
}

void batch_runner::abandon(const job_ptr& j, const char* why, bool holds_tenant) {
  NLH_TRACE_INSTANT("api/job_abandon", j->seq);
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++agg_.jobs_abandoned;
  }
  if (holds_tenant && !j->job.session_key.empty()) release_tenant(j->job.session_key);
  batch_job_result res;
  res.label = j->job.label;
  res.error = why;
  j->done.set_value(std::move(res));
}

void batch_runner::execute(const job_ptr& j) {
  batch_job_result res;
  // The job span closes before the promise resolves, so a caller that
  // snapshots the tracer right after the last future fires sees every job.
  {
    NLH_TRACE_INSTANT("api/job_admit", j->seq);
    NLH_TRACE_SPAN_ARG("api/job", j->seq);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - j->submitted)
                              .count();
    queue_wait_hist_.record(waited);
    {
      // Per-admission-class split: insertion under mu_, recording outside
      // (node addresses are stable; the histogram is thread-safe).
      const std::string& cls = j->job.admission_class.empty()
                                   ? std::string("default")
                                   : j->job.admission_class;
      obs::histogram* h = nullptr;
      {
        std::lock_guard<std::mutex> lk(mu_);
        h = &queue_wait_by_class_[cls];
      }
      h->record(waited);
    }
    support::stopwatch job_sw;
    res.label = j->job.label;
    long long steps_done = 0;
    std::uint64_t ghost_delta = 0;
    try {
      if (j->job.session_key.empty()) {
        // Ephemeral job: the session lives and dies with it.
        session s(j->job.options);
        auto& h = s.solver();
        const int steps =
            j->job.num_steps > 0 ? j->job.num_steps : j->job.options.num_steps;
        h.run(steps);
        if (j->job.on_complete) j->job.on_complete(s);
        res.metrics = h.metrics();
        res.ok = true;
        steps_done = res.metrics.steps;
        ghost_delta = res.metrics.ghost_bytes;
      } else {
        execute_tenant(*j, res, steps_done, ghost_delta);
      }
    } catch (const std::exception& e) {
      res.error = e.what();
    } catch (...) {
      res.error = "unknown exception";
    }

    job_duration_hist_.record(job_sw.elapsed_s());
    std::lock_guard<std::mutex> lk(mu_);
    if (res.ok) {
      ++agg_.jobs_completed;
      agg_.total_steps += steps_done;
      agg_.ghost_bytes += ghost_delta;
      job_step_latency_.emplace_back(res.label, res.metrics.step_latency);
      if (j->job.options.auto_rebalance.enabled)
        job_rebalance_.push_back({res.label, res.metrics.rebalance_epochs,
                                  res.metrics.rebalance_moves,
                                  res.metrics.rebalance_imbalance_before,
                                  res.metrics.rebalance_imbalance_after});
    } else {
      ++agg_.jobs_failed;
    }
    agg_.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - first_submit_)
                            .count();
  }
  // Still inside the pool task, so the tenant's next job is queued before
  // the scheduler frees this slot: wait_all() never sees a gap.
  if (!j->job.session_key.empty()) release_tenant(j->job.session_key);
  // Fulfill outside mu_: user continuations attached to the future run
  // inline here and must be free to call back into the runner.
  j->done.set_value(std::move(res));
}

void batch_runner::execute_tenant(job_ctx& j, batch_job_result& res,
                                  long long& steps_done,
                                  std::uint64_t& ghost_delta) {
  const std::string& key = j.job.session_key;
  tenant* t = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    t = &tenants_[key];  // busy since admission, so the slot is ours alone
  }
  if (!t->sess) {
    // First job of this key builds the session. The batch manager owns
    // hibernation for tenants, so the session's own single-entry manager
    // stays off; the batch-level codec choice rides along for the frame
    // encoding of export_and_release().
    session_options o = j.job.options;
    o.hibernation.enabled = false;
    if (hib_) o.hibernation.codec = opt_.hibernation.codec;
    t->sess = std::make_unique<session>(std::move(o));
  }
  auto& h = t->sess->solver();
  if (hib_ && !t->registered) {
    ckpt::hibernation_manager::callbacks cb;
    auto* hp = &h;
    cb.snapshot_and_release = [hp](net::byte_buffer reuse) {
      return hp->export_and_release(std::move(reuse));
    };
    cb.restore = [hp](const net::byte_buffer& b) { hp->import_state(b); };
    hib_->add_session(key, std::move(cb));
    t->registered = true;
  }
  if (hib_) hib_->activate(key);
  // Park on every exit (run/on_complete may throw); execute() owns the
  // error reporting.
  struct parked {
    ckpt::hibernation_manager* m;
    const std::string& k;
    ~parked() {
      if (m) m->park(k);
    }
  } guard{hib_.get(), key};
  const runtime_metrics before = h.metrics();
  const int steps =
      j.job.num_steps > 0 ? j.job.num_steps : j.job.options.num_steps;
  h.run(steps);
  if (j.job.on_complete) j.job.on_complete(*t->sess);
  res.metrics = h.metrics();
  res.ok = true;
  steps_done = res.metrics.steps - before.steps;
  ghost_delta = res.metrics.ghost_bytes - before.ghost_bytes;
}

std::size_t batch_runner::tenant_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_.size();
}

void batch_runner::wait_all() { sched_.wait_idle(); }

svc::class_scheduler::drain_report batch_runner::drain(double timeout_seconds) {
  // Queued jobs are shed by the scheduler (abandon(kDrained) each); jobs
  // waiting behind a busy tenant never reached it, so collect them here —
  // draining is already set, so no submit or release_tenant adds more.
  auto rep = sched_.drain(timeout_seconds);
  std::vector<job_ptr> waiting;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& kv : tenants_) {
      auto& q = kv.second.waiting;
      waiting.insert(waiting.end(), q.begin(), q.end());
      q.clear();
    }
  }
  for (const auto& j : waiting) abandon(j, kDrained, /*holds_tenant=*/false);
  rep.abandoned += static_cast<int>(waiting.size());
  return rep;
}

batch_metrics batch_runner::aggregate() const {
  std::lock_guard<std::mutex> lk(mu_);
  batch_metrics m = agg_;
  // A still-running batch reads "so far": agg_.wall_seconds is only
  // stamped at job completions, so extend it to now while work remains.
  if (clock_started_ && (sched_.running() > 0 ||
                         sched_.queue_depth(svc::qos_class::batch) > 0))
    m.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - first_submit_)
                         .count();
  if (m.wall_seconds > 0.0)
    m.jobs_per_second = static_cast<double>(m.jobs_completed) / m.wall_seconds;
  m.queue_wait = queue_wait_hist_.summary();
  m.job_duration = job_duration_hist_.summary();
  return m;
}

obs::metrics_snapshot batch_runner::metrics_snapshot() const {
  const auto m = aggregate();
  obs::metrics_snapshot snap;
  snap.add_counter("api/batch/jobs_submitted",
                   static_cast<std::uint64_t>(m.jobs_submitted));
  snap.add_counter("api/batch/jobs_completed",
                   static_cast<std::uint64_t>(m.jobs_completed));
  snap.add_counter("api/batch/jobs_failed",
                   static_cast<std::uint64_t>(m.jobs_failed));
  snap.add_counter("api/batch/jobs_abandoned",
                   static_cast<std::uint64_t>(m.jobs_abandoned));
  snap.add_counter("api/batch/total_steps",
                   static_cast<std::uint64_t>(m.total_steps));
  snap.add_counter("api/batch/ghost_bytes", m.ghost_bytes);
  snap.add_gauge("api/batch/wall_seconds", m.wall_seconds);
  snap.add_gauge("api/batch/jobs_per_second", m.jobs_per_second);
  snap.add_histogram("api/batch/queue_wait_seconds", m.queue_wait);
  snap.add_histogram("api/batch/job_duration_seconds", m.job_duration);
  {
    // Per-admission-class queue-wait split (batch_job::admission_class).
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [cls, h] : queue_wait_by_class_)
      snap.add_histogram("api/batch/queue_wait_seconds/" + cls, h.summary());
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [label, s] : job_step_latency_)
      snap.add_histogram("api/job/" + label + "/step_latency_seconds", s);
    for (const auto& jr : job_rebalance_) {
      const std::string base = "api/job/" + jr.label + "/balance/";
      snap.add_counter(base + "epochs", jr.epochs);
      snap.add_counter(base + "moves", jr.moves);
      snap.add_gauge(base + "imbalance_before", jr.imbalance_before);
      snap.add_gauge(base + "imbalance_after", jr.imbalance_after);
    }
  }
  if (hib_) hib_->metrics_into(snap);  // ckpt/* tenant-hibernation view
  {
    std::lock_guard<std::mutex> lk(mu_);
    snap.add_gauge("api/batch/tenants", static_cast<double>(tenants_.size()));
  }
  return snap;
}

void batch_runner::dump_metrics(const std::string& path) const {
  obs::write_metrics_json(path, metrics_snapshot());
}

}  // namespace nlh::api
