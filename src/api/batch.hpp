#pragma once
///
/// \file batch.hpp
/// \brief `batch_runner`: many session jobs multiplexed over one shared
/// AMT thread pool — the multi-tenant service layer of the facade
/// (docs/api.md).
///
/// Each `batch_job` is a complete run description (session_options +
/// step budget); `submit` returns an `amt::future<batch_job_result>`
/// immediately. Admission is FIFO through a `svc::class_scheduler` in its
/// no-QoS configuration (the same dispatcher the `svc` front door uses,
/// docs/service.md): at most `batch_options::max_concurrent_jobs` jobs
/// execute at a time on the shared pool, each building its own `session` —
/// so jobs with different scenarios, kernel backends and execution modes run
/// concurrently in one process, each keeping its bitwise guarantees
/// (per-session backends, `tests/batch_test.cpp`). Aggregate throughput
/// metrics (jobs/sec, wall, ghost bytes) accumulate as jobs complete.
///
/// Job failures (invalid options, scenario errors, anything thrown while
/// stepping) are captured per job into `batch_job_result::error` — one
/// bad tenant never takes down the batch or the pool.
///

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "amt/future.hpp"
#include "amt/thread_pool.hpp"
#include "api/session.hpp"
#include "ckpt/hibernation.hpp"
#include "obs/metrics.hpp"
#include "svc/scheduler.hpp"

namespace nlh::api {

/// One unit of batch work: a full session description plus scheduling
/// metadata.
struct batch_job {
  session_options options;
  /// Steps to advance; 0 = options.num_steps.
  int num_steps = 0;
  /// Identifier echoed into the result; empty = "job-<sequence>".
  std::string label;
  /// Empty (the default) keeps the historical behaviour: the job builds
  /// its own session and destroys it at completion. Non-empty names a
  /// *persistent tenant*: the runner keeps one session per key alive
  /// across jobs (later jobs continue where earlier ones stopped; their
  /// `options` are ignored after the first), runs same-key jobs strictly
  /// serially, and — when `batch_options::hibernation` is enabled — parks
  /// idle tenants to cold storage under the LRU resident cap
  /// (docs/checkpoint.md).
  std::string session_key;
  /// Admission-class label for the per-class queue-wait split: the job's
  /// submit -> start wait is recorded both into the aggregate
  /// `api/batch/queue_wait_seconds` and into
  /// `api/batch/queue_wait_seconds/<admission_class>` (empty = "default").
  /// Purely observational here — the runner admits FIFO; differentiated
  /// scheduling lives in `src/svc/` (docs/service.md). The
  /// split is what makes the no-QoS batch path and the `svc` path
  /// comparable class-by-class in one metrics snapshot.
  std::string admission_class;
  /// Optional hook run on the worker after the steps complete (and before
  /// the result future resolves) with the job's live session — e.g. to
  /// gather the field or compute error-vs-exact. Exceptions it throws fail
  /// the job like any stepping error.
  std::function<void(session&)> on_complete;
};

/// Outcome of one job; `metrics` is meaningful only when `ok`.
struct batch_job_result {
  std::string label;
  bool ok = false;
  std::string error;  ///< what() of the failure when !ok
  runtime_metrics metrics;
};

struct batch_options {
  /// Workers of the shared AMT pool. Each *running* job occupies one
  /// worker for its whole duration, so keep pool_threads >=
  /// max_concurrent_jobs (distributed jobs additionally spin their own
  /// per-locality solver pools, as they do outside the batch).
  unsigned pool_threads = 4;
  /// Admission cap: jobs executing simultaneously.
  int max_concurrent_jobs = 2;
  /// Hibernation of idle persistent tenants (docs/checkpoint.md): when
  /// enabled, at most `hibernation.resident_cap` tenant sessions stay in
  /// memory; the least-recently-used parked ones are compressed to cold
  /// storage and transparently restored when their next job is admitted.
  /// Ignored for key-less (ephemeral) jobs.
  ckpt::hibernation_options hibernation;
};

/// Aggregate counters over every job this runner has seen.
struct batch_metrics {
  int jobs_submitted = 0;
  int jobs_completed = 0;  ///< finished OK
  int jobs_failed = 0;
  int jobs_abandoned = 0;  ///< shed by drain() before admission
  long long total_steps = 0;         ///< sum over completed jobs
  std::uint64_t ghost_bytes = 0;     ///< sum over completed jobs
  double wall_seconds = 0.0;         ///< first submit -> last completion
  double jobs_per_second = 0.0;      ///< completed / wall_seconds
  /// Submit -> execution-start latency over every started job (seconds):
  /// the admission-queue + worker-pickup wait a tenant experiences.
  obs::histogram_summary queue_wait;
  /// Execution wall time over every finished job, failed ones included.
  obs::histogram_summary job_duration;
};

/// Validate `opt`, one actionable message per offence; empty = valid.
std::vector<std::string> validate(const batch_options& opt);

class batch_runner {
 public:
  /// Throws std::invalid_argument when validate(opt) reports problems.
  explicit batch_runner(batch_options opt = {});
  /// Waits for every submitted job (futures handed out stay valid — the
  /// shared state outlives the runner).
  ~batch_runner();

  batch_runner(const batch_runner&) = delete;
  batch_runner& operator=(const batch_runner&) = delete;

  /// Queue one job; returns its result future immediately. Never throws
  /// on job-level problems — those resolve into batch_job_result::error.
  amt::future<batch_job_result> submit(batch_job job);

  /// Queue many jobs at once (same ordering semantics as repeated submit
  /// calls).
  std::vector<amt::future<batch_job_result>> submit_all(std::vector<batch_job> jobs);

  /// Block until every submitted job has completed.
  void wait_all();

  /// Graceful shutdown: stop admission permanently, wait up to
  /// `timeout_seconds` (< 0 = forever) for in-flight jobs to finish, and
  /// fail every job that never started fast with a distinct
  /// "abandoned: ..." error. `abandoned` counts those jobs (queued ones and
  /// ones waiting behind their busy tenant); `still_running` is 0 on a
  /// clean drain — the runner keeps waiting for stragglers in its
  /// destructor either way. Jobs submitted afterwards also fail fast.
  /// Idempotent — a second call just re-waits on whatever is still running.
  svc::class_scheduler::drain_report drain(double timeout_seconds);

  /// Snapshot of the aggregate counters (safe any time; wall_seconds of a
  /// still-running batch reads "so far").
  batch_metrics aggregate() const;

  /// aggregate() plus the per-job step-latency summaries of every
  /// completed job, as `api/batch/...` / `api/job/<label>/...` instruments.
  obs::metrics_snapshot metrics_snapshot() const;
  /// Write metrics_snapshot() as JSON to `path` (obs/metrics_export.hpp).
  void dump_metrics(const std::string& path) const;

  const batch_options& options() const { return opt_; }
  /// The shared pool (e.g. for co-scheduling caller work).
  amt::thread_pool& pool() { return pool_; }
  /// The tenant hibernation manager; null when
  /// batch_options::hibernation.enabled was false.
  ckpt::hibernation_manager* hibernation() { return hib_.get(); }
  const ckpt::hibernation_manager* hibernation() const { return hib_.get(); }
  /// Persistent tenants currently alive (resident + hibernated).
  std::size_t tenant_count() const;

 private:
  /// One submission; shared by the scheduler's run and shed closures
  /// (exactly one of them fires) or parked behind its busy tenant.
  struct job_ctx {
    batch_job job;
    amt::promise<batch_job_result> done;
    std::uint64_t seq = 0;
    std::chrono::steady_clock::time_point submitted;  ///< queue-wait origin
  };
  using job_ptr = std::shared_ptr<job_ctx>;

  /// Hand a job to the scheduler; a refusal (drain started) abandons it.
  /// A keyed job holds its tenant when dispatched.
  void dispatch(job_ptr j);
  /// Runs on a pool worker: build (or reactivate) the session, step,
  /// pass the tenant on, fulfill the promise.
  void execute(const job_ptr& j);
  /// The persistent-tenant body of execute(): reuse/build the keyed
  /// session, activate/park around the run. Tenant metrics span the
  /// tenant's whole life, so the job is charged deltas (`steps_done`,
  /// `ghost_delta`), not the cumulative counters.
  void execute_tenant(job_ctx& j, batch_job_result& res,
                      long long& steps_done, std::uint64_t& ghost_delta);
  /// Called by the job holding `key`'s tenant when it ends: dispatch the
  /// tenant's next waiting job, or mark the tenant idle. While draining,
  /// waiting jobs stay where drain() abandons them.
  void release_tenant(const std::string& key);
  /// Fail a job that never ran with an "abandoned: ..." `why`.
  void abandon(const job_ptr& j, const char* why, bool holds_tenant);

  batch_options opt_;
  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;
  batch_metrics agg_;
  bool clock_started_ = false;
  std::chrono::steady_clock::time_point first_submit_;
  /// Latency instruments (internally synchronized) and the completed jobs'
  /// step-latency summaries (guarded by mu_) for metrics_snapshot().
  obs::histogram queue_wait_hist_;
  obs::histogram job_duration_hist_;
  /// Queue-wait split by batch_job::admission_class ("" -> "default"),
  /// exported as `api/batch/queue_wait_seconds/<class>`. Map insertion is
  /// guarded by mu_; node addresses are stable, and the histograms are
  /// internally synchronized, so recording happens outside the lock.
  std::map<std::string, obs::histogram> queue_wait_by_class_;
  std::vector<std::pair<std::string, obs::histogram_summary>> job_step_latency_;
  /// Per-job auto-rebalancing observables (guarded by mu_), recorded only
  /// for jobs that ran with `auto_rebalance.enabled` — exported as
  /// `api/job/<label>/balance/...` so a soak's metrics JSON proves the live
  /// rebalancer ran (docs/balance.md).
  struct job_rebalance {
    std::string label;
    std::uint64_t epochs = 0;
    std::uint64_t moves = 0;
    double imbalance_before = 0.0;
    double imbalance_after = 0.0;
  };
  std::vector<job_rebalance> job_rebalance_;
  /// Persistent tenants (batch_job::session_key); guarded by mu_. While
  /// `busy`, exactly one of the tenant's jobs is with the scheduler
  /// (queued or running) and later ones wait in `waiting`, FIFO — same-key
  /// jobs run strictly serially, which is also what keeps the hibernation
  /// callbacks race-free. Sessions are heap-stable: execute() touches them
  /// outside mu_ while their busy flag protects them.
  struct tenant {
    std::unique_ptr<session> sess;
    bool busy = false;
    bool registered = false;  ///< added to hib_ already
    std::deque<job_ptr> waiting;
  };
  std::map<std::string, tenant> tenants_;
  /// LRU hibernation of parked tenants; null unless
  /// batch_options::hibernation.enabled.
  std::unique_ptr<ckpt::hibernation_manager> hib_;
  /// FIFO admission and the concurrency cap. Declared before pool_ (as in
  /// svc::service_loop): pool tasks call back into sched_, so the pool
  /// joins its workers first; the constructor only stores the pool.
  svc::class_scheduler sched_;
  amt::thread_pool pool_;  ///< last member: joins before the state above dies
};

}  // namespace nlh::api
