// Tests for the scenario-lookup error paths (unknown key, null
// custom_scenario fallbacks) and for batch_runner: options validation, FIFO admission under the concurrency
// cap, per-job failure isolation, aggregate metrics, and the
// headline property — a concurrent mixed scenario/backend/mode batch where
// every serial/distributed pair of one (scenario, backend) cell agrees
// bitwise even while tenants pinned to other backends run interleaved.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/batch.hpp"
#include "api/session.hpp"

namespace api = nlh::api;
namespace nl = nlh::nonlocal;

namespace {

bool mentions(const std::vector<std::string>& errs, const std::string& needle) {
  return std::any_of(errs.begin(), errs.end(), [&](const std::string& e) {
    return e.find(needle) != std::string::npos;
  });
}

double max_abs_diff(const nl::grid2d& g, const std::vector<double>& a,
                    const std::vector<double>& b) {
  double m = 0.0;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      m = std::max(m, std::abs(a[g.flat(i, j)] - b[g.flat(i, j)]));
  return m;
}

api::session_options small_options(const std::string& scenario) {
  api::session_options opt;
  opt.scenario = scenario;
  opt.n = 16;
  opt.epsilon_factor = 2;
  opt.num_steps = 3;
  opt.sd_grid = 2;
  opt.nodes = 2;
  return opt;
}

}  // namespace

// ------------------------------------------------- registry error paths --

TEST(RegistryErrors, UnknownKeyThrowsListingRegisteredScenarios) {
  try {
    api::make_scenario("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-scenario"), std::string::npos) << msg;
    for (const char* builtin : {"crack", "gaussian_pulse", "lshape", "manufactured"})
      EXPECT_NE(msg.find(builtin), std::string::npos) << msg;
  }
}

TEST(RegistryErrors, NullCustomScenarioFallsBackToTheRegistryKey) {
  auto opt = small_options("gaussian_pulse");
  opt.custom_scenario = nullptr;  // explicit null = "use the key" (the default)
  api::session session(opt);
  EXPECT_EQ(session.active_scenario().name(), "gaussian_pulse");

  // Null custom scenario plus a bad key is a scenario validation error,
  // not a crash on the null pointer.
  opt.scenario = "definitely-unknown";
  EXPECT_TRUE(mentions(api::session::validate(opt), "session_options.scenario"));
  EXPECT_THROW(api::session{opt}, std::invalid_argument);
}

// -------------------------------------------------- batch_runner options --

TEST(BatchOptions, ValidationNamesTheOffendingField) {
  api::batch_options opt;
  opt.pool_threads = 0;
  opt.max_concurrent_jobs = 0;
  const auto errs = api::validate(opt);
  EXPECT_TRUE(mentions(errs, "batch_options.pool_threads"));
  EXPECT_TRUE(mentions(errs, "batch_options.max_concurrent_jobs"));

  opt = api::batch_options{};
  opt.pool_threads = 2;
  opt.max_concurrent_jobs = 4;  // cap can never fill
  EXPECT_TRUE(mentions(api::validate(opt), "exceeds pool_threads"));

  EXPECT_TRUE(api::validate(api::batch_options{}).empty());
  EXPECT_THROW(api::batch_runner{opt}, std::invalid_argument);
}

// ------------------------------------------------------ admission order --

TEST(BatchAdmission, FifoRunsJobsInSubmissionOrder) {
  api::batch_options bopt;
  bopt.pool_threads = 2;
  bopt.max_concurrent_jobs = 1;  // serialize so completion order == admission
  api::batch_runner runner(bopt);

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&mu, &order](const std::string& label) {
    return [&mu, &order, label](api::session&) {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(label);
    };
  };

  std::vector<api::batch_job> jobs;
  for (const char* label : {"first", "second", "third"}) {
    api::batch_job j;
    j.options = small_options("manufactured");
    j.label = label;
    j.on_complete = record(label);
    jobs.push_back(std::move(j));
  }
  for (auto& f : runner.submit_all(std::move(jobs))) EXPECT_TRUE(f.get().ok);
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "third"}));
}

// ------------------------------------------------- failures + aggregates --

TEST(BatchRunner, JobFailuresAreIsolatedAndReported) {
  api::batch_runner runner;

  api::batch_job bad;
  bad.options = small_options("manufactured");
  bad.options.mode = api::execution_mode::distributed;
  bad.options.n = 15;  // not divisible by sd_grid = 2
  bad.label = "bad";

  api::batch_job good;
  good.options = small_options("manufactured");
  good.label = "good";

  auto fb = runner.submit(std::move(bad));
  auto fg = runner.submit(std::move(good));

  const auto rb = fb.get();
  EXPECT_FALSE(rb.ok);
  EXPECT_NE(rb.error.find("session_options.sd_grid"), std::string::npos) << rb.error;
  const auto rg = fg.get();
  EXPECT_TRUE(rg.ok);
  EXPECT_EQ(rg.metrics.steps, 3);

  const auto agg = runner.aggregate();
  EXPECT_EQ(agg.jobs_submitted, 2);
  EXPECT_EQ(agg.jobs_completed, 1);
  EXPECT_EQ(agg.jobs_failed, 1);
  EXPECT_EQ(agg.total_steps, 3);
  EXPECT_GT(agg.jobs_per_second, 0.0);
}

TEST(BatchRunner, NumStepsOverridesSessionOptions) {
  api::batch_runner runner;
  api::batch_job j;
  j.options = small_options("manufactured");  // options.num_steps = 3
  j.num_steps = 5;
  EXPECT_EQ(runner.submit(std::move(j)).get().metrics.steps, 5);
}

// ------------------------------------- concurrent mixed-backend batches --

// The acceptance property through the batch layer: >= 8 jobs mixing
// scenarios, kernel backends and execution modes run concurrently over the
// shared pool, and every serial/distributed pair of one (scenario,
// backend) cell still agrees bitwise.
TEST(BatchRunner, ConcurrentMixedBackendJobsKeepTheBitwiseGuarantee) {
  api::batch_options bopt;
  bopt.pool_threads = 4;
  bopt.max_concurrent_jobs = 4;
  api::batch_runner runner(bopt);

  const std::vector<std::string> scenarios = {"manufactured", "gaussian_pulse"};
  const std::vector<std::string> backends = {"scalar", "row_run"};

  std::mutex mu;
  std::map<std::string, std::vector<double>> fields;

  std::vector<api::batch_job> jobs;
  for (const auto& scn : scenarios)
    for (const auto& backend : backends)
      for (const auto mode :
           {api::execution_mode::serial, api::execution_mode::distributed}) {
        api::batch_job j;
        j.options = small_options(scn);
        j.options.kernel_backend = backend;
        j.options.mode = mode;
        j.options.threads_per_locality = 2;
        const std::string key =
            scn + "/" + backend +
            (mode == api::execution_mode::serial ? "/serial" : "/dist");
        j.label = key;
        j.on_complete = [&mu, &fields, key](api::session& s) {
          auto f = s.solver().field();
          std::lock_guard<std::mutex> lk(mu);
          fields[key] = std::move(f);
        };
        jobs.push_back(std::move(j));
      }
  ASSERT_GE(jobs.size(), 8u);

  for (auto& f : runner.submit_all(std::move(jobs))) {
    const auto r = f.get();
    EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
  }

  const nl::grid2d grid(16, 2.0 / 16.0);
  int pairs = 0;
  for (const auto& scn : scenarios)
    for (const auto& backend : backends) {
      const auto& serial = fields.at(scn + "/" + backend + "/serial");
      const auto& dist = fields.at(scn + "/" + backend + "/dist");
      EXPECT_EQ(max_abs_diff(grid, serial, dist), 0.0)
          << scn << "/" << backend << " pair diverged inside the batch";
      ++pairs;
    }
  EXPECT_EQ(pairs, 4);

  const auto agg = runner.aggregate();
  EXPECT_EQ(agg.jobs_completed, 8);
  EXPECT_EQ(agg.jobs_failed, 0);
  EXPECT_EQ(agg.total_steps, 8 * 3);
  EXPECT_GT(agg.ghost_bytes, 0u);
}

// Destroying the runner with jobs still queued must complete them (the
// destructor waits) and every handed-out future must still resolve.
TEST(BatchRunner, DestructorDrainsOutstandingJobs) {
  std::vector<nlh::amt::future<api::batch_job_result>> futs;
  {
    api::batch_runner runner;
    for (int k = 0; k < 4; ++k) {
      api::batch_job j;
      j.options = small_options("manufactured");
      futs.push_back(runner.submit(std::move(j)));
    }
  }  // ~batch_runner waits
  for (auto& f : futs) {
    ASSERT_TRUE(f.is_ready());
    EXPECT_TRUE(f.get().ok);
  }
}

// ------------------------------------------------------------- drain -----

// drain(): admission stops, queued jobs fail fast with a distinct
// "abandoned" error, in-flight work finishes, and the report accounts for
// every job. Submissions after the drain are refused immediately.
TEST(BatchRunner, DrainAbandonsQueuedJobsAndReportsCounts) {
  api::batch_options opt;
  opt.pool_threads = 1;
  opt.max_concurrent_jobs = 1;
  api::batch_runner runner(opt);

  std::vector<nlh::amt::future<api::batch_job_result>> futs;
  for (int k = 0; k < 5; ++k) {
    api::batch_job j;
    j.options = small_options("manufactured");
    j.options.n = 32;
    j.options.num_steps = 30;  // keeps the single slot busy while we drain
    futs.push_back(runner.submit(std::move(j)));
  }
  const auto rep = runner.drain(60.0);
  EXPECT_TRUE(rep.clean());
  EXPECT_GE(rep.abandoned, 3);  // at most the 1st (maybe 2nd) job ran
  EXPECT_EQ(rep.still_running, 0);

  int ok = 0, abandoned = 0;
  for (auto& f : futs) {
    // Not is_ready(): the in-flight job's promise resolves outside the
    // runner lock an instant after drain observes running_ == 0.
    const auto r = f.get();
    if (r.ok) {
      ++ok;
    } else {
      EXPECT_EQ(r.error.rfind("abandoned", 0), 0u) << r.error;
      ++abandoned;
    }
  }
  EXPECT_EQ(abandoned, rep.abandoned);
  EXPECT_EQ(ok + abandoned, 5);

  // Admission stays closed: a late submit fails fast, same error family.
  api::batch_job late;
  late.options = small_options("manufactured");
  auto lf = runner.submit(std::move(late));
  const auto lr = lf.get();
  EXPECT_FALSE(lr.ok);
  EXPECT_EQ(lr.error.rfind("abandoned", 0), 0u) << lr.error;

  const auto agg = runner.aggregate();
  EXPECT_EQ(agg.jobs_abandoned, rep.abandoned + 1);
  EXPECT_EQ(agg.jobs_completed, ok);
}

// Same-key jobs queue behind their busy tenant, outside the scheduler. They
// run in submission order, wait_all() covers them, and a drain that starts
// while they wait abandons them and counts them in its report.
TEST(BatchRunner, JobsWaitingBehindTheirTenantRunInOrderOrAreDrained) {
  api::batch_options opt;
  opt.pool_threads = 2;
  opt.max_concurrent_jobs = 2;
  api::batch_runner runner(opt);

  std::mutex mu;
  std::vector<std::string> order;
  std::promise<void> release;
  auto released = release.get_future().share();
  auto make = [&](const std::string& label, bool gated) {
    api::batch_job j;
    j.options = small_options("manufactured");
    j.session_key = "tenant";
    j.label = label;
    j.on_complete = [&mu, &order, label, gated, released](api::session&) {
      if (gated) released.wait();
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(label);
    };
    return j;
  };

  // The first job holds the tenant until released; the rest wait.
  std::vector<nlh::amt::future<api::batch_job_result>> futs;
  futs.push_back(runner.submit(make("a", true)));
  for (const char* label : {"b", "c"}) futs.push_back(runner.submit(make(label, false)));
  release.set_value();
  runner.wait_all();
  for (auto& f : futs) ASSERT_TRUE(f.is_ready());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));

  // Hold the tenant again and drain without waiting: the in-flight job is
  // still running, and the two jobs behind it are abandoned.
  std::promise<void> release2;
  released = release2.get_future().share();
  auto fa = runner.submit(make("d", true));
  auto fb = runner.submit(make("e", false));
  auto fc = runner.submit(make("f", false));
  const auto rep = runner.drain(0.0);
  EXPECT_EQ(rep.abandoned, 2);
  EXPECT_EQ(rep.still_running, 1);
  for (auto* f : {&fb, &fc}) {
    const auto r = f->get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.rfind("abandoned", 0), 0u) << r.error;
  }
  release2.set_value();
  EXPECT_TRUE(fa.get().ok);
  EXPECT_EQ(runner.aggregate().jobs_abandoned, 2);
}

// batch_job::admission_class splits the queue-wait histogram per class in
// the metrics snapshot; unlabeled jobs land in "default".
TEST(BatchRunner, QueueWaitIsSplitPerAdmissionClass) {
  api::batch_options opt;
  opt.pool_threads = 2;
  opt.max_concurrent_jobs = 2;
  api::batch_runner runner(opt);

  std::vector<nlh::amt::future<api::batch_job_result>> futs;
  for (int k = 0; k < 3; ++k) {
    api::batch_job j;
    j.options = small_options("manufactured");
    j.admission_class = "interactive";
    futs.push_back(runner.submit(std::move(j)));
  }
  for (int k = 0; k < 2; ++k) {
    api::batch_job j;
    j.options = small_options("manufactured");
    futs.push_back(runner.submit(std::move(j)));  // unlabeled -> "default"
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);

  const auto snap = runner.metrics_snapshot();
  std::uint64_t interactive = 0, fallback = 0, aggregate = 0;
  for (const auto& [name, s] : snap.histograms) {
    if (name == "api/batch/queue_wait_seconds/interactive") interactive = s.count;
    if (name == "api/batch/queue_wait_seconds/default") fallback = s.count;
    if (name == "api/batch/queue_wait_seconds") aggregate = s.count;
  }
  EXPECT_EQ(interactive, 3u);
  EXPECT_EQ(fallback, 2u);
  EXPECT_EQ(aggregate, 5u);  // the split never loses the aggregate view
}
