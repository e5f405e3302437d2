// Tests for the observability subsystem (src/obs/): span recording and
// nesting, cross-thread rings and thread names, ring wraparound accounting,
// histogram quantile estimation, Chrome-trace / metrics JSON export
// round-trips, the runtime enable/disable gates, the counter_registry
// bridge, and a fully traced multi-tenant batch run
// (the latter rides the TSAN CI job: every tracer/metrics path exercised
// concurrently with real solver work).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "amt/counters.hpp"
#include "api/batch.hpp"
#include "api/session.hpp"
#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/trace_export.hpp"
#include "obs/tracer.hpp"

namespace obs = nlh::obs;
namespace api = nlh::api;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Events from `snap` named `name`.
std::vector<obs::trace_event> named(const std::vector<obs::trace_event>& snap,
                                    const std::string& name) {
  std::vector<obs::trace_event> out;
  for (const auto& e : snap)
    if (e.name && name == e.name) out.push_back(e);
  return out;
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

/// Every test starts and ends with tracing off and the rings empty, so the
/// process-wide tracer singleton never leaks events across tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::tracer::instance().clear();
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::tracer::instance().clear();
    obs::configure(obs::config{});  // restore the default ring capacity
  }
};

// ------------------------------------------------------------- recording --

TEST_F(ObsTest, SpanRecordsCompleteEventWithDuration) {
  obs::set_tracing_enabled(true);
  {
    NLH_TRACE_SPAN_ARG("test/outer", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto snap = obs::tracer::instance().snapshot();
  const auto outer = named(snap, "test/outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer[0].phase, 'X');
  EXPECT_EQ(outer[0].arg, 7u);
  EXPECT_GE(outer[0].dur_ns, 2'000'000);  // slept 2 ms inside the span
  EXPECT_GT(outer[0].tid, 0u);
}

TEST_F(ObsTest, NestedSpansCoverEachOtherAndSortByStart) {
  obs::set_tracing_enabled(true);
  {
    NLH_TRACE_SPAN("test/outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      NLH_TRACE_SPAN("test/inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto snap = obs::tracer::instance().snapshot();
  const auto outer = named(snap, "test/outer");
  const auto inner = named(snap, "test/inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  // Proper nesting: the outer interval strictly contains the inner one.
  EXPECT_LT(outer[0].ts_ns, inner[0].ts_ns);
  EXPECT_GT(outer[0].ts_ns + outer[0].dur_ns, inner[0].ts_ns + inner[0].dur_ns);
  // snapshot() merges sorted by start time: outer first.
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LE(snap[i - 1].ts_ns, snap[i].ts_ns);
}

TEST_F(ObsTest, BeginEndPairAndInstant) {
  obs::set_tracing_enabled(true);
  NLH_TRACE_BEGIN("test/region", 1);
  NLH_TRACE_INSTANT("test/tick", 42);
  NLH_TRACE_END("test/region");
  const auto snap = obs::tracer::instance().snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].phase, 'B');
  EXPECT_EQ(snap[1].phase, 'i');
  EXPECT_EQ(snap[1].arg, 42u);
  EXPECT_EQ(snap[2].phase, 'E');
}

TEST_F(ObsTest, ThreadsGetDistinctRingsAndNames) {
  obs::set_tracing_enabled(true);
  NLH_TRACE_INSTANT("test/main", 0);
  obs::tracer::instance().set_thread_name("main-thread");
  std::thread t([] {
    obs::tracer::instance().set_thread_name("helper");
    NLH_TRACE_INSTANT("test/helper", 0);
  });
  t.join();  // the helper ring must survive the thread's exit
  const auto snap = obs::tracer::instance().snapshot();
  const auto a = named(snap, "test/main");
  const auto b = named(snap, "test/helper");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NE(a[0].tid, b[0].tid);
  const auto names = obs::tracer::instance().thread_names();
  bool saw_main = false, saw_helper = false;
  for (const auto& [tid, name] : names) {
    if (tid == a[0].tid && name == "main-thread") saw_main = true;
    if (tid == b[0].tid && name == "helper") saw_helper = true;
  }
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_helper);
}

TEST_F(ObsTest, RingWrapsKeepingNewestAndCountsDropped) {
  // configure() only affects rings created afterwards, so record from a
  // fresh thread — the main thread's ring already exists at full capacity.
  // 16 is the documented capacity floor (tracer.cpp clamps smaller values).
  obs::configure(obs::config{/*ring_capacity=*/16});
  obs::set_tracing_enabled(true);
  std::thread t([] {
    for (std::uint64_t i = 0; i < 40; ++i) NLH_TRACE_INSTANT("test/wrap", i);
  });
  t.join();
  const auto events = named(obs::tracer::instance().snapshot(), "test/wrap");
  ASSERT_EQ(events.size(), 16u);  // newest 16 of 40 survive
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].arg, 24 + i);  // args 24..39, oldest first
  EXPECT_EQ(obs::tracer::instance().dropped(), 24u);
}

// ----------------------------------------------------------------- gating --

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  {
    NLH_TRACE_SPAN("test/ghost");
    NLH_TRACE_INSTANT("test/ghost_i", 1);
    NLH_TRACE_BEGIN("test/ghost_b", 2);
    NLH_TRACE_END("test/ghost_b");
  }
  EXPECT_TRUE(obs::tracer::instance().snapshot().empty());
  EXPECT_EQ(obs::tracer::instance().dropped(), 0u);
}

TEST_F(ObsTest, SpanOpenedWhileEnabledStillClosesAfterDisable) {
  // Documented semantics (obs/config.hpp): flipping the switch mid-span is
  // safe and the span still records — exporters never see a dangling 'B'.
  obs::set_tracing_enabled(true);
  {
    NLH_TRACE_SPAN("test/straddle");
    obs::set_tracing_enabled(false);
  }
  const auto snap = obs::tracer::instance().snapshot();
  ASSERT_EQ(named(snap, "test/straddle").size(), 1u);
}

TEST_F(ObsTest, ClearDropsEventsButKeepsRings) {
  obs::set_tracing_enabled(true);
  NLH_TRACE_INSTANT("test/a", 0);
  obs::tracer::instance().clear();
  EXPECT_TRUE(obs::tracer::instance().snapshot().empty());
  NLH_TRACE_INSTANT("test/b", 0);
  EXPECT_EQ(obs::tracer::instance().snapshot().size(), 1u);
}

// ------------------------------------------------------------- histograms --

TEST_F(ObsTest, HistogramExactStatsAndQuantileBounds) {
  obs::histogram h(obs::histogram_options{1.0, 1e4, 8});
  for (int v = 1; v <= 1000; ++v) h.record(static_cast<double>(v));
  const auto s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, 500500.0);  // count/sum/min/max/mean are exact
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
  // Quantiles are bucketed estimates: relative error is bounded by the
  // bucket ratio, 10^(1/8) ~ 1.334 at 8 buckets/decade.
  const double ratio = std::pow(10.0, 1.0 / 8.0);
  EXPECT_GE(s.p50, 500.0 / ratio);
  EXPECT_LE(s.p50, 500.0 * ratio);
  EXPECT_GE(s.p90, 900.0 / ratio);
  EXPECT_LE(s.p90, 900.0 * ratio);
  EXPECT_GE(s.p99, 990.0 / ratio);
  EXPECT_LE(s.p99, 990.0 * ratio);
  // quantile() is monotone in q.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
}

TEST_F(ObsTest, HistogramUnderflowOverflowAndEmpty) {
  obs::histogram h(obs::histogram_options{1e-3, 1e3, 4});
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_DOUBLE_EQ(h.summary().p99, 0.0);  // empty -> all zeros
  h.record(1e-9);  // underflow bucket
  h.record(1e9);   // overflow bucket
  const auto s = h.summary();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, 1e-9);  // min/max track the raw values
  EXPECT_DOUBLE_EQ(s.max, 1e9);
  h.reset();
  EXPECT_EQ(h.summary().count, 0u);
}

TEST_F(ObsTest, HistogramConcurrentRecordSumsAllEvents) {
  obs::histogram h;
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.emplace_back([&h] {
      for (int j = 0; j < 1000; ++j) h.record(1e-4);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.summary().count, 4000u);
}

// --------------------------------------------------------------- registry --

TEST_F(ObsTest, RegistryFindOrCreateAndSnapshot) {
  obs::metrics_registry reg;
  obs::counter& c = reg.get_counter("test/events");
  EXPECT_EQ(&c, &reg.get_counter("test/events"));  // stable address
  c.add(3);
  reg.get_gauge("test/level").set(2.5);
  reg.get_histogram("test/lat").record(0.01);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "test/events");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST_F(ObsTest, BridgeCounterRegistryPolls) {
  auto& reg = nlh::amt::counter_registry::instance();
  reg.register_counter("/obs_bridge_test/x", [] { return 4.25; }, [] {});
  obs::metrics_snapshot snap;
  obs::bridge_counter_registry(snap, "obs_bridge_test");
  reg.unregister_counter("/obs_bridge_test/x");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "/obs_bridge_test/x");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 4.25);
}

// ----------------------------------------------------------------- export --

TEST_F(ObsTest, ChromeTraceJsonRoundTrip) {
  obs::set_tracing_enabled(true);
  {
    NLH_TRACE_SPAN_ARG("test/export_span", 11);
    NLH_TRACE_INSTANT("test/export_tick", 5);
  }
  obs::tracer::instance().set_thread_name("exporter");
  obs::set_tracing_enabled(false);

  const auto events = obs::tracer::instance().snapshot();
  const auto names = obs::tracer::instance().thread_names();
  const std::string json = obs::chrome_trace_json(events, names);
  // Chrome Trace Event object format, loadable in ui.perfetto.dev.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test/export_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"exporter\""), std::string::npos);

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, events, names));
  EXPECT_EQ(slurp(path), json);  // chrome_trace_json is newline-terminated
  std::remove(path.c_str());
}

TEST_F(ObsTest, WriteChromeTraceFailsOnBadPath) {
  EXPECT_FALSE(obs::write_chrome_trace("/nonexistent-dir/trace.json"));
}

TEST_F(ObsTest, MetricsJsonRoundTrip) {
  obs::metrics_snapshot snap;
  snap.add_counter("test/events", 12);
  snap.add_gauge("test/level", 0.5);
  obs::histogram h;
  for (int i = 0; i < 10; ++i) h.record(0.001 * (i + 1));
  snap.add_histogram("test/lat_seconds", h.summary());

  const std::string json = obs::metrics_json(snap);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test/events\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"test/lat_seconds\""), std::string::npos);
  for (const char* field : {"\"count\"", "\"sum\"", "\"mean\"", "\"p50\"",
                            "\"p90\"", "\"p99\""})
    EXPECT_NE(json.find(field), std::string::npos) << field;

  const std::string path = ::testing::TempDir() + "obs_metrics_test.json";
  ASSERT_TRUE(obs::write_metrics_json(path, snap));
  EXPECT_EQ(slurp(path), json + "\n");  // the writer newline-terminates
  std::remove(path.c_str());
}

TEST_F(ObsTest, SnapshotMergeAppliesPrefix) {
  obs::metrics_snapshot a, b;
  b.add_counter("events", 2);
  b.add_gauge("level", 1.0);
  a.merge(b, "job/");
  ASSERT_EQ(a.counters.size(), 1u);
  EXPECT_EQ(a.counters[0].first, "job/events");
  ASSERT_EQ(a.gauges.size(), 1u);
  EXPECT_EQ(a.gauges[0].first, "job/level");
}

// ------------------------------------------- end to end: session + batch --

TEST_F(ObsTest, SessionMetricsCarryDistributedFlagAndStepLatency) {
  auto opt = small_options("manufactured");
  opt.mode = api::execution_mode::serial;
  api::session serial(opt);
  serial.solver().run(3);
  const auto ms = serial.solver().metrics();
  EXPECT_FALSE(ms.is_distributed);
  EXPECT_EQ(ms.step_latency.count, 3u);  // one sample per step
  EXPECT_GT(ms.step_latency.p50, 0.0);

  opt.mode = api::execution_mode::distributed;
  api::session dist(opt);
  dist.solver().run(3);
  const auto md = dist.solver().metrics();
  EXPECT_TRUE(md.is_distributed);
  EXPECT_EQ(md.step_latency.count, 3u);

  // The full snapshot carries the uniform schema: the dist/* instruments
  // appear only for the distributed session.
  const auto serial_snap = serial.solver().metrics_snapshot();
  const auto dist_snap = dist.solver().metrics_snapshot();
  auto has_counter = [](const obs::metrics_snapshot& s, const std::string& n) {
    for (const auto& [name, v] : s.counters)
      if (name == n) return true;
    return false;
  };
  EXPECT_FALSE(has_counter(serial_snap, "dist/ghost/messages"));
  EXPECT_TRUE(has_counter(dist_snap, "dist/ghost/messages"));
  EXPECT_TRUE(has_counter(serial_snap, "api/session/steps"));
  EXPECT_TRUE(has_counter(dist_snap, "api/session/steps"));
}

TEST_F(ObsTest, TracedMultiTenantBatchProducesTimelineAndMetrics) {
  // The TSAN rider: serial and distributed tenants step concurrently with
  // tracing on, hammering the per-thread rings, the shared histograms and
  // the batch accounting at once.
  obs::set_tracing_enabled(true);

  api::batch_options bopt;
  bopt.pool_threads = 2;
  bopt.max_concurrent_jobs = 2;
  api::batch_runner runner(bopt);

  std::vector<api::batch_job> jobs;
  for (const char* scenario : {"manufactured", "gaussian_pulse"})
    for (const auto mode :
         {api::execution_mode::serial, api::execution_mode::distributed}) {
      api::batch_job job;
      job.options = small_options(scenario);
      job.options.mode = mode;
      job.label = std::string(scenario) +
                  (mode == api::execution_mode::serial ? "/serial" : "/dist");
      jobs.push_back(std::move(job));
    }
  auto futures = runner.submit_all(std::move(jobs));
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  obs::set_tracing_enabled(false);

  // Timeline: every layer shows up — job lifecycle, per-step spans, the
  // distributed phases, pool task execution and message traffic.
  const auto snap = obs::tracer::instance().snapshot();
  EXPECT_EQ(named(snap, "api/job").size(), 4u);
  EXPECT_EQ(named(snap, "api/job_submit").size(), 4u);
  EXPECT_EQ(named(snap, "api/job_admit").size(), 4u);
  EXPECT_EQ(named(snap, "api/step").size(), 12u);  // 4 jobs x 3 steps
  EXPECT_EQ(named(snap, "dist/step").size(), 6u);  // 2 dist jobs x 3 steps
  EXPECT_FALSE(named(snap, "amt/task").empty());
  EXPECT_FALSE(named(snap, "net/send").empty());
  EXPECT_EQ(named(snap, "net/send").size(), named(snap, "net/deliver").size());

  // Metrics: aggregate latencies plus per-job step-latency summaries.
  const auto agg = runner.aggregate();
  EXPECT_EQ(agg.jobs_completed, 4);
  EXPECT_EQ(agg.queue_wait.count, 4u);
  EXPECT_EQ(agg.job_duration.count, 4u);
  const auto metrics = runner.metrics_snapshot();
  bool saw_queue_wait = false, saw_job_hist = false;
  for (const auto& [name, s] : metrics.histograms) {
    if (name == "api/batch/queue_wait_seconds") saw_queue_wait = s.count == 4;
    if (name == "api/job/manufactured/dist/step_latency_seconds")
      saw_job_hist = s.count == 3;
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_job_hist);

  // And the whole thing exports.
  const std::string path = ::testing::TempDir() + "obs_batch_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  EXPECT_NE(slurp(path).find("api/job"), std::string::npos);
  std::remove(path.c_str());
}
