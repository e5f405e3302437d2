// Tests for capacity traces, the deterministic event queue, and execution
// trace export (cluster_sim task records, Chrome JSON, sim_dist labels).

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "dist/sim_dist.hpp"
#include "sim/capacity_trace.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/event_queue.hpp"

namespace sim = nlh::sim;
namespace dist = nlh::dist;

// --------------------------------------------------------- capacity_trace ----

TEST(CapacityTrace, ConstantSpeed) {
  auto t = sim::capacity_trace::constant(2.0);
  EXPECT_DOUBLE_EQ(t.speed_at(0.0), 2.0);
  EXPECT_DOUBLE_EQ(t.speed_at(100.0), 2.0);
  EXPECT_DOUBLE_EQ(t.work_done(1.0, 3.0), 4.0);
  EXPECT_DOUBLE_EQ(t.finish_time(1.0, 4.0), 3.0);
}

TEST(CapacityTrace, ZeroWorkFinishesImmediately) {
  auto t = sim::capacity_trace::constant(1.0);
  EXPECT_DOUBLE_EQ(t.finish_time(5.0, 0.0), 5.0);
}

TEST(CapacityTrace, StepChange) {
  sim::capacity_trace t;
  t.add_segment(0.0, 1.0);
  t.add_segment(10.0, 0.5);  // half speed from t=10
  EXPECT_DOUBLE_EQ(t.speed_at(9.999), 1.0);
  EXPECT_DOUBLE_EQ(t.speed_at(10.0), 0.5);
  // 8 units starting at t=6: 4 at speed 1 (6..10), 4 at 0.5 (10..18).
  EXPECT_DOUBLE_EQ(t.finish_time(6.0, 8.0), 18.0);
  EXPECT_DOUBLE_EQ(t.work_done(6.0, 18.0), 8.0);
}

TEST(CapacityTrace, WorkDoneAcrossManySegments) {
  sim::capacity_trace t;
  t.add_segment(0.0, 1.0);
  t.add_segment(1.0, 2.0);
  t.add_segment(2.0, 3.0);
  EXPECT_DOUBLE_EQ(t.work_done(0.0, 3.0), 6.0);
  EXPECT_DOUBLE_EQ(t.work_done(0.5, 2.5), 0.5 + 2.0 + 1.5);
}

TEST(CapacityTrace, FinishInLaterSegment) {
  sim::capacity_trace t;
  t.add_segment(0.0, 0.0);   // stalled
  t.add_segment(5.0, 2.0);   // then fast
  EXPECT_DOUBLE_EQ(t.finish_time(0.0, 4.0), 7.0);
}

TEST(CapacityTrace, WorkDoneEmptyInterval) {
  auto t = sim::capacity_trace::constant(3.0);
  EXPECT_DOUBLE_EQ(t.work_done(2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(t.work_done(3.0, 2.0), 0.0);
}

TEST(CapacityTrace, FinishConsistentWithWorkDone) {
  sim::capacity_trace t;
  t.add_segment(0.0, 1.5);
  t.add_segment(4.0, 0.25);
  t.add_segment(9.0, 3.0);
  for (double start : {0.0, 2.0, 4.5, 8.0, 12.0}) {
    for (double work : {0.1, 1.0, 5.0, 20.0}) {
      const double fin = t.finish_time(start, work);
      EXPECT_NEAR(t.work_done(start, fin), work, 1e-9)
          << "start=" << start << " work=" << work;
    }
  }
}

// ------------------------------------------------------------ event_queue ----

TEST(EventQueue, PopsInTimeOrder) {
  sim::event_queue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertion) {
  sim::event_queue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(0); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(1.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  sim::event_queue q;
  std::vector<double> times;
  q.push(1.0, [&] {
    times.push_back(q.now());
    q.push(2.0, [&] { times.push_back(q.now()); });
  });
  q.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(EventQueue, StepExecutesOne) {
  sim::event_queue q;
  int count = 0;
  q.push(1.0, [&] { ++count; });
  q.push(2.0, [&] { ++count; });
  q.step();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.peek_time(), 2.0);
}

TEST(EventQueue, ClockMonotone) {
  sim::event_queue q;
  double last = -1.0;
  bool monotone = true;
  for (int i = 20; i > 0; --i)
    q.push(static_cast<double>(i), [&, i] {
      if (q.now() < last) monotone = false;
      last = q.now();
    });
  q.run();
  EXPECT_TRUE(monotone);
}

// ------------------------------------------------------------ trace export ----

TEST(TraceExport, RecordsSortedWithCores) {
  sim::cluster_sim cs(1, 2);
  const int a = cs.add_task(0, 2.0, {}, "alpha");
  const int b = cs.add_task(0, 1.0, {}, "beta");
  const int c = cs.add_task(0, 1.0, {a, b}, "gamma");
  cs.run();
  const auto recs = cs.task_records();
  ASSERT_EQ(recs.size(), 3u);
  // Sorted by start; a and b start at 0 on different cores.
  EXPECT_DOUBLE_EQ(recs[0].start, 0.0);
  EXPECT_DOUBLE_EQ(recs[1].start, 0.0);
  EXPECT_NE(recs[0].core, recs[1].core);
  EXPECT_EQ(recs[2].label, "gamma");
  EXPECT_DOUBLE_EQ(recs[2].start, 2.0);  // after the slower parent
  (void)c;
}

TEST(TraceExport, ChromeJsonIsWellFormedEnough) {
  sim::cluster_sim cs(2, 1);
  cs.add_task(0, 1.0, {}, "compute");
  cs.add_task(1, 1.0, {}, "other");
  cs.run();
  std::ostringstream os;
  cs.write_chrome_trace(os);
  const auto s = os.str();
  EXPECT_EQ(s.front(), '[');
  EXPECT_NE(s.find("\"name\": \"compute\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(s.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(s.rfind("]"), std::string::npos);
}

TEST(TraceExport, SimDistEmitsLabeledTasks) {
  dist::tiling t(2, 2, 10, 2);
  const dist::ownership_map own(t, 2, {0, 1, 1, 0});
  dist::sim_cost_model cost;
  dist::sim_cluster_config cluster;
  std::ostringstream trace;
  cluster.chrome_trace = &trace;
  dist::simulate_timestepping(t, own, 2, cost, cluster);
  const auto s = trace.str();
  EXPECT_NE(s.find("sd0:interior@0"), std::string::npos);
  EXPECT_NE(s.find("sd3:boundary@1"), std::string::npos);
}
