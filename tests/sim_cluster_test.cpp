// Tests for the virtual-time cluster simulator (DAG scheduling, network
// model, busy accounting).

#include <gtest/gtest.h>

#include "sim/cluster_sim.hpp"

namespace sim = nlh::sim;

TEST(ClusterSim, SingleTask) {
  sim::cluster_sim cs(1, 1);
  cs.set_speed(0, 2.0);
  const int t = cs.add_task(0, 10.0);
  cs.run();
  EXPECT_DOUBLE_EQ(cs.task_start(t), 0.0);
  EXPECT_DOUBLE_EQ(cs.task_finish(t), 5.0);
  EXPECT_DOUBLE_EQ(cs.makespan(), 5.0);
  EXPECT_DOUBLE_EQ(cs.node_busy_time(0), 5.0);
}

TEST(ClusterSim, SerialChain) {
  sim::cluster_sim cs(1, 1);
  const int a = cs.add_task(0, 1.0);
  const int b = cs.add_task(0, 2.0, {a});
  const int c = cs.add_task(0, 3.0, {b});
  cs.run();
  EXPECT_DOUBLE_EQ(cs.task_finish(c), 6.0);
}

TEST(ClusterSim, TwoCoresRunInParallel) {
  sim::cluster_sim cs(1, 2);
  cs.add_task(0, 4.0);
  cs.add_task(0, 4.0);
  cs.run();
  EXPECT_DOUBLE_EQ(cs.makespan(), 4.0);
  EXPECT_DOUBLE_EQ(cs.node_busy_time(0), 8.0);
}

TEST(ClusterSim, OneCoreSerializes) {
  sim::cluster_sim cs(1, 1);
  cs.add_task(0, 4.0);
  cs.add_task(0, 4.0);
  cs.run();
  EXPECT_DOUBLE_EQ(cs.makespan(), 8.0);
}

TEST(ClusterSim, PerfectStrongScalingWithoutComm) {
  // N independent equal tasks on k nodes: makespan = N*w/k.
  for (int nodes : {1, 2, 4}) {
    sim::cluster_sim cs(nodes, 1);
    for (int i = 0; i < 16; ++i) cs.add_task(i % nodes, 1.0);
    cs.run();
    EXPECT_DOUBLE_EQ(cs.makespan(), 16.0 / nodes) << nodes << " nodes";
  }
}

TEST(ClusterSim, MessageAddsTransferTime) {
  sim::cluster_sim cs(2, 1);
  sim::network_model net;
  net.latency_s = 0.5;
  net.bandwidth_bytes_per_s = 100.0;
  cs.set_network(net);
  const int a = cs.add_task(0, 1.0);
  const int b = cs.add_task(1, 1.0);
  cs.add_message(a, b, 200.0);  // 0.5 + 200/100 = 2.5 transfer
  cs.run();
  EXPECT_DOUBLE_EQ(cs.task_start(b), 1.0 + 2.5);
  EXPECT_DOUBLE_EQ(cs.network_bytes(), 200.0);
  EXPECT_EQ(cs.network_messages(), 1);
}

TEST(ClusterSim, IntraNodeMessageIsFree) {
  sim::cluster_sim cs(1, 2);
  sim::network_model net;
  net.latency_s = 10.0;
  cs.set_network(net);
  const int a = cs.add_task(0, 1.0);
  const int b = cs.add_task(0, 1.0);
  cs.add_message(a, b, 1e9);
  cs.run();
  EXPECT_DOUBLE_EQ(cs.task_start(b), 1.0);  // no transfer cost on-node
  EXPECT_DOUBLE_EQ(cs.network_bytes(), 0.0);
}

TEST(ClusterSim, SlowNodeTakesLonger) {
  sim::cluster_sim cs(2, 1);
  cs.set_speed(0, 1.0);
  cs.set_speed(1, 0.5);
  const int a = cs.add_task(0, 4.0);
  const int b = cs.add_task(1, 4.0);
  cs.run();
  EXPECT_DOUBLE_EQ(cs.task_finish(a), 4.0);
  EXPECT_DOUBLE_EQ(cs.task_finish(b), 8.0);
}

TEST(ClusterSim, CapacityTraceSlowdownMidTask) {
  sim::cluster_sim cs(1, 1);
  sim::capacity_trace trace;
  trace.add_segment(0.0, 2.0);
  trace.add_segment(2.0, 1.0);
  cs.set_capacity(0, trace);
  // 6 units: 4 in [0,2) at speed 2, remaining 2 at speed 1 -> finish 4.
  const int t = cs.add_task(0, 6.0);
  cs.run();
  EXPECT_DOUBLE_EQ(cs.task_finish(t), 4.0);
}

TEST(ClusterSim, DiamondDependency) {
  sim::cluster_sim cs(1, 2);
  const int a = cs.add_task(0, 1.0);
  const int b = cs.add_task(0, 2.0, {a});
  const int c = cs.add_task(0, 3.0, {a});
  const int d = cs.add_task(0, 1.0, {b, c});
  cs.run();
  EXPECT_DOUBLE_EQ(cs.task_start(d), 4.0);  // after the slower branch
  EXPECT_DOUBLE_EQ(cs.makespan(), 5.0);
}

TEST(ClusterSim, ZeroWorkSinkTask) {
  sim::cluster_sim cs(1, 1);
  const int a = cs.add_task(0, 2.0);
  const int s = cs.add_task(0, 0.0, {a});
  cs.run();
  EXPECT_DOUBLE_EQ(cs.task_finish(s), 2.0);
  // Zero-duration tasks do not pollute busy accounting.
  EXPECT_DOUBLE_EQ(cs.node_busy_time(0), 2.0);
}

TEST(ClusterSim, BusyWindowClipping) {
  sim::cluster_sim cs(1, 1);
  cs.add_task(0, 10.0);
  cs.run();
  EXPECT_DOUBLE_EQ(cs.node_busy_in_window(0, 2.0, 5.0), 3.0);
  EXPECT_DOUBLE_EQ(cs.node_busy_in_window(0, 8.0, 20.0), 2.0);
  EXPECT_DOUBLE_EQ(cs.node_busy_fraction(0, 0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(cs.node_busy_fraction(0, 0.0, 20.0), 0.5);
}

TEST(ClusterSim, ReadyOrderDeterministicOnTies) {
  sim::cluster_sim cs(1, 1);
  const int a = cs.add_task(0, 1.0);
  const int b = cs.add_task(0, 1.0);
  cs.run();
  // Same ready time: lower id first.
  EXPECT_LT(cs.task_start(a), cs.task_start(b));
}

TEST(ClusterSim, CommBoundVsComputeBound) {
  // When transfer dominates, adding nodes stops helping — the crossover the
  // paper's Fig. 13 deviation embodies.
  auto makespan_for = [](double bytes) {
    sim::cluster_sim cs(2, 1);
    sim::network_model net;
    net.latency_s = 0.0;
    net.bandwidth_bytes_per_s = 1.0;
    cs.set_network(net);
    const int a = cs.add_task(0, 1.0);
    const int b = cs.add_task(1, 1.0);
    const int c = cs.add_task(1, 1.0, {});
    cs.add_message(a, c, bytes);
    (void)b;
    cs.run();
    return cs.makespan();
  };
  EXPECT_LT(makespan_for(0.1), makespan_for(100.0));
}

using CapacityTraceDeathTest = ::testing::Test;

TEST(CapacityTraceDeathTest, RejectsUnorderedSegments) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  sim::capacity_trace t;
  t.add_segment(0.0, 1.0);
  EXPECT_DEATH(t.add_segment(0.0, 2.0), "out of order");
}
