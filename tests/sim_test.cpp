// Unit tests for the discrete-event simulator: engine ordering, the
// FIFO resource, and the scheme executor's agreement with the analytic
// cost model.
#include <gtest/gtest.h>

#include <functional>

#include "common/contracts.hpp"
#include "graph/generators.hpp"
#include "mec/costs.hpp"
#include "sim/engine.hpp"
#include "sim/executor.hpp"
#include "sim/resources.hpp"

namespace mecoff::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(engine.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.events_executed(), 3u);
}

TEST(Engine, SameTimeEventsFifoOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(1.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] {
    ++fired;
    engine.schedule_after(2.0, [&] { ++fired; });
  });
  EXPECT_DOUBLE_EQ(engine.run(), 3.0);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastSchedulingThrows) {
  SimEngine engine;
  engine.schedule_at(5.0, [&] {
    EXPECT_THROW(engine.schedule_at(1.0, [] {}), mecoff::PreconditionError);
  });
  engine.run();
}

TEST(FifoResource, SingleJobNoWait) {
  SimEngine engine;
  FifoResource server(engine, 10.0);
  JobStats seen;
  server.submit(50.0, [&](const JobStats& s) { seen = s; });
  engine.run();
  EXPECT_DOUBLE_EQ(seen.wait(), 0.0);
  EXPECT_DOUBLE_EQ(seen.sojourn(), 5.0);
  EXPECT_EQ(server.jobs_completed(), 1u);
}

TEST(FifoResource, SecondJobWaitsForFirst) {
  SimEngine engine;
  FifoResource server(engine, 10.0);
  JobStats first;
  JobStats second;
  server.submit(50.0, [&](const JobStats& s) { first = s; });
  server.submit(30.0, [&](const JobStats& s) { second = s; });
  engine.run();
  EXPECT_DOUBLE_EQ(first.wait(), 0.0);
  EXPECT_DOUBLE_EQ(second.wait(), 5.0);          // queued behind 50/10
  EXPECT_DOUBLE_EQ(second.completed, 8.0);       // 5 + 3
}

TEST(FifoResource, LateArrivalAfterIdle) {
  SimEngine engine;
  FifoResource server(engine, 10.0);
  JobStats late;
  engine.schedule_at(100.0, [&] {
    server.submit(10.0, [&](const JobStats& s) { late = s; });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(late.admitted, 100.0);
  EXPECT_DOUBLE_EQ(late.wait(), 0.0);
  EXPECT_DOUBLE_EQ(late.completed, 101.0);
}

// --- Executor against the analytic model ---------------------------------

mec::SystemParams exec_params() {
  mec::SystemParams p;
  p.mobile_power = 2.0;
  p.transmit_power = 12.0;
  p.bandwidth = 5.0;
  p.mobile_capacity = 4.0;
  p.server_capacity = 80.0;
  return p;
}

mec::UserApp simple_user() {
  graph::GraphBuilder b;
  b.add_node(12.0);
  b.add_node(40.0);
  b.add_edge(0, 1, 10.0);
  mec::UserApp app;
  app.graph = b.build();
  return app;
}

TEST(Executor, EnergiesMatchAnalyticModelExactly) {
  mec::MecSystem system{exec_params(), {simple_user(), simple_user()}};
  mec::OffloadingScheme scheme = mec::OffloadingScheme::all_local(system);
  scheme.placement[0][1] = mec::Placement::kRemote;
  scheme.placement[1][1] = mec::Placement::kRemote;

  const mec::SystemCost analytic = mec::evaluate(system, scheme);
  const SimReport sim = simulate_scheme(system, scheme);
  EXPECT_NEAR(sim.total_energy, analytic.total_energy, 1e-9);
  for (std::size_t u = 0; u < 2; ++u) {
    EXPECT_NEAR(sim.users[u].local_energy, analytic.users[u].local_energy,
                1e-12);
    EXPECT_NEAR(sim.users[u].transmit_energy,
                analytic.users[u].transmit_energy, 1e-12);
  }
}

TEST(Executor, SingleUserTimesMatchAnalytic) {
  // One offloader: no contention in either model, so the numbers agree.
  mec::MecSystem system{exec_params(), {simple_user()}};
  mec::OffloadingScheme scheme = mec::OffloadingScheme::all_local(system);
  scheme.placement[0][1] = mec::Placement::kRemote;
  const mec::SystemCost analytic = mec::evaluate(system, scheme);
  const SimReport sim = simulate_scheme(system, scheme);
  EXPECT_NEAR(sim.users[0].local_time, analytic.users[0].local_compute_time,
              1e-12);
  EXPECT_NEAR(sim.users[0].upload_time, analytic.users[0].transmit_time,
              1e-12);
  EXPECT_NEAR(sim.users[0].server_time,
              analytic.users[0].remote_compute_time, 1e-12);
  EXPECT_DOUBLE_EQ(sim.users[0].server_wait, 0.0);
}

TEST(Executor, AllLocalHasNoServerActivity) {
  mec::MecSystem system{exec_params(), {simple_user()}};
  const SimReport sim =
      simulate_scheme(system, mec::OffloadingScheme::all_local(system));
  EXPECT_DOUBLE_EQ(sim.users[0].upload_time, 0.0);
  EXPECT_DOUBLE_EQ(sim.users[0].server_time, 0.0);
  EXPECT_DOUBLE_EQ(sim.users[0].transmit_energy, 0.0);
  EXPECT_DOUBLE_EQ(sim.makespan, sim.users[0].local_time);
}

TEST(Executor, FifoWaitGrowsWithUsers) {
  double prev_avg_wait = -1.0;
  for (const std::size_t n : {2u, 6u, 12u}) {
    std::vector<mec::UserApp> users(n, simple_user());
    mec::MecSystem system{exec_params(), users};
    const SimReport sim = simulate_scheme(
        system, mec::OffloadingScheme::all_remote(system));
    double total_wait = 0.0;
    for (const UserOutcome& u : sim.users) total_wait += u.server_wait;
    const double avg = total_wait / static_cast<double>(n);
    EXPECT_GT(avg, prev_avg_wait);
    prev_avg_wait = avg;
  }
}

TEST(Executor, MakespanIsMaxCompletion) {
  std::vector<mec::UserApp> users(3, simple_user());
  mec::MecSystem system{exec_params(), users};
  const SimReport sim = simulate_scheme(
      system, mec::OffloadingScheme::all_remote(system));
  double max_completion = 0.0;
  for (const UserOutcome& u : sim.users)
    max_completion = std::max(max_completion, u.completion);
  EXPECT_DOUBLE_EQ(sim.makespan, max_completion);
}

}  // namespace
}  // namespace mecoff::sim
