// Experiment-configuration smoke tests: tiny versions of the paper
// benches asserted as tests, so a change that silently breaks the
// figure workloads (generator tuning, parameters, pipeline wiring)
// fails CI instead of only skewing bench output. The LoadHarness tests
// pin how the serving benches measure latency.
#include <gtest/gtest.h>

#include "common/stopwatch.hpp"
#include "lpa/pipeline.hpp"
#include "mec/costs.hpp"
#include "serve/fault_injector.hpp"
#include "serve/solve_service.hpp"
#include "sim/fault_script.hpp"
#include "support/load_harness.hpp"
#include "support/workloads.hpp"

namespace mecoff::bench {
namespace {

TEST(ExperimentsSmoke, TableOneBandsHold) {
  // The two Table I claims at the cheap end points.
  const auto reduction_at = [](PaperScale scale) {
    const graph::WeightedGraph g =
        graph::netgen_style(netgen_for(scale, scale.nodes));
    const std::vector<bool> pinned(g.num_nodes(), false);
    return lpa::compress_application(g, pinned, paper_propagation())
        .aggregate_stats()
        .node_reduction();
  };
  const double small = reduction_at(paper_scales().front());
  const double large = reduction_at(paper_scales().back());
  EXPECT_GE(small, 0.75);
  EXPECT_GE(large, 0.90);
  EXPECT_GT(large, small);
}

TEST(ExperimentsSmoke, SingleUserPointOrdersTotalEnergy) {
  // One mid-size point of Figs. 3–5: ours <= KL on total energy.
  mec::MecSystem system{paper_params(),
                        {make_user(PaperScale{1000, 4912}, 7)}};
  const std::vector<AlgoResult> results = run_paper_algorithms(system);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_LE(results[0].total_energy,
            results[2].total_energy * 1.02);  // ours vs KL
  EXPECT_LE(results[0].transmit_energy,
            results[2].transmit_energy * 1.02);
}

TEST(ExperimentsSmoke, MultiUserPointOrdersTransmission) {
  // One small multi-user point of Fig. 7: strict triple ordering.
  const mec::MecSystem system =
      make_multiuser_system(250, kMultiuserPoolSize, 21);
  const std::vector<AlgoResult> results =
      run_paper_algorithms(system, kMultiuserPoolSize);
  EXPECT_LE(results[0].transmit_energy,
            results[1].transmit_energy * 1.05);
  EXPECT_LE(results[1].transmit_energy,
            results[2].transmit_energy * 1.05);
}

TEST(ExperimentsSmoke, WorkloadShapesAreStable) {
  // The figure workload invariants the tuning relies on.
  const mec::UserApp user = make_user(PaperScale{1000, 4912}, 3);
  EXPECT_EQ(user.graph.num_nodes(), 1000u);
  std::size_t pinned = 0;
  for (std::size_t v = 0; v < user.unoffloadable.size(); ++v)
    if (user.unoffloadable[v]) ++pinned;
  // One UI cluster per ~60-function component: 10–25% of nodes.
  EXPECT_GE(pinned, 100u);
  EXPECT_LE(pinned, 250u);
  EXPECT_TRUE(paper_params().valid());
  EXPECT_TRUE(multiuser_params().valid());
  EXPECT_GT(multiuser_params().server_capacity,
            paper_params().server_capacity);
}

TEST(ExperimentsSmoke, SolveStaysFastAtScale) {
  // The scalability claim in miniature: 2000 users well under a second.
  const mec::MecSystem system =
      make_multiuser_system(2000, kMultiuserPoolSize, 5);
  mec::PipelineOptions opts;
  opts.propagation = paper_propagation();
  opts.identical_user_period = kMultiuserPoolSize;
  mec::PipelineOffloader offloader(opts);
  Stopwatch timer;
  const mec::OffloadingScheme scheme = offloader.solve(system);
  EXPECT_LT(timer.elapsed_seconds(), 5.0);
  EXPECT_TRUE(scheme.valid_for(system));
}

TEST(LoadHarness, PercentileIsCorrectForSamplesInAnyOrder) {
  LoadOutcome outcome;
  outcome.latencies = {0.129, 0.090, 0.010, 0.050, 0.070};
  EXPECT_EQ(outcome.percentile(0.0), 0.010);
  EXPECT_EQ(outcome.percentile(0.5), 0.070);
  // Interpolated: 0.090 + 0.8 * (0.129 - 0.090).
  EXPECT_NEAR(outcome.percentile(0.95), 0.1212, 1e-12);
  EXPECT_EQ(outcome.percentile(1.0), 0.129);
}

TEST(LoadHarness, OpenLoopLatencyRunsFromTheScheduledSend) {
  // One client at 1000 req/s. The injector stalls the first request's
  // cold solve for 90 ms; the nine cache hits behind it were due at
  // 1..9 ms, so each one's latency is at least 81 ms although its own
  // service time is microseconds.
  serve::FaultInjector::Options fault_options;
  fault_options.shards = 1;
  fault_options.latency_scale_seconds = 0.1;
  serve::FaultInjector injector(fault_options);
  sim::FaultScript script;
  script.degrade_link(1, 0, 0.9);
  injector.arm(script);
  serve::SolveServiceOptions options;
  options.shards = 1;
  options.injector = &injector;
  serve::SolveService service(options);
  const std::vector<serve::SolveRequest> requests{
      {make_user(paper_scales().front(), 5), paper_params()}};

  LoadOptions load;
  load.clients = 1;
  load.total_requests = 10;
  load.open_loop_rate_hz = 1000.0;
  load.wedge_seconds = 0.04;
  const LoadOutcome outcome = run_load(service, requests, {}, load);
  ASSERT_EQ(outcome.requests, 10u);
  EXPECT_EQ(outcome.hits, 9u);
  EXPECT_GE(outcome.percentile(0.0), 0.08);
  // The wedge check stays on service time: only the stalled solve.
  EXPECT_EQ(outcome.wedged, 1u);
}

}  // namespace
}  // namespace mecoff::bench
