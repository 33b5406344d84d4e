// Warm vs cold incremental re-solve on single-edge-perturbation
// workloads: the serving story this repo's warm-start path exists for.
//
// Each workload is a solved 250-node system whose next request is the
// SAME graph with ONE edge weight scaled — the canonical channel-drift
// delta. Two phases:
//
//   eigensolve  the spectral bill in isolation: cold Fiedler solve of
//               the perturbed Laplacian vs the same solve warm-started
//               from the pre-perturbation Fiedler vector. Matvec counts
//               are seeded-deterministic, so the ≥ 3× reduction is
//               asserted and the counters are bit-stable for
//               tools/bench_gate.py.
//   re-solve    end to end through PipelineOffloader::solve(system,
//               warm): correctness gates (every warm scheme valid,
//               warm objective ≤ cold objective, Fiedler hints seeded)
//               plus wall-clock for the table.
//
// Wall-clock ratios are printed but never gated — the deterministic
// matvec ratio is the regression tripwire; seconds are presence-only
// under the gate's default tolerance policy.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "graph/weighted_graph.hpp"
#include "mec/costs.hpp"
#include "mec/offloader.hpp"
#include "spectral/fiedler.hpp"
#include "support/reporting.hpp"
#include "support/workloads.hpp"

namespace {

using namespace mecoff;
using namespace mecoff::bench;

constexpr std::size_t kWorkloads = 8;
constexpr std::size_t kNodes = 250;  // two 125-node communities
constexpr std::size_t kBridges = 3;
constexpr double kIntraEdgeProbability = 0.08;
constexpr std::size_t kTimingReps = 10;
constexpr double kMinMatvecSpeedup = 3.0;

/// Two dense communities joined by a few weak bridges — the shape the
/// offloading cut actually faces (local cluster vs remote cluster),
/// and the shape where the Fiedler value is well separated from λ₃ so
/// eigensolve iteration counts measure the start vector, not a
/// degenerate-pair resolution march.
graph::WeightedGraph make_workload(std::uint64_t seed) {
  Rng rng(seed);
  graph::GraphBuilder builder;
  for (std::size_t v = 0; v < kNodes; ++v)
    builder.add_node(rng.uniform(0.5, 2.0));
  const std::size_t half = kNodes / 2;
  for (std::size_t side = 0; side < 2; ++side) {
    const std::size_t lo = side * half;
    const std::size_t hi = lo + half;
    for (std::size_t v = lo + 1; v < hi; ++v)  // spanning tree per side
      builder.add_edge(static_cast<graph::NodeId>(v),
                       static_cast<graph::NodeId>(rng.uniform_int(
                           static_cast<std::int64_t>(lo),
                           static_cast<std::int64_t>(v) - 1)),
                       rng.uniform(1.0, 3.0));
    for (std::size_t u = lo; u < hi; ++u)
      for (std::size_t v = u + 1; v < hi; ++v)
        if (rng.bernoulli(kIntraEdgeProbability))
          builder.add_edge(static_cast<graph::NodeId>(u),
                           static_cast<graph::NodeId>(v),
                           rng.uniform(1.0, 3.0));
  }
  for (std::size_t b = 0; b < kBridges; ++b)
    builder.add_edge(
        static_cast<graph::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(half) - 1)),
        static_cast<graph::NodeId>(rng.uniform_int(
            static_cast<std::int64_t>(half),
            static_cast<std::int64_t>(kNodes) - 1)),
        rng.uniform(0.05, 0.15));
  return builder.build();
}

/// The single-edge perturbation: edge (seed mod m) scaled by 1.1.
graph::WeightedGraph perturb_one_edge(const graph::WeightedGraph& g,
                                      std::uint64_t seed) {
  const std::size_t target = seed % g.num_edges();
  graph::GraphBuilder builder;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    builder.add_node(g.node_weight(v));
  const auto edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i)
    builder.add_edge(edges[i].u, edges[i].v,
                     i == target ? edges[i].weight * 1.1 : edges[i].weight);
  return builder.build();
}

mec::MecSystem make_system(graph::WeightedGraph g) {
  mec::MecSystem system;
  system.params = paper_params();
  mec::UserApp user;
  user.graph = std::move(g);
  system.users.push_back(std::move(user));
  return system;
}

int run() {
  std::vector<graph::WeightedGraph> base;
  std::vector<graph::WeightedGraph> drifted;
  for (std::size_t w = 0; w < kWorkloads; ++w) {
    base.push_back(make_workload(900 + w));
    drifted.push_back(perturb_one_edge(base.back(), 37 + w));
  }

  // -- eigensolve: deterministic matvec bill, cold vs warm ------------
  std::size_t cold_matvecs = 0;
  std::size_t warm_matvecs = 0;
  std::size_t nonconverged = 0;
  double max_value_gap = 0.0;
  std::vector<spectral::FiedlerResult> priors(kWorkloads);
  for (std::size_t w = 0; w < kWorkloads; ++w) {
    const spectral::FiedlerOptions options;
    priors[w] = spectral::fiedler_pair(base[w], options);

    const spectral::FiedlerResult cold =
        spectral::fiedler_pair(drifted[w], options);
    spectral::FiedlerOptions warm_options = options;
    warm_options.warm_start = &priors[w].vector;
    const spectral::FiedlerResult warm =
        spectral::fiedler_pair(drifted[w], warm_options);

    if (!priors[w].converged || !cold.converged || !warm.converged)
      ++nonconverged;
    cold_matvecs += cold.matvec_count;
    warm_matvecs += warm.matvec_count;
    max_value_gap = std::max(max_value_gap,
                             std::fabs(warm.value - cold.value));
  }
  const double matvec_speedup = static_cast<double>(cold_matvecs) /
                                static_cast<double>(std::max<std::size_t>(
                                    warm_matvecs, 1));

  // Wall clock over fixed reps (table only; counters stay deterministic
  // because the rep count is a constant).
  Stopwatch cold_timer;
  for (std::size_t rep = 0; rep < kTimingReps; ++rep)
    for (std::size_t w = 0; w < kWorkloads; ++w)
      (void)spectral::fiedler_pair(drifted[w]);
  const double eig_cold_s = cold_timer.elapsed_seconds();
  Stopwatch warm_timer;
  for (std::size_t rep = 0; rep < kTimingReps; ++rep)
    for (std::size_t w = 0; w < kWorkloads; ++w) {
      spectral::FiedlerOptions options;
      options.warm_start = &priors[w].vector;
      (void)spectral::fiedler_pair(drifted[w], options);
    }
  const double eig_warm_s = warm_timer.elapsed_seconds();

  // -- end-to-end re-solve through the pipeline -----------------------
  std::size_t valid = 0;
  std::size_t warm_not_worse = 0;
  std::size_t fiedler_seeded = 0;
  double solve_cold_s = 0.0;
  double solve_warm_s = 0.0;
  for (std::size_t w = 0; w < kWorkloads; ++w) {
    mec::PipelineOptions prior_options;
    prior_options.collect_fiedler_vectors = true;
    mec::PipelineOffloader prior_solver(prior_options);
    mec::PipelineOffloader::WarmStart warm;
    warm.scheme = prior_solver.solve(make_system(base[w]));
    warm.fiedler_vectors = prior_solver.last_artifacts().fiedler_vectors;

    const mec::MecSystem after = make_system(drifted[w]);
    mec::PipelineOffloader cold_solver;
    Stopwatch cold_solve_timer;
    const mec::OffloadingScheme cold_scheme = cold_solver.solve(after);
    solve_cold_s += cold_solve_timer.elapsed_seconds();

    mec::PipelineOffloader warm_solver;
    Stopwatch warm_solve_timer;
    const mec::OffloadingScheme warm_scheme = warm_solver.solve(after, &warm);
    solve_warm_s += warm_solve_timer.elapsed_seconds();

    if (warm_scheme.valid_for(after)) ++valid;
    if (mec::evaluate(after, warm_scheme).objective() <=
        mec::evaluate(after, cold_scheme).objective())
      ++warm_not_worse;
    fiedler_seeded += warm_solver.last_stats().warm_fiedler_seeded;
  }

  print_table(
      "Incremental re-solve, single-edge perturbation (8 workloads, "
      "250 nodes)",
      {"phase", "cold", "warm", "ratio"},
      {{"eigensolve matvecs", std::to_string(cold_matvecs),
        std::to_string(warm_matvecs), format_fixed(matvec_speedup, 2)},
       {"eigensolve wall (10 reps)", format_fixed(eig_cold_s, 3) + " s",
        format_fixed(eig_warm_s, 3) + " s",
        format_fixed(eig_cold_s / std::max(eig_warm_s, 1e-9), 2)},
       {"pipeline re-solve wall", format_fixed(solve_cold_s, 3) + " s",
        format_fixed(solve_warm_s, 3) + " s",
        format_fixed(solve_cold_s / std::max(solve_warm_s, 1e-9), 2)}});

  print_shape_check("all eigensolves converged", nonconverged == 0);
  print_shape_check("warm eigenvalue matches cold (gap < 1e-6)",
                    max_value_gap < 1e-6);
  print_shape_check("warm matvec reduction >= 3x",
                    matvec_speedup >= kMinMatvecSpeedup);
  print_shape_check("every warm scheme valid", valid == kWorkloads);
  print_shape_check("warm objective never above cold",
                    warm_not_worse == kWorkloads);
  print_shape_check("every warm solve seeded Fiedler hints",
                    fiedler_seeded >= kWorkloads);

  return (nonconverged == 0 && max_value_gap < 1e-6 &&
          matvec_speedup >= kMinMatvecSpeedup && valid == kWorkloads &&
          warm_not_worse == kWorkloads && fiedler_seeded >= kWorkloads)
             ? 0
             : 1;
}

}  // namespace

int main() {
  const int rc = run();
  // All counters are seeded-deterministic: fixed workloads, fixed rep
  // counts, no pool — bit-stable input for tools/bench_gate.py.
  print_metrics_json("bench_resolve");
  return rc;
}
