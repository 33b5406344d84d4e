// Microbenchmarks (google-benchmark) for the kernels the figures are
// built from: CSR SpMV, label propagation,
// compression, the three cut algorithms, and Algorithm 2's greedy.
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "kl/kernighan_lin.hpp"
#include "linalg/laplacian.hpp"
#include "lpa/compressor.hpp"
#include "lpa/propagation.hpp"
#include "mec/greedy.hpp"
#include "mec/offloader.hpp"
#include "mincut/bipartitioner.hpp"
#include "spectral/bipartitioner.hpp"
#include "support/workloads.hpp"

namespace {

using namespace mecoff;

graph::WeightedGraph bench_graph(std::size_t nodes,
                                 std::size_t components = 1) {
  graph::NetgenParams p;
  p.nodes = nodes;
  p.edges = nodes * 5;
  p.components = components;
  p.seed = nodes + components;
  return graph::netgen_style(p);
}

void BM_SpmvSerial(benchmark::State& state) {
  const graph::WeightedGraph g =
      bench_graph(static_cast<std::size_t>(state.range(0)));
  const linalg::SparseMatrix lap = linalg::laplacian(g);
  linalg::Vec x(g.num_nodes(), 1.0);
  linalg::Vec y(g.num_nodes(), 0.0);
  for (auto _ : state) {
    lap.multiply_into(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lap.nonzeros()));
}
BENCHMARK(BM_SpmvSerial)->Arg(1000)->Arg(5000);

void BM_LabelPropagation(benchmark::State& state) {
  const graph::WeightedGraph g =
      bench_graph(static_cast<std::size_t>(state.range(0)));
  lpa::PropagationConfig config;
  config.coupling_threshold = 10.0;
  for (auto _ : state) {
    const lpa::PropagationResult r = lpa::propagate_labels(g, config);
    benchmark::DoNotOptimize(r.num_labels);
  }
}
BENCHMARK(BM_LabelPropagation)->Arg(1000)->Arg(5000);

void BM_Compression(benchmark::State& state) {
  const graph::WeightedGraph g =
      bench_graph(static_cast<std::size_t>(state.range(0)));
  lpa::PropagationConfig config;
  config.coupling_threshold = 10.0;
  const lpa::PropagationResult labels = lpa::propagate_labels(g, config);
  for (auto _ : state) {
    const lpa::CompressionResult r =
        lpa::compress_by_labels(g, labels.labels);
    benchmark::DoNotOptimize(r.compressed.num_nodes());
  }
}
BENCHMARK(BM_Compression)->Arg(1000)->Arg(5000);

void BM_SpectralCut(benchmark::State& state) {
  const graph::WeightedGraph g =
      bench_graph(static_cast<std::size_t>(state.range(0)));
  spectral::SpectralBipartitioner cutter;
  for (auto _ : state) {
    const graph::Bipartition cut = cutter.bipartition(g);
    benchmark::DoNotOptimize(cut.cut_weight);
  }
}
BENCHMARK(BM_SpectralCut)->Arg(200)->Arg(800);

void BM_MaxFlowCut(benchmark::State& state) {
  const graph::WeightedGraph g =
      bench_graph(static_cast<std::size_t>(state.range(0)));
  mincut::MaxFlowBipartitioner cutter;
  for (auto _ : state) {
    const graph::Bipartition cut = cutter.bipartition(g);
    benchmark::DoNotOptimize(cut.cut_weight);
  }
}
BENCHMARK(BM_MaxFlowCut)->Arg(200)->Arg(800);

void BM_KernighanLinCut(benchmark::State& state) {
  const graph::WeightedGraph g =
      bench_graph(static_cast<std::size_t>(state.range(0)));
  kl::KernighanLinBipartitioner cutter;
  for (auto _ : state) {
    const graph::Bipartition cut = cutter.bipartition(g);
    benchmark::DoNotOptimize(cut.cut_weight);
  }
}
BENCHMARK(BM_KernighanLinCut)->Arg(200)->Arg(800);

void BM_GreedySchemeGeneration(benchmark::State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const mec::MecSystem system = bench::make_multiuser_system(
      users, bench::kMultiuserPoolSize, /*seed=*/13);
  // Precompute parts once via the pipeline, then re-run only Algorithm 2.
  mec::PipelineOptions opts;
  opts.propagation = bench::paper_propagation();
  opts.identical_user_period = bench::kMultiuserPoolSize;
  mec::PipelineOffloader offloader(opts);
  (void)offloader.solve(system);  // warm; parts rebuilt internally below

  for (auto _ : state) {
    const mec::OffloadingScheme scheme = offloader.solve(system);
    benchmark::DoNotOptimize(scheme.placement.size());
  }
}
BENCHMARK(BM_GreedySchemeGeneration)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
