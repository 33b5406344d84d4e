// Figure 9 — execution time vs. graph size, four series:
//   our algorithm without Spark   (spectral pipeline, naive dense
//                                  power-iteration eigensolver — the
//                                  paper's "lots of matrix
//                                  multiplications" bottleneck)
//   max-flow min-cut              (baseline)
//   Kernighan–Lin                 (baseline)
//   our algorithm with Spark      (same dense eigensolver, matvec rows
//                                  distributed on the mini-Spark
//                                  thread-pool engine)
//
// Paper shape: the spectral pipeline without the parallel engine is
// markedly slower than the baselines at large sizes; with the engine it
// is "close to the other two algorithms".
//
// A fifth bonus series shows this repo's production eigensolver
// (sparse restarted Lanczos): the Fig. 9 bottleneck is an artifact of
// the naive dense solver and disappears entirely with a proper sparse
// method — worth knowing before anyone deploys the paper's Spark setup.
//
// Note: this container may expose a single hardware thread, which
// bounds the attainable engine speed-up; the code path exercised is the
// real parallel one regardless, and the bench prints the thread count.
#include <cstdio>
#include <thread>

#include "common/stopwatch.hpp"
#include "support/figures.hpp"

namespace {

using namespace mecoff;
using namespace mecoff::bench;

double time_solve(const mec::MecSystem& system, mec::CutBackend backend,
                  spectral::EigenBackend eigen, parallel::ThreadPool* pool) {
  mec::PipelineOptions opts;
  opts.backend = backend;
  opts.propagation = paper_propagation();
  opts.pool = pool;
  opts.spectral.fiedler.backend = eigen;
  opts.maxflow.num_pairs = 1;
  mec::PipelineOffloader offloader(opts);
  Stopwatch timer;
  (void)offloader.solve(system);
  return timer.elapsed_seconds();
}

int run() {
  parallel::ThreadPool pool;
  const unsigned threads = std::thread::hardware_concurrency();
  std::printf("hardware threads available: %u\n", threads);

  std::vector<std::string> xs;
  std::vector<Series> series{{"ours w/o spark (dense eigensolver)", {}},
                             {"max-flow min-cut", {}},
                             {"Kernighan-Lin", {}},
                             {"ours w/ spark (dense eigensolver)", {}},
                             {"ours, sparse Lanczos (bonus)", {}}};

  for (const PaperScale scale : paper_scales()) {
    // Table I granularity (4 components per graph): the compressed
    // sub-graphs are then hundreds of super-nodes at the top scale, so
    // the eigensolver dominates exactly as in the paper's Fig. 9.
    mec::MecSystem system{paper_params(),
                          {make_user(scale, /*seed=*/9,
                                     /*components_override=*/4)}};
    xs.push_back(std::to_string(scale.nodes));
    series[0].values.push_back(
        time_solve(system, mec::CutBackend::kSpectral,
                   spectral::EigenBackend::kDensePowerNaive, nullptr));
    series[1].values.push_back(
        time_solve(system, mec::CutBackend::kMaxFlow,
                   spectral::EigenBackend::kLanczos, nullptr));
    series[2].values.push_back(
        time_solve(system, mec::CutBackend::kKernighanLin,
                   spectral::EigenBackend::kLanczos, nullptr));
    series[3].values.push_back(
        time_solve(system, mec::CutBackend::kSpectral,
                   spectral::EigenBackend::kDensePowerNaive, &pool));
    series[4].values.push_back(
        time_solve(system, mec::CutBackend::kSpectral,
                   spectral::EigenBackend::kLanczos, nullptr));
    std::fprintf(stderr, "  [fig9] graph size %zu done\n", scale.nodes);
  }

  print_figure("Figure 9: execution time (seconds)", "graph size", xs,
               series, 4);

  const std::size_t last = xs.size() - 1;
  print_shape_check(
      "spectral with the naive dense eigensolver is the slowest series "
      "at the largest size",
      series[0].values[last] >= series[1].values[last] &&
          series[0].values[last] >= series[2].values[last]);
  if (threads > 1) {
    print_shape_check(
        "the parallel engine brings the spectral pipeline closer to the "
        "baselines",
        series[3].values[last] < series[0].values[last]);
  } else {
    std::printf("[SHAPE-NOTE] single hardware thread: engine speed-up "
                "not measurable here; series 4 only checks the parallel "
                "code path.\n");
  }
  print_shape_check(
      "the sparse Lanczos solver removes the Fig. 9 bottleneck "
      "entirely",
      series[4].values[last] <= 0.25 * series[0].values[last]);
  return 0;
}

}  // namespace

int main() { return run(); }
