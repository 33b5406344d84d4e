// Ablation — cut quality of the spectral relaxation.
//
// The paper's Theorem 1 treats the Fiedler pair as "the" minimum cut;
// in truth the spectral split is a relaxation. This bench quantifies
// the gap on graphs small enough for the exact Stoer–Wagner oracle:
// sign split vs sweep split vs exact optimum vs the max-flow baseline.
#include <cstdio>

#include "common/strings.hpp"
#include "graph/generators.hpp"
#include "mincut/bipartitioner.hpp"
#include "mincut/stoer_wagner.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/splitter.hpp"
#include "support/reporting.hpp"
#include "support/workloads.hpp"

namespace {

using namespace mecoff;
using namespace mecoff::bench;

int run() {
  std::vector<std::vector<std::string>> rows;
  double worst_sweep_ratio = 0.0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
    graph::NetgenParams p;
    p.nodes = 60;
    p.edges = 240;
    p.components = 1;
    p.seed = seed;
    const graph::WeightedGraph g = graph::netgen_style(p);

    const double exact = mincut::stoer_wagner(g).cut_weight;
    const spectral::FiedlerResult fiedler = spectral::fiedler_pair(g);
    const double sign = spectral::sign_split(g, fiedler.vector).cut_weight;
    const double sweep = spectral::sweep_split(g, fiedler.vector).cut_weight;
    const double maxflow =
        mincut::MaxFlowBipartitioner().bipartition(g).cut_weight;

    const double sweep_ratio = exact > 0 ? sweep / exact : 1.0;
    worst_sweep_ratio = std::max(worst_sweep_ratio, sweep_ratio);
    rows.push_back({"seed " + std::to_string(seed), format_fixed(exact, 2),
                    format_fixed(sign, 2), format_fixed(sweep, 2),
                    format_fixed(maxflow, 2),
                    format_fixed(sweep_ratio, 2) + "x"});
  }
  print_table("Ablation: spectral cut vs exact minimum (60-node graphs)",
              {"instance", "Stoer-Wagner (exact)", "spectral sign",
               "spectral sweep", "max-flow best-of-8", "sweep/exact"},
              rows);
  print_shape_check("sweep split within 3x of the exact minimum cut",
                    worst_sweep_ratio <= 3.0);
  return 0;
}

}  // namespace

int main() { return run(); }
