// Ablation — Algorithm 2's initialization ("Insert(V2', V1)").
//
// The paper's pseudocode moves an unspecified set V2' into V1 before
// the greedy loop; DESIGN.md §7.3 reads this as anchoring one cut side
// per component by myopic cost. This bench compares three starts,
// evaluated under the full E + T objective across the three cut
// algorithms:
//   anchored    — the repo's default (myopic per-component choice);
//   all-remote  — the literal "all parts in V2" start;
//   group-moves — all-remote start, but the greedy may retreat whole
//                 components (the DESIGN.md §7.4 extension).
// Expected: the anchored start and group moves both rescue the
// baselines from the pairwise trap; the plain all-remote start is where
// bad cuts hurt most — i.e., where the paper's figures come from.
#include <cstdio>

#include "common/strings.hpp"
#include "mec/costs.hpp"
#include "support/reporting.hpp"
#include "support/workloads.hpp"

namespace {

using namespace mecoff;
using namespace mecoff::bench;

double run_variant(const mec::MecSystem& system, mec::CutBackend backend,
                   bool anchored, bool group_moves) {
  mec::PipelineOptions opts;
  opts.backend = backend;
  opts.propagation = paper_propagation();
  opts.anchor_initial_parts = anchored;
  opts.greedy.enable_group_moves = group_moves;
  if (backend == mec::CutBackend::kMaxFlow) opts.maxflow.num_pairs = 1;
  mec::PipelineOffloader offloader(opts);
  return mec::evaluate(system, offloader.solve(system)).objective();
}

int run() {
  const PaperScale scale{1000, 4912};
  mec::MecSystem system{paper_params(), {make_user(scale, /*seed=*/11)}};

  std::vector<std::vector<std::string>> rows;
  double spread_plain = 0.0;
  double spread_group = 0.0;
  for (const mec::CutBackend backend : paper_backends()) {
    const double anchored = run_variant(system, backend, true, false);
    const double plain = run_variant(system, backend, false, false);
    const double grouped = run_variant(system, backend, false, true);
    rows.push_back({backend_label(backend), format_fixed(anchored, 1),
                    format_fixed(plain, 1), format_fixed(grouped, 1)});
    if (backend == mec::CutBackend::kSpectral) {
      spread_plain = plain;
      spread_group = grouped;
    } else if (backend == mec::CutBackend::kKernighanLin) {
      spread_plain = plain - spread_plain;    // KL − ours, plain start
      spread_group = grouped - spread_group;  // KL − ours, group moves
    }
  }

  print_table("Ablation: Algorithm 2 initialization (single user, "
              "1000-function graph; cells are E + T)",
              {"cut algorithm", "anchored start (default)",
               "all-remote start", "all-remote + group moves"},
              rows);
  std::printf(
      "KL-vs-spectral spread: %s with the plain all-remote start, "
      "%s once whole-component retreats are allowed — the paper's\n"
      "between-algorithm differences largely live in the greedy's "
      "single-move myopia.\n",
      format_fixed(spread_plain, 1).c_str(),
      format_fixed(spread_group, 1).c_str());
  print_shape_check(
      "group moves shrink the KL-vs-spectral spread of the plain start",
      spread_group <= spread_plain + 1e-9);
  return 0;
}

}  // namespace

int main() { return run(); }
