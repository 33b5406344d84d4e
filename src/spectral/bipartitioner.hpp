// The Bipartitioner the paper's offloader plugs in: Fiedler pair then
// sweep split. Handles the degenerate cases the pure math cannot:
// empty graphs and single nodes (everything on side 0), and
// disconnected inputs, which already have a zero cut: the smallest
// component goes to side 1 and no eigensolve runs. The pipeline does
// hand over disconnected sub-graphs, when declared components split a
// connected piece (lpa/pipeline.hpp).
#pragma once

#include "graph/partition.hpp"
#include "spectral/fiedler.hpp"

namespace mecoff::spectral {

struct SpectralOptions {
  FiedlerOptions fiedler;
};

class SpectralBipartitioner final : public graph::Bipartitioner {
 public:
  explicit SpectralBipartitioner(SpectralOptions options = {});

  [[nodiscard]] graph::Bipartition bipartition(
      const graph::WeightedGraph& g) override;

  [[nodiscard]] std::string name() const override { return "spectral"; }

  /// λ₂ of the last connected graph partitioned (diagnostics).
  [[nodiscard]] double last_fiedler_value() const {
    return last_fiedler_value_;
  }

  /// False when the last bipartition() used a Fiedler vector that did
  /// NOT reach tolerance — the cut is a best-effort guess, and callers
  /// with a fallback (the offloader's spectral → KL → all-remote
  /// chain) should take it. Degenerate and disconnected inputs need no
  /// eigensolve and report true.
  [[nodiscard]] bool last_converged() const { return last_converged_; }

 private:
  SpectralOptions options_;
  double last_fiedler_value_ = 0.0;
  bool last_converged_ = true;
};

}  // namespace mecoff::spectral
