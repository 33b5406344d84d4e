// The Bipartitioner the paper's offloader plugs in: Fiedler pair then
// sweep split. Handles the degenerate cases the pure math cannot:
// empty graphs, single nodes, and disconnected inputs (each component
// is split recursively against the overall best cut... in practice the
// pipeline always hands us connected components, but a library must not
// misbehave when called directly).
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

  /// Fiedler solves below tolerance since construction.
  [[nodiscard]] std::size_t nonconverged_count() const {
    return nonconverged_count_;
  }

  /// Arm the NEXT bipartition() with a warm-start Fiedler vector (the
  /// incremental re-solve path). Consumed by exactly one call — the
  /// call after it is cold again, so a stale vector can never leak
  /// into an unrelated graph. `v` is not owned and must stay alive
  /// until that call; nullptr disarms. Degenerate/disconnected inputs
  /// skip the eigensolve and simply drop the hint.
  void set_warm_start(const linalg::Vec* v) { warm_start_ = v; }

  /// Fiedler vector from the last bipartition() that ran an eigensolve
  /// (unit norm); empty when the last input was degenerate or
  /// disconnected. This is what a caller stores to warm the next solve.
  [[nodiscard]] const linalg::Vec& last_fiedler_vector() const {
    return last_fiedler_vector_;
  }

 private:
  SpectralOptions options_;
  double last_fiedler_value_ = 0.0;
  bool last_converged_ = true;
  std::size_t nonconverged_count_ = 0;
  const linalg::Vec* warm_start_ = nullptr;
  linalg::Vec last_fiedler_vector_;
};

}  // namespace mecoff::spectral
