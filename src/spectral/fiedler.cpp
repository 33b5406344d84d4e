#include "spectral/fiedler.hpp"

#include <algorithm>
#include <string>

#include "common/contracts.hpp"
#include "graph/components.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/power_iteration.hpp"
#include "obs/obs.hpp"

namespace mecoff::spectral {

FiedlerResult fiedler_pair(const graph::WeightedGraph& g,
                           const FiedlerOptions& options) {
  MECOFF_EXPECTS(g.num_nodes() >= 2);
  MECOFF_TRACE_SPAN_ARG("spectral.eigensolve", g.num_nodes());
  MECOFF_COUNTER_ADD("spectral.eigensolve.runs", 1);

  const linalg::SparseMatrix lap = linalg::laplacian(g);
  const linalg::LinearOperator op =
      linalg::make_operator(lap, options.spmv_kernel);

  FiedlerResult out;
  if (options.backend == EigenBackend::kDensePowerNaive) {
    // Explicit dense Laplacian; every matvec is a full O(n²) row sweep.
    const linalg::DenseMatrix dense = linalg::dense_laplacian(g);
    const std::size_t n = g.num_nodes();
    linalg::LinearOperator dense_op{
        n, [&dense, n](std::span<const double> x, std::span<double> y) {
          for (std::size_t r = 0; r < n; ++r)
            y[r] = linalg::dot(dense.row(r), x);
        }};
    linalg::PowerOptions popt;
    popt.tolerance = options.tolerance;
    popt.max_iterations = options.max_iterations;
    popt.deflate = {linalg::constant_unit(n)};
    popt.seed = options.seed;
    const linalg::PowerResult res =
        linalg::power_smallest_shifted(dense_op, lap.gershgorin_bound(),
                                       popt);
    out.value = res.pair.value;
    out.vector = res.pair.vector;
    out.converged = res.converged;
    out.matvec_count = res.iterations;
    if (out.value < 0.0 && out.value > -1e-9) out.value = 0.0;
    return out;
  }
  if (options.backend == EigenBackend::kLanczos) {
    linalg::LanczosOptions lopt;
    lopt.num_pairs = 1;
    lopt.tolerance = options.tolerance;
    lopt.max_subspace = options.max_subspace;
    lopt.deflate = {linalg::constant_unit(g.num_nodes())};
    lopt.seed = options.seed;
    if (options.warm_start != nullptr) {
      if (options.warm_start->size() != g.num_nodes())
        throw PreconditionError(
            "Fiedler warm-start vector has dimension " +
            std::to_string(options.warm_start->size()) +
            " but the graph has " + std::to_string(g.num_nodes()) +
            " nodes");
      lopt.initial_vector = *options.warm_start;
      lopt.initial_subspace =
          std::min(std::max<std::size_t>(options.warm_subspace, 2),
                   g.num_nodes());
      MECOFF_COUNTER_ADD("spectral.eigensolve.warm_starts", 1);
    }
    const linalg::LanczosResult res = linalg::lanczos_smallest(op, lopt);
    MECOFF_ENSURES(!res.pairs.empty());
    out.value = res.pairs.front().value;
    out.vector = res.pairs.front().vector;
    out.converged = res.converged;
    out.matvec_count = res.matvec_count;
  } else {
    linalg::PowerOptions popt;
    popt.tolerance = options.tolerance;
    popt.max_iterations = options.max_iterations;
    popt.deflate = {linalg::constant_unit(g.num_nodes())};
    popt.seed = options.seed;
    const linalg::PowerResult res =
        linalg::power_smallest_shifted(op, lap.gershgorin_bound(), popt);
    out.value = res.pair.value;
    out.vector = res.pair.vector;
    out.converged = res.converged;
    out.matvec_count = res.iterations;
  }

  // Numerical floor: λ₂ of a connected graph is positive but Lanczos can
  // return a tiny negative due to roundoff.
  if (out.value < 0.0 && out.value > -1e-9) out.value = 0.0;
  return out;
}

}  // namespace mecoff::spectral
