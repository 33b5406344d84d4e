#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "linalg/tridiagonal.hpp"
#include "obs/obs.hpp"

namespace mecoff::linalg {

LinearOperator make_operator(const SparseMatrix& matrix) {
  MECOFF_EXPECTS(matrix.rows() == matrix.cols());
  return LinearOperator{
      matrix.rows(), [&matrix](std::span<const double> x, std::span<double> y) {
        matrix.multiply_into(x, y);
      }};
}

namespace {

/// Project `x` orthogonal to every vector in `dirs` (assumed unit norm).
void project_out(Vec& x, const std::vector<Vec>& dirs) {
  for (const Vec& d : dirs) deflate(x, d);
}

/// Orthogonalize `x` against the Lanczos basis columns AND the deflation
/// directions (classical Gram–Schmidt, applied twice — "twice is enough"
/// per Kahan/Parlett). Including the deflation set here is essential:
/// once the Krylov space exhausts the deflated complement, the residual
/// after basis-only reorthogonalization is dominated by the deflated
/// directions themselves; normalizing that residual would reintroduce
/// them into the basis and surface their (spurious) eigenvalues.
void reorthogonalize(Vec& x, const std::vector<Vec>& basis,
                     const std::vector<Vec>& deflate_dirs) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const Vec& d : deflate_dirs) deflate(x, d);
    for (const Vec& b : basis) deflate(x, b);
  }
}

/// Random unit start vector orthogonal to the deflation set.
Vec random_start(std::size_t n, const std::vector<Vec>& dirs, Rng& rng) {
  Vec v(n);
  for (int attempt = 0; attempt < 16; ++attempt) {
    for (double& x : v) x = rng.uniform(-1.0, 1.0);
    project_out(v, dirs);
    const double norm = norm2(v);
    if (norm > 1e-12 * std::sqrt(static_cast<double>(n))) {
      scale(v, 1.0 / norm);
      return v;
    }
  }
  throw InvariantError(
      "could not draw a start vector outside the deflation span");
}

struct SweepOutcome {
  std::vector<EigenPair> pairs;
  double max_residual = 0.0;
  bool basis_exhausted = false;  // invariant subspace found
};

/// One Lanczos sweep: build a Krylov basis of size <= m, then extract
/// Ritz pairs for the `k` smallest eigenvalues.
SweepOutcome lanczos_sweep(const LinearOperator& op, const Vec& start,
                           std::size_t m, std::size_t k,
                           const std::vector<Vec>& deflate_dirs,
                           std::size_t& matvec_count) {
  const std::size_t n = op.dim;
  std::vector<Vec> basis;
  basis.reserve(m);
  Vec alpha;  // diagonal of T
  Vec beta;   // off-diagonal of T

  Vec v = start;
  Vec w(n, 0.0);
  bool exhausted = false;

  for (std::size_t j = 0; j < m; ++j) {
    basis.push_back(v);
    op.apply(basis[j], w);
    ++matvec_count;
    project_out(w, deflate_dirs);

    const double a = dot(w, basis[j]);
    alpha.push_back(a);
    axpy(-a, basis[j], w);
    if (j > 0) axpy(-beta[j - 1], basis[j - 1], w);
    reorthogonalize(w, basis, deflate_dirs);

    const double b = norm2(w);
    if (j + 1 == m) break;
    if (b <= 1e-12 * (std::abs(a) + 1.0)) {
      exhausted = true;  // Krylov space is invariant; T is exact
      break;
    }
    beta.push_back(b);
    v = w;
    scale(v, 1.0 / b);
  }

  const std::size_t dim_t = alpha.size();
  const TridiagonalEigen eig =
      tridiagonal_eigen(alpha, Vec(beta.begin(),
                                   beta.begin() +
                                       static_cast<std::ptrdiff_t>(dim_t - 1)));

  SweepOutcome out;
  out.basis_exhausted = exhausted;
  const std::size_t take = std::min(k, dim_t);
  for (std::size_t p = 0; p < take; ++p) {
    EigenPair pair;
    pair.value = eig.values[p];
    pair.vector.assign(n, 0.0);
    for (std::size_t j = 0; j < dim_t; ++j)
      axpy(eig.vectors(j, p), basis[j], pair.vector);
    // The exact residual ‖A v − λ v‖ (one extra matvec per pair).
    Vec av(n, 0.0);
    op.apply(pair.vector, av);
    ++matvec_count;
    project_out(av, deflate_dirs);
    axpy(-pair.value, pair.vector, av);
    out.max_residual = std::max(out.max_residual, std::max(norm2(av), 0.0));
    out.pairs.push_back(std::move(pair));
  }
  return out;
}

}  // namespace

LanczosResult lanczos_smallest(const LinearOperator& op,
                               const LanczosOptions& options) {
  MECOFF_EXPECTS(op.dim >= 1);
  MECOFF_EXPECTS(options.num_pairs >= 1);
  MECOFF_TRACE_SPAN_ARG("linalg.lanczos", op.dim);
  MECOFF_COUNTER_ADD("linalg.lanczos.solves", 1);
  const std::size_t n = op.dim;

  // Effective dimension after deflation.
  const std::size_t effective_dim =
      n > options.deflate.size() ? n - options.deflate.size() : 0;
  const std::size_t k = std::min(options.num_pairs, effective_dim);
  LanczosResult result;
  if (k == 0) {
    result.converged = true;
    return result;
  }

  Rng rng(options.seed);
  const Vec start = random_start(n, options.deflate, rng);

  // Operator norm scale for the relative tolerance: estimate from one
  // matvec on the start vector (cheap, adequate for a threshold).
  Vec probe(n, 0.0);
  op.apply(start, probe);
  ++result.matvec_count;
  const double op_scale = std::max(norm2(probe), 1.0);
  const double abs_tol = options.tolerance * op_scale;

  std::size_t m =
      std::min<std::size_t>(n, std::max<std::size_t>(2 * k + 28, 36));

  SweepOutcome best;
  bool have_best = false;
  std::size_t sweeps = 0;
  while (true) {
    SweepOutcome sweep = [&] {
      MECOFF_TRACE_SPAN_ARG("linalg.lanczos.sweep", m);
      return lanczos_sweep(op, start, m, k, options.deflate,
                           result.matvec_count);
    }();
    ++sweeps;
    if (!have_best || sweep.max_residual < best.max_residual) {
      best = std::move(sweep);
      have_best = true;
    }
    if (best.max_residual <= abs_tol || best.basis_exhausted ||
        m >= std::min(kLanczosMaxSubspace, n)) {
      break;
    }
    m = std::min({2 * m, kLanczosMaxSubspace, n});
  }

  result.pairs = std::move(best.pairs);
  result.max_residual = best.max_residual;
  result.converged = best.max_residual <= abs_tol || best.basis_exhausted;
  MECOFF_COUNTER_ADD("linalg.lanczos.matvecs", result.matvec_count);
  MECOFF_COUNTER_ADD("linalg.lanczos.restarts", sweeps - 1);
  MECOFF_COUNTER_ADD("linalg.lanczos.nonconverged",
                     result.converged ? 0 : 1);
  return result;
}

}  // namespace mecoff::linalg
