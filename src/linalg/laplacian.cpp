#include "linalg/laplacian.hpp"

#include "common/contracts.hpp"

namespace mecoff::linalg {

SparseMatrix laplacian(const graph::WeightedGraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<Triplet> triplets;
  triplets.reserve(4 * g.num_edges() + n);
  std::vector<double> degree(n, 0.0);
  for (const graph::Edge& e : g.edges()) {
    degree[e.u] += e.weight;
    degree[e.v] += e.weight;
    triplets.push_back({e.u, e.v, -e.weight});
    triplets.push_back({e.v, e.u, -e.weight});
  }
  for (std::size_t v = 0; v < n; ++v) triplets.push_back({v, v, degree[v]});
  return SparseMatrix::from_triplets(n, n, std::move(triplets));
}

DenseMatrix dense_laplacian(const graph::WeightedGraph& g) {
  const std::size_t n = g.num_nodes();
  DenseMatrix m(n, n);
  for (const graph::Edge& e : g.edges()) {
    m(e.u, e.v) -= e.weight;
    m(e.v, e.u) -= e.weight;
    m(e.u, e.u) += e.weight;
    m(e.v, e.v) += e.weight;
  }
  return m;
}

}  // namespace mecoff::linalg
