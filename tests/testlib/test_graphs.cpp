#include "testlib/test_graphs.hpp"

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace mecoff::graph {

WeightedGraph app_call_graph(const CallGraphParams& params) {
  MECOFF_EXPECTS(params.functions >= 1);
  Rng rng(params.seed);
  GraphBuilder builder;
  for (std::size_t i = 0; i < params.functions; ++i) {
    builder.add_node(rng.uniform(params.min_compute,
                                 std::nextafter(params.max_compute, 1e308)));
  }
  const auto data_weight = [&] {
    return rng.uniform(params.min_data,
                       std::nextafter(params.max_data, 1e308));
  };

  // Preferential-attachment-flavoured call tree: each new function is
  // called by an existing one chosen with probability ~ (1 + fanout so
  // far)^(1/shape) via Pareto-weighted sampling.
  std::vector<double> attract(params.functions, 1.0);
  for (std::size_t i = 1; i < params.functions; ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < i; ++j) total += attract[j];
    double pick = rng.uniform() * total;
    std::size_t caller = 0;
    for (std::size_t j = 0; j < i; ++j) {
      pick -= attract[j];
      if (pick <= 0.0) {
        caller = j;
        break;
      }
    }
    builder.add_edge(static_cast<NodeId>(caller), static_cast<NodeId>(i),
                     data_weight());
    // A Pareto(shape, 1) draw: at least 1, heavy-tailed.
    const double pareto = 1.0 / std::pow(1.0 - rng.uniform(),
                                         1.0 / params.fanout_shape);
    attract[caller] += pareto - 1.0;
  }

  // Shortcut data edges (shared state, callbacks).
  for (std::size_t u = 0; u + 1 < params.functions; ++u) {
    for (std::size_t tries = 0; tries < 2; ++tries) {
      if (!rng.bernoulli(params.shortcut_probability)) continue;
      const std::size_t v = rng.index(params.functions);
      if (v == u) continue;
      builder.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v),
                       data_weight());
    }
  }
  return builder.build();
}

WeightedGraph path_graph(std::size_t n, double nw, double ew) {
  GraphBuilder b;
  for (std::size_t i = 0; i < n; ++i) b.add_node(nw);
  for (std::size_t i = 1; i < n; ++i)
    b.add_edge(static_cast<NodeId>(i - 1), static_cast<NodeId>(i), ew);
  return b.build();
}

WeightedGraph cycle_graph(std::size_t n, double nw, double ew) {
  MECOFF_EXPECTS(n >= 3);
  GraphBuilder b;
  for (std::size_t i = 0; i < n; ++i) b.add_node(nw);
  for (std::size_t i = 0; i < n; ++i)
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n), ew);
  return b.build();
}

WeightedGraph complete_graph(std::size_t n, double nw, double ew) {
  GraphBuilder b;
  for (std::size_t i = 0; i < n; ++i) b.add_node(nw);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j), ew);
  return b.build();
}

WeightedGraph star_graph(std::size_t n, double nw, double ew) {
  MECOFF_EXPECTS(n >= 1);
  GraphBuilder b;
  for (std::size_t i = 0; i < n; ++i) b.add_node(nw);
  for (std::size_t i = 1; i < n; ++i)
    b.add_edge(0, static_cast<NodeId>(i), ew);
  return b.build();
}

WeightedGraph grid_graph(std::size_t rows, std::size_t cols, double nw,
                         double ew) {
  MECOFF_EXPECTS(rows >= 1 && cols >= 1);
  GraphBuilder b;
  for (std::size_t i = 0; i < rows * cols; ++i) b.add_node(nw);
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1), ew);
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c), ew);
    }
  }
  return b.build();
}

WeightedGraph barbell_graph(std::size_t clique, double bridge_weight,
                            double clique_edge_weight) {
  MECOFF_EXPECTS(clique >= 2);
  GraphBuilder b;
  const std::size_t n = 2 * clique;
  for (std::size_t i = 0; i < n; ++i) b.add_node(1.0);
  for (std::size_t half = 0; half < 2; ++half) {
    const std::size_t base = half * clique;
    for (std::size_t i = 0; i < clique; ++i)
      for (std::size_t j = i + 1; j < clique; ++j)
        b.add_edge(static_cast<NodeId>(base + i),
                   static_cast<NodeId>(base + j), clique_edge_weight);
  }
  b.add_edge(static_cast<NodeId>(clique - 1), static_cast<NodeId>(clique),
             bridge_weight);
  return b.build();
}

}  // namespace mecoff::graph
