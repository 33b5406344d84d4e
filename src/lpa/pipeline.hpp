// Algorithm 1 end-to-end: remove unoffloadable functions, split at
// component boundaries, then run label propagation + compression per
// component — one parallel_for index per component on the mini-Spark
// engine, matching the paper's "All propagation processes will be
// executed in parallel".
#pragma once

#include <vector>

#include "graph/subgraph.hpp"
#include "lpa/compressor.hpp"
#include "lpa/propagation.hpp"
#include "parallel/thread_pool.hpp"

namespace mecoff::lpa {

/// One component of the offloadable graph after compression.
struct CompressedComponent {
  /// The uncompressed component; `to_parent` maps into the offloadable
  /// graph's local ids.
  graph::Subgraph component;
  /// Labels and compression of that component.
  PropagationResult propagation;
  CompressionResult compression;
};

struct CompressionPipelineResult {
  /// Original graph minus unoffloadable nodes; `to_parent` maps back to
  /// original application node ids.
  graph::Subgraph offloadable;
  std::vector<CompressedComponent> components;

  /// Aggregate counts across components (the rows of Table I).
  [[nodiscard]] CompressionStats aggregate_stats() const;

  /// Map a (component index, compressed node) pair back to the ORIGINAL
  /// application node ids it represents.
  [[nodiscard]] std::vector<graph::NodeId> original_members(
      std::size_t component_index, graph::NodeId super_node) const;
};

/// Run Algorithm 1 on application graph `g`.
///
/// `unoffloadable[v]` pins node v to the device; such nodes are removed
/// before compression (they never appear in any component). `pool` may
/// be null for serial execution (the Fig. 9 "without Spark" path).
///
/// `declared_components` optionally assigns each ORIGINAL node to a
/// software component (Soot component boundaries); when given, the
/// split refines connectivity by these boundaries — compression never
/// merges functions of different declared components, exactly the
/// paper's "the coupling degree of two functions from two different
/// components must be small". Pass nullptr to split purely by
/// connectivity (the NETGEN experiments, where components are exactly
/// the generator's disjoint pieces).
[[nodiscard]] CompressionPipelineResult compress_application(
    const graph::WeightedGraph& g, const std::vector<bool>& unoffloadable,
    const PropagationConfig& config, parallel::ThreadPool* pool = nullptr,
    const std::vector<std::uint32_t>* declared_components = nullptr);

}  // namespace mecoff::lpa
