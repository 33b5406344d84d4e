// Traced replay of the solver stages beneath PipelineOffloader::solve.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common.hpp"
#include "mec/model.hpp"
#include "mec/offloader.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work counts of one replayed solve (summed over its users).
struct StageCounts {
  double rounds = 0.0;            ///< label-propagation rounds
  double compressed_nodes = 0.0;  ///< nodes after compression
  double matvecs = 0.0;           ///< Fiedler solver matvecs
  double nonconverged = 0.0;      ///< Fiedler solves below tolerance

  StageCounts& operator+=(const StageCounts& o) {
    rounds += o.rounds;
    compressed_nodes += o.compressed_nodes;
    matvecs += o.matvecs;
    nonconverged += o.nonconverged;
    return *this;
  }
};

/// Run `fn` as a task on `pool` (in a fresh group) and wait for it;
/// returns the task's own start and end, so dispatch and the wait are
/// not counted.
Interval run_on_pool(parallel::ThreadPool& pool, const std::function<void()>& fn);

/// Replay one user's compression and cut stages twice.
///
/// Serially, under `serial_parent` (the serial solve's span), so that
/// self times are defined; the leaf calls take no pool in the program
/// either:
///
///   lpa.compress_serial          compress_application, no pool
///     graph.remove_nodes         remove_nodes
///     graph.split                connected_components + component_node_lists
///                                + induced_subgraph per component
///     lpa.propagate, lpa.merge   per component
///   spectral.bipartition_serial  per compressed component, no pool
///     spectral.fiedler_serial    fiedler_pair, no pool
///       linalg.laplacian         laplacian
///
/// And as the program calls them, with `pool`, inside a pool task (the
/// way a pooled solve runs each user), under `root`: lpa.compress,
/// spectral.bipartition and its spectral.fiedler.
StageCounts replay_stages(Tracer& tracer, const mec::UserApp& user,
                          const mec::PipelineOptions& options,
                          parallel::ThreadPool& pool, int serial_parent,
                          int root, std::uint64_t request);

/// Which replayed requests a per-layer median is taken over.
using RequestFilter = std::function<bool(std::uint64_t)>;

/// Median over filtered requests of the per-request summed duration
/// (or self time) of spans named `name`, in µs; 0 when none ran.
[[nodiscard]] double layer_us(const Tracer& tracer, const char* name,
                              const RequestFilter& keep, bool self = false);

/// Emit the graph / lpa / linalg / spectral / parallel / mec per-layer
/// metrics of replayed solves: medians over the filtered requests, one
/// value per request. Each request has a pooled "mec.solve" span and a
/// "mec.solve_serial" span whose children are the serial stage spans.
void emit_stage_metrics(const Tracer& tracer, const RequestFilter& keep,
                        const std::vector<StageCounts>& counts,
                        const std::vector<double>& greedy_moves,
                        const std::vector<double>& parts, Report& report);

}  // namespace perfbench
