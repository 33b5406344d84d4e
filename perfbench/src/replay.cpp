#include "replay.hpp"

#include "graph/components.hpp"
#include "graph/subgraph.hpp"
#include "linalg/laplacian.hpp"
#include "lpa/compressor.hpp"
#include "lpa/pipeline.hpp"
#include "lpa/propagation.hpp"
#include "spectral/bipartitioner.hpp"
#include "spectral/fiedler.hpp"

namespace perfbench {

Interval run_on_pool(parallel::ThreadPool& pool,
                     const std::function<void()>& fn) {
  Interval interval;
  pool.submit_to(pool.make_group(), [&] {
        interval.start = Clock::now();
        fn();
        interval.end = Clock::now();
      }).get();
  return interval;
}

StageCounts replay_stages(Tracer& tracer, const mec::UserApp& user,
                          const mec::PipelineOptions& options,
                          parallel::ThreadPool& pool, int serial_parent,
                          int root, std::uint64_t request) {
  StageCounts counts;
  const std::vector<bool> mask =
      user.unoffloadable.empty()
          ? std::vector<bool>(user.graph.num_nodes(), false)
          : user.unoffloadable;
  const std::vector<std::uint32_t>* declared =
      user.components.empty() ? nullptr : &user.components;

  // Serial tree.
  lpa::CompressionPipelineResult pipeline;
  int compress = -1;
  {
    const SpanScope span(tracer, "lpa.compress_serial", serial_parent, request);
    pipeline = lpa::compress_application(user.graph, mask, options.propagation,
                                         nullptr, declared);
    compress = span.id();
  }
  graph::Subgraph offloadable;
  {
    const SpanScope span(tracer, "graph.remove_nodes", compress, request);
    offloadable = graph::remove_nodes(user.graph, mask);
  }
  std::vector<graph::Subgraph> components;
  {
    const SpanScope span(tracer, "graph.split", compress, request);
    const graph::ComponentLabels labels =
        graph::connected_components(offloadable.graph);
    for (const std::vector<graph::NodeId>& nodes :
         graph::component_node_lists(labels))
      components.push_back(graph::induced_subgraph(offloadable.graph, nodes));
  }
  for (const graph::Subgraph& component : components) {
    lpa::PropagationResult propagation;
    {
      const SpanScope span(tracer, "lpa.propagate", compress, request);
      propagation = lpa::propagate_labels(component.graph, options.propagation);
    }
    const SpanScope span(tracer, "lpa.merge", compress, request);
    const lpa::CompressionResult merged =
        lpa::compress_by_labels(component.graph, propagation.labels);
    (void)merged;
  }
  // Counts come from the program's own result, not from the replay.
  for (const lpa::CompressedComponent& c : pipeline.components) {
    counts.rounds += static_cast<double>(c.propagation.rounds);
    counts.compressed_nodes +=
        static_cast<double>(c.compression.compressed.num_nodes());
  }

  const spectral::SpectralOptions serial_cut = options.spectral;
  // bipartition() runs the eigensolver only on connected graphs of at
  // least two nodes; the Fiedler replays run exactly there.
  const auto eigensolved = [](const graph::WeightedGraph& g) {
    return g.num_nodes() >= 2 && graph::is_connected(g);
  };
  for (const lpa::CompressedComponent& c : pipeline.components) {
    const graph::WeightedGraph& g = c.compression.compressed;
    int bipartition = -1;
    {
      const SpanScope span(tracer, "spectral.bipartition_serial",
                           serial_parent, request);
      spectral::SpectralBipartitioner cutter(serial_cut);
      const graph::Bipartition cut = cutter.bipartition(g);
      (void)cut;
      bipartition = span.id();
    }
    if (!eigensolved(g)) continue;
    int fiedler = -1;
    {
      const SpanScope span(tracer, "spectral.fiedler_serial", bipartition,
                           request);
      const spectral::FiedlerResult result =
          spectral::fiedler_pair(g, serial_cut.fiedler);
      counts.matvecs += static_cast<double>(result.matvec_count);
      if (!result.converged) counts.nonconverged += 1.0;
      fiedler = span.id();
    }
    const SpanScope span(tracer, "linalg.laplacian", fiedler, request);
    const linalg::SparseMatrix lap = linalg::laplacian(g);
    (void)lap;
  }

  // The same calls with the pool, inside a pool task.
  spectral::SpectralOptions pooled_cut = options.spectral;
  pooled_cut.fiedler.pool = &pool;
  Interval pooled_compress;
  std::vector<Interval> pooled_bipartition;
  std::vector<Interval> pooled_fiedler;
  run_on_pool(pool, [&] {
    pooled_compress.start = Clock::now();
    const lpa::CompressionPipelineResult pooled = lpa::compress_application(
        user.graph, mask, options.propagation, &pool, declared);
    pooled_compress.end = Clock::now();
    for (const lpa::CompressedComponent& c : pooled.components) {
      const graph::WeightedGraph& g = c.compression.compressed;
      Interval cut_time;
      cut_time.start = Clock::now();
      spectral::SpectralBipartitioner cutter(pooled_cut);
      const graph::Bipartition cut = cutter.bipartition(g);
      (void)cut;
      cut_time.end = Clock::now();
      pooled_bipartition.push_back(cut_time);
      if (!eigensolved(g)) {
        pooled_fiedler.push_back({});
        continue;
      }
      Interval fiedler_time;
      fiedler_time.start = Clock::now();
      const spectral::FiedlerResult result =
          spectral::fiedler_pair(g, pooled_cut.fiedler);
      (void)result;
      fiedler_time.end = Clock::now();
      pooled_fiedler.push_back(fiedler_time);
    }
  });
  tracer.record("lpa.compress", root, request, pooled_compress);
  for (std::size_t c = 0; c < pooled_bipartition.size(); ++c) {
    const int cut = tracer.record("spectral.bipartition", root, request,
                                  pooled_bipartition[c]);
    if (pooled_fiedler[c].end != Clock::time_point{})
      tracer.record("spectral.fiedler", cut, request, pooled_fiedler[c]);
  }
  return counts;
}

double layer_us(const Tracer& tracer, const char* name,
                const RequestFilter& keep, bool self) {
  return median(tracer.per_request(name, self, keep));
}

void emit_stage_metrics(const Tracer& tracer, const RequestFilter& keep,
                        const std::vector<StageCounts>& counts,
                        const std::vector<double>& greedy_moves,
                        const std::vector<double>& parts, Report& report) {
  const auto us = [&](const char* name, bool self = false) {
    return layer_us(tracer, name, keep, self);
  };
  const auto count_median = [&](double StageCounts::*field) {
    std::vector<double> values;
    for (const StageCounts& c : counts) values.push_back(c.*field);
    return median(values);
  };
  const auto total_us = [&](const char* name) {
    double total = 0.0;
    for (double v : tracer.per_request(name, false, keep)) total += v;
    return total;
  };
  double nonconverged = 0.0;
  for (const StageCounts& c : counts) nonconverged += c.nonconverged;

  report.metric("graph.remove_nodes_us", us("graph.remove_nodes"), "us");
  report.metric("graph.split_us", us("graph.split"), "us");
  report.metric("lpa.propagate_us", us("lpa.propagate"), "us");
  report.metric("lpa.merge_us", us("lpa.merge"), "us");
  report.metric("lpa.rounds", count_median(&StageCounts::rounds), "count");
  report.metric("lpa.compressed_nodes",
                count_median(&StageCounts::compressed_nodes), "count");
  report.metric("lpa.compress_self_us", us("lpa.compress_serial", true), "us");
  report.metric("linalg.laplacian_us", us("linalg.laplacian"), "us");
  report.metric("spectral.fiedler_us", us("spectral.fiedler"), "us");
  report.metric("spectral.matvecs", count_median(&StageCounts::matvecs),
                "count");
  report.metric("spectral.nonconverged", nonconverged, "count");
  report.metric("spectral.bipartition_us", us("spectral.bipartition"), "us");
  const double serial_fiedler = total_us("spectral.fiedler_serial");
  report.metric("parallel.fiedler_pool_ratio",
                serial_fiedler > 0.0
                    ? total_us("spectral.fiedler") / serial_fiedler
                    : 0.0,
                "ratio");
  const double solve = us("mec.solve");
  report.metric("parallel.speedup",
                solve > 0.0 ? us("mec.solve_serial") / solve : 0.0, "ratio");
  report.metric("mec.solve_us", solve, "us");
  report.metric("mec.solve_self_us", us("mec.solve_serial", true), "us");
  report.metric("mec.greedy_moves", median(greedy_moves), "count");
  report.metric("mec.parts", median(parts), "count");
}

}  // namespace perfbench
