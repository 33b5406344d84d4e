#include "spectral/bipartitioner.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "graph/components.hpp"
#include "obs/obs.hpp"
#include "spectral/splitter.hpp"

namespace mecoff::spectral {

using graph::Bipartition;
using graph::WeightedGraph;

SpectralBipartitioner::SpectralBipartitioner(SpectralOptions options)
    : options_(std::move(options)) {}

Bipartition SpectralBipartitioner::bipartition(const WeightedGraph& g) {
  MECOFF_TRACE_SPAN_ARG("spectral.bipartition", g.num_nodes());
  MECOFF_COUNTER_ADD("spectral.bipartition.runs", 1);
  last_converged_ = true;  // degenerate paths need no eigensolve
  Bipartition out;
  out.side.assign(g.num_nodes(), 0);
  out.cut_weight = 0.0;
  if (g.num_nodes() < 2) return out;

  // A disconnected graph already has a zero cut: put the smallest
  // component on side 1 (cheapest non-trivial zero-cut split).
  const graph::ComponentLabels comps = graph::connected_components(g);
  if (comps.count > 1) {
    std::vector<std::size_t> sizes(comps.count, 0);
    for (const std::uint32_t c : comps.component_of) ++sizes[c];
    const std::uint32_t smallest = static_cast<std::uint32_t>(
        std::min_element(sizes.begin(), sizes.end()) - sizes.begin());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
      out.side[v] = comps.component_of[v] == smallest ? 1 : 0;
    out.cut_weight = 0.0;
    return out;
  }

  const FiedlerResult fiedler = fiedler_pair(g, options_.fiedler);
  last_converged_ = fiedler.converged;
  if (!fiedler.converged) {
    MECOFF_COUNTER_ADD("spectral.bipartition.nonconverged", 1);
    MECOFF_LOG_WARN << "Fiedler solver did not reach tolerance (graph n="
                    << g.num_nodes() << "); using best available vector";
  }
  last_fiedler_value_ = fiedler.value;
  return sweep_split(g, fiedler.vector);
}

}  // namespace mecoff::spectral
