// Served workloads: POST /solve over loopback to a mecoff_cli
// serve-solve child, and the in-process traced replay of the same
// request stream.
#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// serve_hit / serve_churn.
void run_served_workload(const RunOptions& run, Report& report);

/// The serving-layer per-layer metrics for the traced run of a workload
/// that has no serving layer (a traced result lists every per-layer
/// metric): serve_hit's traced HTTP window, `seconds` long, and its
/// in-process replay, recorded into `tracer`.
void trace_serve_hit(const RunOptions& run, double seconds, Tracer& tracer,
                     Report& report);

}  // namespace perfbench
