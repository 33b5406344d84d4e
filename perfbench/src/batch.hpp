// batch_multiuser: the paper-scale multi-user solve (Figs. 6–8), in
// process.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_batch_workload(const RunOptions& run, Report& report);

}  // namespace perfbench
