#ifndef XBENCH_SRC_WORKLOADS_H_
#define XBENCH_SRC_WORKLOADS_H_

#include "harness.h"

namespace xbench {

// Each workload builds its inputs from ctx.config.seed, runs set-up
// kSetupRepeats times, runs the closed-loop timed part from one client
// thread, checks every output outside the timed part and reports its
// metrics into ctx.report.

void RunBranchingDetect(Context& ctx);
void RunLintCorpus(Context& ctx);
void RunMergeEdits(Context& ctx);

}  // namespace xbench

#endif  // XBENCH_SRC_WORKLOADS_H_
