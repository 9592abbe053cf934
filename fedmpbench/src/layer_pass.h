#ifndef FEDMPBENCH_LAYER_PASS_H_
#define FEDMPBENCH_LAYER_PASS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clock_strategy.h"
#include "fl/round_log.h"
#include "spans.h"
#include "workloads.h"

namespace fedmpbench {

// The layer pass of a traced run. It replays a traced repetition's rounds
// on one lane by calling each module's public functions directly, with the
// inputs the repetition used: the same task spec and worker shards, and the
// per-round dispatch plans the ClockedStrategy recorded. Every call gets a
// span in `spans`. The pass keeps its own global model (it folds every
// dispatch), so its weights drift from the engine's, but its work per round
// is the engine's: the pass checks that the MACs it charges through
// fl::ComputeWorkerResources equal the RoundLog's flops_total, round by
// round.
struct LayerPassResult {
  // Per-layer metric name -> value (see fedmpbench/README.md for units).
  std::map<std::string, double> metrics;
  // Mean seconds per round of the layer calls that stand for the engine's
  // round work (the bandit's share is measured in the engine run instead).
  double layer_s_per_round = 0.0;
  int64_t rounds = 0;
  int64_t rounds_macs_match = 0;  // rounds whose MACs equal flops_total
  std::vector<std::string> problems;
};

LayerPassResult RunLayerPass(const Workload& workload, uint64_t seed,
                             int lanes, const fedmp::fl::RoundLog& log,
                             const std::vector<Dispatch>& dispatches,
                             SpanLog* spans);

}  // namespace fedmpbench

#endif  // FEDMPBENCH_LAYER_PASS_H_
