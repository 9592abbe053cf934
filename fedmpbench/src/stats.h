#ifndef FEDMPBENCH_STATS_H_
#define FEDMPBENCH_STATS_H_

#include <cstdint>
#include <vector>

#include "fl/round_log.h"

namespace fedmpbench {

// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

// The highest whole percentile of `samples` that has at least `min_beyond`
// samples strictly above it (nearest-rank percentiles). `percentile` is -1
// when there are too few samples for any percentile to qualify.
struct TailStat {
  double value = 0.0;
  int percentile = -1;
  int64_t beyond = 0;
};
TailStat TailPercentile(std::vector<double> samples, int64_t min_beyond = 10);

// FNV-1a digest of a RoundLog's deterministic columns, doubles by bit
// pattern: everything except decision_overhead_ms, which is host time.
// Equal digests mean the engine computed bit-identical rounds.
uint64_t RoundLogDigest(const fedmp::fl::RoundLog& log);

}  // namespace fedmpbench

#endif  // FEDMPBENCH_STATS_H_
