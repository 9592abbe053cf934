#include "stats.h"

#include <algorithm>
#include <cstring>

namespace fedmpbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailStat TailPercentile(std::vector<double> samples, int64_t min_beyond) {
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  for (int p = 99; p >= 0; --p) {
    // Nearest rank: the smallest sample with at least p% of samples at or
    // below it.
    const int64_t rank = std::max<int64_t>(1, (p * n + 99) / 100);
    if (rank > n) continue;
    const double value = samples[static_cast<size_t>(rank - 1)];
    const int64_t beyond =
        samples.end() -
        std::upper_bound(samples.begin(), samples.end(), value);
    if (beyond >= min_beyond) return TailStat{value, p, beyond};
  }
  return TailStat{};
}

namespace {
class Fnv {
 public:
  void Bytes(const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Real(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};
}  // namespace

uint64_t RoundLogDigest(const fedmp::fl::RoundLog& log) {
  Fnv fnv;
  for (const fedmp::fl::RoundRecord& r : log.records()) {
    fnv.Int(r.round);
    fnv.Real(r.sim_time);
    fnv.Real(r.round_seconds);
    fnv.Real(r.train_loss);
    fnv.Real(r.mean_ratio);
    fnv.Real(r.test_accuracy);
    fnv.Real(r.test_loss);
    fnv.Real(r.test_perplexity);
    fnv.Int(r.participants);
    fnv.Int(r.rejected_updates);
    fnv.Int(r.duplicate_updates);
    fnv.Int(r.max_param_staleness);
    fnv.Int(r.critical_worker);
    fnv.Real(r.critical_comp_s);
    fnv.Real(r.critical_comm_s);
    fnv.Real(r.straggler_gap_max);
    fnv.Int(r.flops_total);
    fnv.Int(r.bytes_up);
    fnv.Int(r.bytes_down);
    fnv.Real(r.bytes_saved_ratio);
  }
  return fnv.value();
}

}  // namespace fedmpbench
