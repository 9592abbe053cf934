#include "host_speed.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats.h"

namespace fedmpbench {
namespace {

constexpr int kSteps = 200000;  // per burst
constexpr int kBursts = 9;

// kSteps steps of a 64-bit LCG with an xorshift, each step depending on the
// one before, so the burst takes a fixed number of core cycles (multiply,
// add, shift, xor: about six a step). The caller keeps the result, so the
// work cannot be dropped.
uint64_t Chain(uint64_t x) {
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

}  // namespace

double CalibrationSeconds() {
  std::vector<double> seconds;
  volatile uint64_t sink = 1;
  for (int burst = 0; burst < kBursts; ++burst) {
    const auto start = std::chrono::steady_clock::now();
    sink = Chain(sink);
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return Median(seconds);
}

double ReferenceScale(double calibration_s) {
  return std::pow(kReferenceCalibrationS / calibration_s, kClockExponent);
}

}  // namespace fedmpbench
