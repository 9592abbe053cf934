#ifndef FEDMPBENCH_ENGINE_PHASE_H_
#define FEDMPBENCH_ENGINE_PHASE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace fedmpbench {

// Repetitions of one workload, back to back, cycling through the run's
// seeds (CycleSeed). Times are host seconds.
struct EnginePhase {
  std::vector<double> round_s;  // every timed round, pooled
  std::vector<double> setup_s, task_s, build_s;
  // CalibrationSeconds() before the first and after every repetition.
  std::vector<double> calibration_s;
  double run_s = 0.0;      // host seconds inside Run(), all reps
  double run_cpu_s = 0.0;  // process CPU seconds inside Run(), all reps
  double plan_s = 0.0, observe_s = 0.0;  // bandit time, all reps
  int64_t rounds = 0, failed_rounds = 0;
  int64_t folded = 0;  // updates folded, all reps (updates_per_s)
  int reps = 0;
  // The first decorated repetition at kReferenceSeed: the deterministic
  // metrics come from it.
  fedmp::fl::RoundLog reference_log;
  DispatchCounts reference_counts;
  std::map<uint64_t, uint64_t> digests;  // seed -> RoundLog digest
  Repetition last;
  uint64_t last_seed = 0;
  std::vector<std::string> problems;  // failed output checks
};

// Runs one undecorated repetition at kReferenceSeed, which warms caches and
// the allocator and is the transparency reference the decorated repetition
// at that seed must reproduce bit for bit. Then runs decorated repetitions
// until a full cycle of seeds has run and `budget_s` has passed, and tops
// setup_s up to 15 samples with set-up-only repetitions (set-up is cheap
// next to a repetition). The host speed is calibrated before the first and
// after every repetition.
EnginePhase RunEnginePhase(const Workload& workload, uint64_t seed, int lanes,
                           double budget_s);

// Folds one decorated repetition, made at `seed`, into `phase`: runs its
// output checks, compares its RoundLog digest with the one phase->digests
// holds for that seed (or records it there), and adds its timings and
// counts.
void AddRepetition(const Workload& workload, uint64_t seed, Repetition rep,
                   EnginePhase* phase);

// One end-to-end metric of a run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample counts etc., printed but not in the JSON
};

// The end-to-end metrics of an untraced phase, in BENCHMARK.json's order.
// The timed ones (setup_s, round_s, round_s_tail, updates_per_s) are scaled
// to the reference state of the host with the phase's median calibration
// (host_speed.h); the notes give them in host seconds too.
std::vector<Metric> EndToEndMetrics(const EnginePhase& phase);

// Process CPU seconds over lanes x wall seconds inside Run().
double BusyShare(const EnginePhase& phase, int lanes);

}  // namespace fedmpbench

#endif  // FEDMPBENCH_ENGINE_PHASE_H_
