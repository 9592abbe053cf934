#include "engine_phase.h"

#include <cstdio>
#include <utility>

#include "common/mem_info.h"
#include "host_speed.h"
#include "stats.h"

namespace fedmpbench {

EnginePhase RunEnginePhase(const Workload& workload, uint64_t seed, int lanes,
                           double budget_s) {
  constexpr int kMinSetups = 15;
  EnginePhase phase;
  const Clock::time_point start = Clock::now();
  RepetitionOptions plain;
  plain.decorated = false;
  phase.digests[kReferenceSeed] =
      RunRepetition(workload, kReferenceSeed, lanes, plain).digest;
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  phase.calibration_s.push_back(CalibrationSeconds());
  while (phase.reps <= workload.sub_seeds || elapsed() < budget_s) {
    const uint64_t rep_seed = CycleSeed(workload, seed, phase.reps);
    AddRepetition(workload, rep_seed,
                  RunRepetition(workload, rep_seed, lanes, RepetitionOptions{}),
                  &phase);
    phase.calibration_s.push_back(CalibrationSeconds());
  }
  RepetitionOptions setup_only;
  setup_only.setup_only = true;
  while (static_cast<int>(phase.setup_s.size()) < kMinSetups) {
    const Repetition rep = RunRepetition(
        workload,
        CycleSeed(workload, seed, static_cast<int>(phase.setup_s.size())),
        lanes, setup_only);
    phase.setup_s.push_back(rep.setup_s);
    phase.task_s.push_back(rep.task_s);
    phase.build_s.push_back(rep.build_s);
  }
  return phase;
}

void AddRepetition(const Workload& workload, uint64_t seed, Repetition rep,
                   EnginePhase* phase) {
  std::vector<std::string> problems = CheckRepetition(workload, rep);
  const auto [it, first_time] = phase->digests.emplace(seed, rep.digest);
  if (!first_time && it->second != rep.digest) {
    problems.push_back("RoundLog differs from an earlier run at this seed");
  }
  const int64_t rounds = static_cast<int64_t>(rep.log.records().size());
  phase->rounds += rounds;
  if (!problems.empty()) phase->failed_rounds += rounds;
  for (const std::string& p : problems) {
    phase->problems.push_back("seed " + std::to_string(seed) + ": " + p);
  }
  phase->round_s.insert(phase->round_s.end(), rep.round_s.begin(),
                        rep.round_s.end());
  phase->setup_s.push_back(rep.setup_s);
  phase->task_s.push_back(rep.task_s);
  phase->build_s.push_back(rep.build_s);
  phase->run_s += rep.run_s;
  phase->run_cpu_s += rep.run_cpu_s;
  for (const RoundClock& rc : rep.clocks) {
    phase->plan_s += rc.plan_s;
    phase->observe_s += rc.observe_s;
  }
  const DispatchCounts counts = CountDispatches(workload, rep);
  phase->folded += counts.folded;
  if (phase->reps == 0) {
    phase->reference_log = rep.log;
    phase->reference_counts = counts;
  }
  phase->last = std::move(rep);
  phase->last_seed = seed;
  ++phase->reps;
}

namespace {
double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

std::string Count(const char* label, int64_t n) {
  return std::string(label) + "=" + std::to_string(n);
}

// A timed metric as the host measured it, before scaling.
std::string Host(double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "host=%.6g %s", value, unit);
  return buf;
}
}  // namespace

std::vector<Metric> EndToEndMetrics(const EnginePhase& phase) {
  const double scale = ReferenceScale(Median(phase.calibration_s));
  const TailStat tail = TailPercentile(phase.round_s);
  const double timed_s = Sum(phase.round_s);
  const double setup_s = Median(phase.setup_s);
  const double round_s = Median(phase.round_s);
  const double updates_per_s =
      timed_s > 0 ? static_cast<double>(phase.folded) / timed_s : 0.0;
  const int64_t n = static_cast<int64_t>(phase.round_s.size());
  const std::string at_reference = "seed " + std::to_string(kReferenceSeed);
  const DispatchCounts& c = phase.reference_counts;
  const WireBytes bytes = LedgerWireBytes(phase.reference_log);
  return {
      {"setup_s", setup_s * scale, "s",
       Host(setup_s, "s") + " " +
           Count("n", static_cast<int64_t>(phase.setup_s.size()))},
      {"round_s", round_s * scale, "s",
       Host(round_s, "s") + " " + Count("n", n)},
      {"round_s_tail", tail.value * scale, "s",
       Host(tail.value, "s") + " p" + std::to_string(tail.percentile) + " " +
           Count("n", n) + " " + Count("beyond", tail.beyond)},
      {"updates_per_s", updates_per_s / scale, "1/s",
       Host(updates_per_s, "1/s") + " " + Count("folded", phase.folded)},
      {"peak_rss_mb",
       static_cast<double>(fedmp::PeakRssBytes()) / (1024.0 * 1024.0), "MiB",
       "VmHWM"},
      {"folded_share",
       c.resolved > 0 ? static_cast<double>(c.folded) /
                            static_cast<double>(c.resolved)
                      : 0.0,
       "ratio",
       at_reference + " " + Count("folded", c.folded) + " " +
           Count("failed", c.failed) + " " + Count("dispatched", c.resolved)},
      {"final_test_loss", FinalTestLoss(phase.reference_log), "nats",
       at_reference},
      {"bytes_saved_ratio",
       bytes.dense > 0 ? 1.0 - bytes.wire / bytes.dense : 0.0, "ratio",
       at_reference},
  };
}

double BusyShare(const EnginePhase& phase, int lanes) {
  return phase.run_s > 0 ? phase.run_cpu_s / (lanes * phase.run_s) : 0.0;
}

}  // namespace fedmpbench
