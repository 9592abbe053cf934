// fedmpbench: the FedMP benchmark program. One process runs one workload at
// one seed for a fixed host-time budget and prints its metrics, one line
// each, then a final JSON line:
//
//   fedmpbench --workload paper_cnn --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with telemetry off. --trace 1
// runs untraced and traced (metrics registry on, bandit spans) repetitions
// in pairs, then the layer pass (layer_pass.h), and prints the per-layer
// metrics. Every run checks the engine's outputs; any failed check makes
// "correct" false and the exit code 1. fedmpbench/run.py builds this binary
// and is the command BENCHMARK.json names.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine_phase.h"
#include "host_speed.h"
#include "layer_pass.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "workloads.h"

namespace fedmpbench {
namespace {

namespace obs = fedmp::obs;

// Share of --seconds a traced run spends on untraced/traced repetition
// pairs; the layer pass takes the rest.
constexpr double kTracedShare = 0.7;

double CounterTotal(const std::vector<obs::MetricSnapshot>& snapshot,
                    const std::string& name) {
  double total = 0.0;
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.name == name) total += m.value;
  }
  return total;
}

double HitRatio(const std::vector<obs::MetricSnapshot>& snapshot,
                const std::string& prefix) {
  const double hits = CounterTotal(snapshot, prefix + ".hits");
  const double misses = CounterTotal(snapshot, prefix + ".misses");
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// Units of the per-layer metrics, in BENCHMARK.json's order.
const std::vector<std::pair<std::string, std::string>>& PerLayerUnits() {
  static const auto* const units =
      new std::vector<std::pair<std::string, std::string>>{
          {"bandit.plan_s", "s"},
          {"bandit.observe_s", "s"},
          {"pruning.rank_s", "s"},
          {"pruning.extract_us", "us"},
          {"pruning.plan_cache.hit_ratio", "ratio"},
          {"nn.conv.fwd_s", "s"},
          {"nn.conv.bwd_s", "s"},
          {"nn.linear.fwd_s", "s"},
          {"nn.linear.bwd_s", "s"},
          {"nn.lstm.fwd_s", "s"},
          {"nn.lstm.bwd_s", "s"},
          {"nn.other.fwd_s", "s"},
          {"nn.other.bwd_s", "s"},
          {"nn.conv.macs_per_s", "MAC/s"},
          {"nn.linear.macs_per_s", "MAC/s"},
          {"nn.lstm.macs_per_s", "MAC/s"},
          {"nn.dense_baseline.macs_per_s", "MAC/s"},
          {"nn.pool.hit_ratio", "ratio"},
          {"fl.worker.train_s", "s"},
          {"fl.worker.train_macs_per_s", "MAC/s"},
          {"fl.worker.model_cache.hit_ratio", "ratio"},
          {"fl.aggregate.accumulate_us", "us"},
          {"fl.aggregate.finish_s", "s"},
          {"fl.ledger.compute_us", "us"},
          {"fl.server.eval_s", "s"},
          {"edge.sim_us", "us"},
          {"edge.faults_injected", "count"},
          {"data.task_s", "s"},
          {"data.shard_us", "us"},
          {"core.trainer_build_s", "s"},
          {"common.lanes.busy_share", "ratio"},
          {"common.pool.task_us", "us"},
          {"common.pool.chunks", "count"},
          {"common.pool.parallel_fors", "count"},
          {"obs.trace_overhead", "ratio"},
          {"obs.unattributed_s", "s"},
      };
  return *units;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out;    // full result record (JSON), optional
  std::string spans;  // span log (JSONL) of a traced run, optional
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

// What one run reports: its metrics, failed checks, and how many rounds it
// attempted and saw fail a check.
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  int64_t attempted = 0;
  int64_t failed = 0;
  double calibration_s = 0.0;  // median CalibrationSeconds(); 0 if traced
};

RunResult Untraced(const Workload& workload, uint64_t seed, int lanes,
                   double seconds) {
  const EnginePhase phase = RunEnginePhase(workload, seed, lanes, seconds);
  const auto [cal_min, cal_max] = std::minmax_element(
      phase.calibration_s.begin(), phase.calibration_s.end());
  std::printf(
      "info reps=%d busy_share=%.4f calibration_ms median=%.4f min=%.4f "
      "max=%.4f reference=%.4f\n",
      phase.reps, BusyShare(phase, lanes), Median(phase.calibration_s) * 1e3,
      *cal_min * 1e3, *cal_max * 1e3, kReferenceCalibrationS * 1e3);
  return RunResult{EndToEndMetrics(phase), phase.problems, phase.rounds,
                   phase.failed_rounds, Median(phase.calibration_s)};
}

RunResult Traced(const Workload& workload, uint64_t seed, int lanes,
                 double seconds, const std::string& spans_path) {
  // Untraced and traced repetitions run in pairs at the same seed, in
  // alternating order, so the host's drift over the run and any order effect
  // fall on both sides alike; the two runs of a pair must also log
  // bit-identical rounds.
  EnginePhase untraced, traced;
  {
    RepetitionOptions plain;
    plain.decorated = false;
    untraced.digests[kReferenceSeed] =
        RunRepetition(workload, kReferenceSeed, lanes, plain).digest;
  }
  SpanLog spans;
  obs::TraceOptions trace;
  trace.max_events = 0;  // registry counters only; no event buffer
  obs::Registry::Get().Reset();
  RepetitionOptions untraced_options;
  RepetitionOptions traced_options;
  traced_options.record_plans = true;
  traced_options.spans = &spans;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  while (traced.reps < 2 || elapsed() < seconds * kTracedShare) {
    const uint64_t rep_seed = CycleSeed(workload, seed, traced.reps);
    const bool traced_first = traced.reps % 2 == 1;
    for (const bool is_traced : {traced_first, !traced_first}) {
      EnginePhase& side = is_traced ? traced : untraced;
      const EnginePhase& other = is_traced ? untraced : traced;
      if (auto it = other.digests.find(rep_seed); it != other.digests.end()) {
        side.digests.insert(*it);
      }
      if (is_traced) obs::Enable(trace);
      AddRepetition(workload, rep_seed,
                    RunRepetition(workload, rep_seed, lanes,
                                  is_traced ? traced_options
                                            : untraced_options),
                    &side);
      if (is_traced) obs::Disable();
    }
  }
  const std::vector<obs::MetricSnapshot> counters =
      obs::Registry::Get().Snapshot();

  const LayerPassResult pass =
      RunLayerPass(workload, traced.last_seed, lanes, traced.last.log,
                   traced.last.dispatches, &spans);
  if (!spans_path.empty() && !spans.WriteJsonl(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
  }

  RunResult result;
  result.problems = untraced.problems;
  for (const std::string& p : traced.problems) {
    result.problems.push_back("traced " + p);
  }
  for (const std::string& p : pass.problems) {
    result.problems.push_back("layer pass " + p);
  }
  result.attempted = untraced.rounds + traced.rounds + pass.rounds;
  result.failed = untraced.failed_rounds + traced.failed_rounds +
                  (pass.problems.empty() ? 0 : pass.rounds);

  const double traced_rounds =
      static_cast<double>(std::max<int64_t>(traced.rounds, 1));
  const double untraced_round_s = Median(untraced.round_s);
  double faults = 0.0;
  for (const char* name : {"faults.crash", "faults.straggle", "faults.corrupt",
                           "faults.drop", "faults.duplicate", "faults.delay",
                           "faults.fog_outage"}) {
    faults += CounterTotal(counters, name);
  }
  std::map<std::string, double> values = pass.metrics;
  values["bandit.plan_s"] = traced.plan_s / traced_rounds;
  values["bandit.observe_s"] = traced.observe_s / traced_rounds;
  values["pruning.plan_cache.hit_ratio"] =
      HitRatio(counters, "pruning.plan_cache");
  values["nn.pool.hit_ratio"] = HitRatio(counters, "nn.pool");
  values["fl.worker.model_cache.hit_ratio"] =
      HitRatio(counters, "fl.worker.model_cache");
  values["edge.faults_injected"] = faults / traced_rounds;
  values["data.task_s"] = Median(untraced.task_s);
  values["core.trainer_build_s"] = Median(untraced.build_s);
  values["common.lanes.busy_share"] = BusyShare(untraced, lanes);
  values["common.pool.chunks"] =
      CounterTotal(counters, "pool.chunks") / traced_rounds;
  values["common.pool.parallel_fors"] =
      CounterTotal(counters, "pool.parallel_fors") / traced_rounds;
  values["obs.trace_overhead"] =
      untraced_round_s > 0 ? Median(traced.round_s) / untraced_round_s - 1.0
                           : 0.0;
  // The layer pass times every call on one lane, so the layer seconds are
  // compared with the untraced run's CPU seconds per round, not wall time.
  values["obs.unattributed_s"] =
      untraced.run_cpu_s /
          static_cast<double>(std::max<int64_t>(untraced.rounds, 1)) -
      pass.layer_s_per_round - values["bandit.plan_s"] -
      values["bandit.observe_s"];
  for (const auto& [name, unit] : PerLayerUnits()) {
    result.metrics.push_back(Metric{name, values[name], unit, ""});
  }
  std::printf(
      "info work check: %lld of %lld rounds charge the RoundLog's MACs; "
      "trace_overhead=%.4f unattributed_s=%.6f\n",
      static_cast<long long>(pass.rounds_macs_match),
      static_cast<long long>(pass.rounds), values["obs.trace_overhead"],
      values["obs.unattributed_s"]);
  return result;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fedmpbench --workload <paper_cnn|fleet_10k|"
                 "async_lstm_chaos> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <file>] [--spans <file>] [--git-sha <sha>]\n");
    return 2;
  }
  const Workload& workload = *FindWorkload(args.workload);
  const int lanes = LanesOnHost(workload);
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  const char* arena = std::getenv("MALLOC_ARENA_MAX");
  const std::string stamp =
      "{\"git_sha\": \"" + JsonEscape(args.git_sha) + "\", \"host\": \"" +
      JsonEscape(host) + "\", \"nproc\": " + std::to_string(HostCpus()) +
      ", \"lanes\": " + std::to_string(lanes) +
      ", \"malloc_arena_max\": \"" + JsonEscape(arena ? arena : "unset") +
      "\", \"workload\": \"" + workload.name +
      "\", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + Number(args.seconds) +
      ", \"trace\": " + std::to_string(args.trace) + "}";
  std::printf("stamp %s\n", stamp.c_str());
  std::fflush(stdout);

  const RunResult run =
      args.trace == 0
          ? Untraced(workload, args.seed, lanes, args.seconds)
          : Traced(workload, args.seed, lanes, args.seconds, args.spans);
  fedmp::ThreadPool::SetGlobalThreads(1);

  const bool correct = run.problems.empty();
  for (const std::string& p : run.problems) {
    std::printf("FAILED %s\n", p.c_str());
  }
  std::string json_metrics;
  for (const Metric& m : run.metrics) {
    std::printf("metric %-34s %.6g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
                    ", \"unit\": \"" + m.unit + "\"}";
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(run.attempted) +
      ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {" +
      json_metrics + "}}";
  if (!args.out.empty()) {
    if (FILE* f = std::fopen(args.out.c_str(), "w")) {
      std::fprintf(f,
                   "{\"stamp\": %s, \"calibration_ms\": %s, "
                   "\"reference_calibration_ms\": %s, \"result\": %s}\n",
                   stamp.c_str(), Number(run.calibration_s * 1e3).c_str(),
                   Number(kReferenceCalibrationS * 1e3).c_str(),
                   result.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fedmpbench

int main(int argc, char** argv) { return fedmpbench::Main(argc, argv); }
