#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/fedmp.h"
#include "edge/cluster.h"
#include "fl/worker.h"
#include "pruning/prune_cache.h"
#include "stats.h"

namespace fedmpbench {

namespace data = fedmp::data;
namespace edge = fedmp::edge;
namespace fl = fedmp::fl;

namespace {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

constexpr int kFleet10kWorkers = 10000;

// paper_cnn: examples/quickstart's FedMP run (paper CNN, 10-worker medium
// fleet, IID, default deadline, evaluation every 4 rounds).
fedmp::ExperimentConfig PaperCnnConfig(uint64_t seed, int lanes,
                                       int64_t rounds) {
  fedmp::ExperimentConfig config;
  config.task = "cnn";
  config.scale = data::TaskScale::kBench;
  config.data_seed = seed;
  config.heterogeneity = edge::HeterogeneityLevel::kMedium;
  config.trainer.max_rounds = rounds;
  config.trainer.eval_every = 4;
  config.trainer.seed = seed;
  config.trainer.num_threads = lanes;
  return config;
}

// async_lstm_chaos: Algorithm 2 (m = 5 of 10) on the LSTM language model,
// high heterogeneity, under examples/traced_chaos's fault mix.
fedmp::ExperimentConfig AsyncLstmChaosConfig(uint64_t seed, int lanes,
                                             int64_t rounds) {
  fedmp::ExperimentConfig config;
  config.task = "lstm";
  config.scale = data::TaskScale::kBench;
  config.data_seed = seed;
  config.heterogeneity = edge::HeterogeneityLevel::kHigh;
  config.async_mode = true;
  config.async_m = 5;
  config.trainer.max_rounds = rounds;
  config.trainer.seed = seed;
  config.trainer.num_threads = lanes;
  config.trainer.faults.crash_prob = 0.1;
  config.trainer.faults.straggle_prob = 0.2;
  config.trainer.faults.straggle_factor = 3.0;
  config.trainer.faults.corrupt_prob = 0.1;
  config.trainer.faults.channel.loss_prob = 0.05;
  config.trainer.faults.channel.duplicate_prob = 0.1;
  return config;
}

// Inputs of an ExperimentConfig through the public fedmp façade.
Inputs InputsFromConfig(const fedmp::ExperimentConfig& config) {
  Inputs in;
  const Clock::time_point start = Clock::now();
  in.task = data::MakeTaskByName(config.task, config.scale, config.data_seed);
  in.task_s = Seconds(start, Clock::now());
  in.fleet = fedmp::MakeFleet(config);
  auto partition = fedmp::MakePartition(config, in.task,
                                        static_cast<int>(in.fleet.size()));
  FEDMP_CHECK(partition.ok()) << partition.status();
  in.partition = std::move(partition).value();
  in.options.base = config.trainer;
  in.options.m = config.async_m;
  return in;
}

// fleet_10k: bench/bench_scale's streaming round (scale CNN, 10k workers,
// streaming IID shards, fog fan-out 32, window 64, auto PS shards, no
// deadline, evaluation only where the engine forces it).
Inputs Fleet10kInputs(uint64_t seed, int lanes, int64_t rounds,
                      int64_t window) {
  Inputs in;
  const Clock::time_point start = Clock::now();
  in.task = data::MakeScaleCnnTask(kFleet10kWorkers, seed);
  in.task_s = Seconds(start, Clock::now());
  in.fleet = edge::MakeHalfAHalfB(kFleet10kWorkers, seed);
  fl::TrainerOptions& opt = in.options.base;
  opt.max_rounds = rounds;
  opt.eval_every = 1000000;
  opt.seed = seed;
  opt.num_threads = lanes;
  opt.deadline.enabled = false;
  opt.scale.fog_fan_out = 32;
  opt.scale.max_inflight = static_cast<int>(window);
  opt.scale.ps_shards = 0;
  in.view = std::make_shared<const data::StreamingIidPartition>(
      in.task.train.size(), kFleet10kWorkers, opt.seed ^ 0xBEEFULL);
  return in;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload>* const workloads =
      new std::vector<Workload>{
          {"paper_cnn", /*async=*/false, /*lanes=*/2, /*rounds=*/40,
           /*window=*/10, /*every_worker_folds=*/false, /*sub_seeds=*/8},
          {"fleet_10k", false, 2, 4, 64, true, 2},
          {"async_lstm_chaos", true, 2, 20, 10, false, 30},
      };
  return *workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t CycleSeed(const Workload& workload, uint64_t seed, int rep) {
  const int i = rep % (workload.sub_seeds + 1);
  return i == 0 ? kReferenceSeed : seed * 1000 + static_cast<uint64_t>(i);
}

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int LanesOnHost(const Workload& workload) {
  return std::max(1, std::min(workload.lanes, HostCpus()));
}

Inputs MakeInputs(const Workload& workload, uint64_t seed, int lanes) {
  if (workload.name == "paper_cnn") {
    return InputsFromConfig(PaperCnnConfig(seed, lanes, workload.rounds));
  }
  if (workload.name == "async_lstm_chaos") {
    return InputsFromConfig(
        AsyncLstmChaosConfig(seed, lanes, workload.rounds));
  }
  FEDMP_CHECK(workload.name == "fleet_10k") << workload.name;
  return Fleet10kInputs(seed, lanes, workload.rounds, workload.window);
}

std::unique_ptr<fl::Strategy> MakeFedMp() {
  const fedmp::ExperimentConfig defaults;
  auto strategy =
      fedmp::MakeStrategy("fedmp", defaults.theta, defaults.lambda);
  FEDMP_CHECK(strategy.ok()) << strategy.status();
  return std::move(strategy).value();
}

Repetition RunRepetition(const Workload& workload, uint64_t seed, int lanes,
                         const RepetitionOptions& options) {
  Repetition rep;
  // A repetition stands for one user's run: it starts with the process-wide
  // prune-plan and model caches empty, as a fresh process would.
  fedmp::pruning::ClearPlanCache();
  fl::ClearModelCache();
  const Clock::time_point start = Clock::now();
  Inputs in = MakeInputs(workload, seed, lanes);
  rep.num_workers = static_cast<int>(in.fleet.size());
  std::unique_ptr<fl::Strategy> strategy = MakeFedMp();
  ClockedStrategy* clocked = nullptr;
  if (options.decorated) {
    auto wrapper = std::make_unique<ClockedStrategy>(
        std::move(strategy), options.record_plans, options.spans);
    clocked = wrapper.get();
    strategy = std::move(wrapper);
  }
  const Clock::time_point build_start = Clock::now();
  std::unique_ptr<fl::Trainer> sync;
  std::unique_ptr<fl::AsyncTrainer> async;
  if (workload.async) {
    async = std::make_unique<fl::AsyncTrainer>(
        &in.task, std::move(in.fleet), std::move(in.partition),
        std::move(strategy), in.options);
  } else if (in.view != nullptr) {
    sync = std::make_unique<fl::Trainer>(&in.task, std::move(in.fleet),
                                         in.view, std::move(strategy),
                                         in.options.base);
  } else {
    sync = std::make_unique<fl::Trainer>(&in.task, std::move(in.fleet),
                                         std::move(in.partition),
                                         std::move(strategy),
                                         in.options.base);
  }
  const Clock::time_point run_start = Clock::now();
  rep.setup_s = Seconds(start, run_start);
  rep.build_s = Seconds(build_start, run_start);
  rep.task_s = in.task_s;
  if (options.setup_only) return rep;

  const double cpu_start = ProcessCpuSeconds();
  rep.log = sync != nullptr ? sync->Run() : async->Run();
  const Clock::time_point run_end = Clock::now();
  rep.run_cpu_s = ProcessCpuSeconds() - cpu_start;
  rep.run_s = Seconds(run_start, run_end);
  rep.digest = RoundLogDigest(rep.log);
  if (clocked != nullptr) {
    rep.clocks = clocked->rounds();
    rep.dispatches = clocked->dispatches();
    const int64_t rounds = static_cast<int64_t>(rep.log.records().size());
    if (static_cast<int64_t>(rep.clocks.size()) >= rounds) {
      rep.round_s = RoundSeconds(rep.clocks, rounds, run_end);
    }
  }
  return rep;
}

DispatchCounts CountDispatches(const Workload& workload,
                               const Repetition& rep) {
  DispatchCounts counts;
  int64_t dispatched = 0;
  for (const RoundClock& rc : rep.clocks) {
    dispatched += rc.dispatches;
    counts.failed += rc.failed;
  }
  for (const fl::RoundRecord& r : rep.log.records()) {
    counts.folded += r.participants;
  }
  counts.resolved = dispatched - (workload.async ? rep.num_workers : 0);
  return counts;
}

WireBytes LedgerWireBytes(const fl::RoundLog& log) {
  WireBytes bytes;
  for (const fl::RoundRecord& r : log.records()) {
    const double round_wire = static_cast<double>(r.bytes_up + r.bytes_down);
    bytes.wire += round_wire;
    if (r.bytes_saved_ratio < 1.0) {
      bytes.dense += round_wire / (1.0 - r.bytes_saved_ratio);
    }
  }
  return bytes;
}

double FinalTestLoss(const fl::RoundLog& log) {
  double loss = std::numeric_limits<double>::quiet_NaN();
  for (const fl::RoundRecord& r : log.records()) {
    if (r.test_loss >= 0.0 || std::isnan(r.test_loss)) loss = r.test_loss;
  }
  return loss;
}

std::vector<std::string> CheckRepetition(const Workload& workload,
                                         const Repetition& rep) {
  std::vector<std::string> problems;
  const auto& records = rep.log.records();
  if (static_cast<int64_t>(records.size()) != workload.rounds) {
    problems.push_back("logged " + std::to_string(records.size()) +
                       " rounds, expected " +
                       std::to_string(workload.rounds));
  }
  if (rep.round_s.size() != records.size()) {
    problems.push_back("round clock saw " +
                       std::to_string(rep.round_s.size()) + " of " +
                       std::to_string(records.size()) + " rounds");
  }
  if (!std::isfinite(FinalTestLoss(rep.log))) {
    problems.push_back("final test loss is not finite");
  }
  const DispatchCounts counts = CountDispatches(workload, rep);
  if (counts.folded + counts.failed != counts.resolved) {
    problems.push_back("folded " + std::to_string(counts.folded) +
                       " + failed " + std::to_string(counts.failed) +
                       " != dispatched " + std::to_string(counts.resolved));
  }
  const WireBytes bytes = LedgerWireBytes(rep.log);
  if (!(bytes.wire < bytes.dense)) {
    problems.push_back("bytes_saved_ratio is not positive");
  }
  if (workload.every_worker_folds) {
    for (const fl::RoundRecord& r : records) {
      if (r.participants != rep.num_workers) {
        problems.push_back("round " + std::to_string(r.round) + ": " +
                           std::to_string(r.participants) + " of " +
                           std::to_string(rep.num_workers) +
                           " workers folded");
        break;
      }
    }
  }
  return problems;
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace fedmpbench
