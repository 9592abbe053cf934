#ifndef FEDMPBENCH_WORKLOADS_H_
#define FEDMPBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clock_strategy.h"
#include "data/partition.h"
#include "data/task_zoo.h"
#include "edge/device.h"
#include "fl/async_trainer.h"
#include "fl/round_log.h"
#include "fl/trainer.h"

namespace fedmpbench {

// One benchmark workload: a configuration the repo already runs, sized so
// one repetition (set-up plus `rounds` rounds) takes a few host seconds.
struct Workload {
  std::string name;
  bool async = false;   // Algorithm 2 engine instead of the sync engine
  int lanes = 1;        // fixed execution lanes, capped at the host's CPUs
  int64_t rounds = 0;   // rounds per repetition
  int64_t window = 0;   // TaskSet in-flight window the engine runs with
  // No deadline and no faults: every worker must be folded every round.
  bool every_worker_folds = false;
  // Seeds drawn from --seed per cycle (see CycleSeed). Learning, and with
  // it the pruning ratios the bandit picks, differs from seed to seed, so a
  // run pools several to keep its figures steady.
  int sub_seeds = 1;
};

// The seed every run starts its cycle with, whatever its --seed. The
// deterministic metrics (final test loss, bytes saved, folded share) are
// measured at this seed, so they compare exactly across runs (README.md).
constexpr uint64_t kReferenceSeed = 42;

// Seed of a run's `rep`-th repetition. Repetitions cycle through
// kReferenceSeed and then sub_seeds seeds drawn from `seed`
// (seed * 1000 + i, so runs at different seeds share none of them).
uint64_t CycleSeed(const Workload& workload, uint64_t seed, int rep);

const std::vector<Workload>& AllWorkloads();
// Null for an unknown name.
const Workload* FindWorkload(const std::string& name);
// CPUs this process may run on (what `nproc` prints).
int HostCpus();
// The workload's lane count on this host: min(workload.lanes, HostCpus()).
int LanesOnHost(const Workload& workload);

// A workload's inputs at a seed: everything the engine is built from.
struct Inputs {
  fedmp::data::FlTask task;
  std::vector<fedmp::edge::DeviceProfile> fleet;
  fedmp::data::Partition partition;  // eager shards (empty when `view` set)
  std::shared_ptr<const fedmp::data::PartitionView> view;  // streaming shards
  fedmp::fl::AsyncTrainerOptions options;  // options.base for the sync engine
  double task_s = 0.0;  // host seconds generating `task`
};
Inputs MakeInputs(const Workload& workload, uint64_t seed, int lanes);

// The FedMP strategy every workload runs.
std::unique_ptr<fedmp::fl::Strategy> MakeFedMp();

// One repetition: empty the process-wide caches, build the inputs and the
// engine, run every round.
struct RepetitionOptions {
  bool setup_only = false;    // build everything, skip Run()
  bool decorated = true;      // wrap the strategy in ClockedStrategy
  bool record_plans = false;  // keep every dispatch's plan (layer pass)
  SpanLog* spans = nullptr;   // bandit spans (traced runs)
};
struct Repetition {
  fedmp::fl::RoundLog log;
  uint64_t digest = 0;
  std::vector<double> round_s;  // host seconds per round (decorated only)
  std::vector<RoundClock> clocks;
  std::vector<Dispatch> dispatches;
  int num_workers = 0;
  double setup_s = 0.0;   // inputs + engine construction, up to round 0
  double task_s = 0.0;    // task/data generation part of setup_s
  double build_s = 0.0;   // Trainer / AsyncTrainer construction
  double run_s = 0.0;     // host seconds inside Run()
  double run_cpu_s = 0.0; // process CPU seconds inside Run()
};
Repetition RunRepetition(const Workload& workload, uint64_t seed, int lanes,
                         const RepetitionOptions& options);

// Dispatch accounting of a decorated repetition. `resolved` excludes the
// async engine's last dispatches, still in flight when Run() returns (one
// per worker).
struct DispatchCounts {
  int64_t folded = 0;    // worker updates folded into the global model
  int64_t failed = 0;    // dispatches the engine never folded
  int64_t resolved = 0;  // dispatches that ended either way
};
DispatchCounts CountDispatches(const Workload& workload,
                               const Repetition& rep);

// A run's wire bytes and its dense-baseline bytes, from the ledger columns
// of the RoundLog (each round's dense bytes recovered from its saved ratio).
// 1 - wire / dense is the share of bytes pruning saved.
struct WireBytes {
  double wire = 0.0;
  double dense = 0.0;
};
WireBytes LedgerWireBytes(const fedmp::fl::RoundLog& log);

// Test loss of the last evaluated round (NaN if none).
double FinalTestLoss(const fedmp::fl::RoundLog& log);

// The output checks of one decorated repetition. Returns one line per
// failed check; empty means correct.
std::vector<std::string> CheckRepetition(const Workload& workload,
                                         const Repetition& rep);

// Process CPU seconds (user + system, all threads).
double ProcessCpuSeconds();

}  // namespace fedmpbench

#endif  // FEDMPBENCH_WORKLOADS_H_
