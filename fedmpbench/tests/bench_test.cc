// Tests of the benchmark itself: the tail-percentile rule, the RoundLog
// digest, the host-speed scale, the strategy decorator's transparency, and
// every workload's output checks (plus the layer pass's work check) at a
// seed the benchmark's own runs do not start from.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clock_strategy.h"
#include "data/task_zoo.h"
#include "edge/cluster.h"
#include "engine_phase.h"
#include "fl/async_trainer.h"
#include "fl/trainer.h"
#include "host_speed.h"
#include "layer_pass.h"
#include "stats.h"
#include "workloads.h"

namespace fedmpbench {
namespace {

namespace fl = fedmp::fl;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentileTest, PicksHighestPercentileWithTenSamplesBeyond) {
  // 200 samples: p95 is the 190th value, with exactly 10 above it; p96
  // (the 192nd) would leave only 8.
  TailStat tail = TailPercentile(OneTo(200));
  EXPECT_EQ(tail.percentile, 95);
  EXPECT_EQ(tail.value, 190.0);
  EXPECT_EQ(tail.beyond, 10);

  // 160 samples: p93 (149th value) leaves 11 beyond, p94 (151st) only 9.
  tail = TailPercentile(OneTo(160));
  EXPECT_EQ(tail.percentile, 93);
  EXPECT_EQ(tail.value, 149.0);
  EXPECT_EQ(tail.beyond, 11);
}

TEST(TailPercentileTest, TiesAtTheCutDoNotCountAsBeyond) {
  std::vector<double> samples(15, 1.0);
  samples.insert(samples.end(), 9, 2.0);
  // Only the nine 2.0s lie above any 1.0 cut, so no percentile qualifies.
  EXPECT_EQ(TailPercentile(samples).percentile, -1);
  samples.push_back(3.0);
  const TailStat tail = TailPercentile(samples);
  EXPECT_EQ(tail.value, 1.0);
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_EQ(tail.percentile, 60);  // 15 of 25 samples are 1.0
}

TEST(TailPercentileTest, TooFewSamples) {
  EXPECT_EQ(TailPercentile(OneTo(10)).percentile, -1);
  EXPECT_EQ(TailPercentile(OneTo(11)).beyond, 10);
}

fl::RoundLog SampleLog() {
  fl::RoundLog log;
  for (int r = 0; r < 3; ++r) {
    fl::RoundRecord record;
    record.round = r;
    record.sim_time = 10.0 * (r + 1);
    record.round_seconds = 10.0;
    record.train_loss = 2.0 / (r + 1);
    record.mean_ratio = 0.3;
    record.test_loss = r == 2 ? 0.5 : -1.0;
    record.participants = 9;
    record.flops_total = 123456789 + r;
    record.bytes_up = 1000;
    record.bytes_down = 2000;
    record.bytes_saved_ratio = 0.4;
    record.decision_overhead_ms = 1.5;
    log.Add(record);
  }
  return log;
}

fl::RoundLog Perturbed(const fl::RoundLog& log, int round,
                       void (*edit)(fl::RoundRecord*)) {
  fl::RoundLog out;
  for (fl::RoundRecord record : log.records()) {
    if (record.round == round) edit(&record);
    out.Add(record);
  }
  return out;
}

TEST(RoundLogDigestTest, TripsOnOnePerturbedValue) {
  const fl::RoundLog log = SampleLog();
  const uint64_t digest = RoundLogDigest(log);
  EXPECT_EQ(RoundLogDigest(SampleLog()), digest);
  EXPECT_NE(RoundLogDigest(Perturbed(log, 2,
                                     [](fl::RoundRecord* r) {
                                       r->test_loss = std::nextafter(
                                           r->test_loss, 1.0);
                                     })),
            digest);
  EXPECT_NE(RoundLogDigest(Perturbed(
                log, 0, [](fl::RoundRecord* r) { ++r->flops_total; })),
            digest);
  EXPECT_NE(RoundLogDigest(Perturbed(
                log, 1, [](fl::RoundRecord* r) { --r->participants; })),
            digest);
  // Host time is not part of the deterministic columns.
  EXPECT_EQ(RoundLogDigest(Perturbed(
                log, 1,
                [](fl::RoundRecord* r) { r->decision_overhead_ms = 99.0; })),
            digest);
}

TEST(HostSpeedTest, ScaleTurnsHostSecondsIntoReferenceSeconds) {
  const double calibration = CalibrationSeconds();
  EXPECT_GT(calibration, 0.0);
  EXPECT_TRUE(std::isfinite(calibration));
  EXPECT_DOUBLE_EQ(ReferenceScale(kReferenceCalibrationS), 1.0);
  // A calibration twice as slow as the reference means rounds
  // 2^kClockExponent times as slow, so each host second counts that much less.
  EXPECT_DOUBLE_EQ(ReferenceScale(2.0 * kReferenceCalibrationS),
                   std::pow(0.5, kClockExponent));
  EXPECT_GT(ReferenceScale(0.5 * kReferenceCalibrationS), 1.0);
}

// Records every call and answers with values no default would produce.
class RecordingStrategy : public fl::Strategy {
 public:
  std::string Name() const override { return "recording"; }
  fl::SyncScheme sync_scheme() const override { return fl::SyncScheme::kBSP; }
  bool quantize_residuals() const override { return true; }
  void Initialize(int num_workers, uint64_t seed) override {
    calls.push_back("Initialize " + std::to_string(num_workers) + " " +
                    std::to_string(seed));
  }
  void PlanRound(int64_t round,
                 std::vector<fl::WorkerRoundPlan>* plans) override {
    calls.push_back("PlanRound " + std::to_string(round));
    for (fl::WorkerRoundPlan& plan : *plans) plan.pruning_ratio = 0.25;
  }
  void ObserveRound(int64_t round,
                    const fl::RoundObservation& observation) override {
    calls.push_back("ObserveRound " + std::to_string(round) + " " +
                    std::to_string(observation.participated.size()));
  }
  bool SupportsAsync() const override { return true; }
  fl::WorkerRoundPlan PlanWorker(int64_t round, int worker) override {
    calls.push_back("PlanWorker " + std::to_string(round) + " " +
                    std::to_string(worker));
    fl::WorkerRoundPlan plan;
    plan.pruning_ratio = 0.5;
    plan.tau = 7;
    return plan;
  }
  void ObserveWorker(int64_t round, int worker, double completion_time,
                     double mean_time, double delta_loss) override {
    calls.push_back("ObserveWorker " + std::to_string(round) + " " +
                    std::to_string(worker) + " " +
                    std::to_string(completion_time) + " " +
                    std::to_string(mean_time) + " " +
                    std::to_string(delta_loss));
  }
  std::vector<std::string> calls;
};

TEST(ClockedStrategyTest, ForwardsEveryVirtual) {
  auto inner = std::make_unique<RecordingStrategy>();
  RecordingStrategy* recording = inner.get();
  ClockedStrategy clocked(std::move(inner), /*record_plans=*/true);

  EXPECT_EQ(clocked.Name(), "recording");
  EXPECT_EQ(clocked.sync_scheme(), fl::SyncScheme::kBSP);
  EXPECT_TRUE(clocked.quantize_residuals());
  EXPECT_TRUE(clocked.SupportsAsync());

  clocked.Initialize(3, 77);
  std::vector<fl::WorkerRoundPlan> plans(3);
  clocked.PlanRound(0, &plans);
  for (const fl::WorkerRoundPlan& plan : plans) {
    EXPECT_EQ(plan.pruning_ratio, 0.25);
  }
  fl::RoundObservation observation;
  observation.participated = {true, false, true};
  clocked.ObserveRound(0, observation);
  const fl::WorkerRoundPlan plan = clocked.PlanWorker(1, 2);
  EXPECT_EQ(plan.pruning_ratio, 0.5);
  EXPECT_EQ(plan.tau, 7);
  clocked.ObserveWorker(1, 2, 3.0, 4.0, 5.0);
  clocked.ObserveWorker(1, 1, INFINITY, 4.0, 0.0);

  const std::vector<std::string> expected = {
      "Initialize 3 77",
      "PlanRound 0",
      "ObserveRound 0 3",
      "PlanWorker 1 2",
      "ObserveWorker 1 2 3.000000 4.000000 5.000000",
      "ObserveWorker 1 1 inf 4.000000 0.000000"};
  EXPECT_EQ(recording->calls, expected);

  // The round clock and dispatch accounting it keeps on the side.
  ASSERT_EQ(clocked.rounds().size(), 2u);
  EXPECT_TRUE(clocked.rounds()[0].started);
  EXPECT_EQ(clocked.rounds()[0].dispatches, 3);
  EXPECT_EQ(clocked.rounds()[0].failed, 1);
  EXPECT_TRUE(clocked.rounds()[1].started);
  EXPECT_EQ(clocked.rounds()[1].dispatches, 1);
  EXPECT_EQ(clocked.rounds()[1].failed, 1);
  ASSERT_EQ(clocked.dispatches().size(), 4u);
  EXPECT_EQ(clocked.dispatches()[3].worker, 2);
  EXPECT_EQ(clocked.dispatches()[3].plan.pruning_ratio, 0.5);
}

// A small engine run with FedMP, decorated or not.
fl::RoundLog SmallRun(bool async, bool decorated) {
  const fedmp::data::FlTask task = fedmp::data::MakeTaskByName(
      "cnn", fedmp::data::TaskScale::kTiny, 5);
  const auto fleet = fedmp::edge::MakeHeterogeneousWorkers(
      fedmp::edge::HeterogeneityLevel::kHigh, 5);
  std::unique_ptr<fl::Strategy> strategy = MakeFedMp();
  if (decorated) {
    strategy = std::make_unique<ClockedStrategy>(std::move(strategy), false);
  }
  fl::AsyncTrainerOptions options;
  options.base.max_rounds = 6;
  options.base.eval_every = 2;
  options.base.seed = 5;
  options.base.num_threads = 2;
  options.base.faults.crash_prob = 0.1;
  options.base.faults.corrupt_prob = 0.1;
  options.m = 4;
  if (async) {
    return fl::RunFederatedAsync(task, fleet, std::move(strategy), options);
  }
  return fl::RunFederated(task, fleet, std::move(strategy), options.base);
}

TEST(ClockedStrategyTest, DecoratedRunIsBitIdentical) {
  for (bool async : {false, true}) {
    const fl::RoundLog plain = SmallRun(async, /*decorated=*/false);
    const fl::RoundLog decorated = SmallRun(async, /*decorated=*/true);
    ASSERT_EQ(plain.records().size(), 6u);
    EXPECT_EQ(RoundLogDigest(plain), RoundLogDigest(decorated))
        << (async ? "async" : "sync");
  }
}

// Every workload at a seed the benchmark's runs do not use: one cycle of
// its seeds passes the output checks, and a layer pass over one more
// repetition charges exactly the RoundLog's MACs every round.
class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, PassesOutputChecksOnASecondSeed) {
  const Workload& workload = *FindWorkload(GetParam());
  const int lanes = LanesOnHost(workload);
  const EnginePhase phase = RunEnginePhase(workload, 2, lanes, 0.0);
  for (const std::string& problem : phase.problems) ADD_FAILURE() << problem;
  EXPECT_EQ(phase.rounds, workload.rounds * (workload.sub_seeds + 1));
  for (const Metric& m : EndToEndMetrics(phase)) {
    EXPECT_TRUE(std::isfinite(m.value) && m.value > 0) << m.name;
  }

  RepetitionOptions options;
  options.record_plans = true;
  const Repetition rep =
      RunRepetition(workload, phase.last_seed, lanes, options);
  EXPECT_EQ(rep.digest, phase.digests.at(phase.last_seed));
  SpanLog spans;
  const LayerPassResult pass = RunLayerPass(
      workload, phase.last_seed, lanes, rep.log, rep.dispatches, &spans);
  for (const std::string& problem : pass.problems) ADD_FAILURE() << problem;
  EXPECT_EQ(pass.rounds, workload.rounds);
  EXPECT_EQ(pass.rounds_macs_match, workload.rounds);
  EXPECT_GT(pass.metrics.at("fl.worker.train_s"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values("paper_cnn", "fleet_10k",
                                           "async_lstm_chaos"));

}  // namespace
}  // namespace fedmpbench
