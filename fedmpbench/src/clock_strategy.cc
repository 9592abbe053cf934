#include "clock_strategy.h"

#include <cmath>
#include <utility>

namespace fedmpbench {

namespace fl = fedmp::fl;

namespace {
double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
}  // namespace

ClockedStrategy::ClockedStrategy(std::unique_ptr<fl::Strategy> inner,
                                 bool record_plans, SpanLog* spans)
    : inner_(std::move(inner)), record_plans_(record_plans), spans_(spans) {}

std::string ClockedStrategy::Name() const { return inner_->Name(); }

fl::SyncScheme ClockedStrategy::sync_scheme() const {
  return inner_->sync_scheme();
}

bool ClockedStrategy::quantize_residuals() const {
  return inner_->quantize_residuals();
}

void ClockedStrategy::Initialize(int num_workers, uint64_t seed) {
  inner_->Initialize(num_workers, seed);
}

bool ClockedStrategy::SupportsAsync() const { return inner_->SupportsAsync(); }

RoundClock& ClockedStrategy::At(int64_t round) {
  if (static_cast<int64_t>(rounds_.size()) <= round) {
    rounds_.resize(static_cast<size_t>(round) + 1);
  }
  return rounds_[static_cast<size_t>(round)];
}

void ClockedStrategy::PlanRound(int64_t round,
                                std::vector<fl::WorkerRoundPlan>* plans) {
  const Clock::time_point start = Clock::now();
  RoundClock& rc = At(round);
  rc.started = true;
  rc.start = start;
  {
    SpanLog::Scope span(spans_, "bandit.plan", round, -1);
    inner_->PlanRound(round, plans);
  }
  rc.plan_s += Seconds(start, Clock::now());
  rc.dispatches += static_cast<int64_t>(plans->size());
  if (record_plans_) {
    for (size_t n = 0; n < plans->size(); ++n) {
      dispatches_.push_back(Dispatch{round, static_cast<int>(n), (*plans)[n]});
    }
  }
}

void ClockedStrategy::ObserveRound(int64_t round,
                                   const fl::RoundObservation& observation) {
  const Clock::time_point start = Clock::now();
  {
    SpanLog::Scope span(spans_, "bandit.observe", round, -1);
    inner_->ObserveRound(round, observation);
  }
  RoundClock& rc = At(round);
  rc.observe_s += Seconds(start, Clock::now());
  for (bool participated : observation.participated) {
    if (!participated) ++rc.failed;
  }
}

fl::WorkerRoundPlan ClockedStrategy::PlanWorker(int64_t round, int worker) {
  const Clock::time_point start = Clock::now();
  RoundClock& rc = At(round);
  if (!rc.started) {
    rc.started = true;
    rc.start = start;
  }
  fl::WorkerRoundPlan plan;
  {
    SpanLog::Scope span(spans_, "bandit.plan", round, worker);
    plan = inner_->PlanWorker(round, worker);
  }
  rc.plan_s += Seconds(start, Clock::now());
  ++rc.dispatches;
  if (record_plans_) dispatches_.push_back(Dispatch{round, worker, plan});
  return plan;
}

void ClockedStrategy::ObserveWorker(int64_t round, int worker,
                                    double completion_time, double mean_time,
                                    double delta_loss) {
  const Clock::time_point start = Clock::now();
  {
    SpanLog::Scope span(spans_, "bandit.observe", round, worker);
    inner_->ObserveWorker(round, worker, completion_time, mean_time,
                          delta_loss);
  }
  RoundClock& rc = At(round);
  rc.observe_s += Seconds(start, Clock::now());
  // The async engine reports a dispatch that never arrives (crash, lost or
  // corrupt upload) with an infinite completion time.
  if (std::isinf(completion_time)) ++rc.failed;
}

std::vector<double> RoundSeconds(const std::vector<RoundClock>& rounds,
                                 int64_t num_rounds,
                                 Clock::time_point run_end) {
  std::vector<double> seconds;
  for (int64_t r = 0; r < num_rounds; ++r) {
    const Clock::time_point end =
        r + 1 < num_rounds ? rounds[static_cast<size_t>(r) + 1].start
                           : run_end;
    seconds.push_back(Seconds(rounds[static_cast<size_t>(r)].start, end));
  }
  return seconds;
}

}  // namespace fedmpbench
