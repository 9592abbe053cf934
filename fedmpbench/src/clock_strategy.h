#ifndef FEDMPBENCH_CLOCK_STRATEGY_H_
#define FEDMPBENCH_CLOCK_STRATEGY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/strategy.h"
#include "spans.h"

namespace fedmpbench {

using Clock = std::chrono::steady_clock;

// One planned worker dispatch, as the engine asked the strategy for it.
struct Dispatch {
  int64_t round = 0;
  int worker = 0;
  fedmp::fl::WorkerRoundPlan plan;
};

// What the decorator saw of one round index.
struct RoundClock {
  bool started = false;
  Clock::time_point start;  // host clock at the round's first planning call
  double plan_s = 0.0;      // host seconds inside PlanRound / PlanWorker
  double observe_s = 0.0;   // host seconds inside ObserveRound / ObserveWorker
  int64_t dispatches = 0;   // worker plans handed out for this round
  int64_t failed = 0;       // dispatches the engine reported as not folded
};

// A forwarding fl::Strategy that reads the host clock where the engines
// start a round: on PlanRound (sync engine) and on the first PlanWorker call
// of a new round (async engine). It also times the bandit's planning and
// feedback calls, counts dispatches and failed dispatches, and can record
// every plan it hands out for the layer pass. Every virtual forwards to the
// wrapped strategy and nothing else changes, so a decorated run's RoundLog is
// bit-identical to an undecorated one.
class ClockedStrategy : public fedmp::fl::Strategy {
 public:
  // `spans` may be null; when set, every planning and feedback call also
  // records a bandit.plan / bandit.observe span there.
  ClockedStrategy(std::unique_ptr<fedmp::fl::Strategy> inner,
                  bool record_plans, SpanLog* spans = nullptr);

  std::string Name() const override;
  fedmp::fl::SyncScheme sync_scheme() const override;
  bool quantize_residuals() const override;
  void Initialize(int num_workers, uint64_t seed) override;
  void PlanRound(int64_t round,
                 std::vector<fedmp::fl::WorkerRoundPlan>* plans) override;
  void ObserveRound(int64_t round,
                    const fedmp::fl::RoundObservation& observation) override;
  bool SupportsAsync() const override;
  fedmp::fl::WorkerRoundPlan PlanWorker(int64_t round, int worker) override;
  void ObserveWorker(int64_t round, int worker, double completion_time,
                     double mean_time, double delta_loss) override;

  // Indexed by round; may extend one past the last logged round (the async
  // engine plans the next round's dispatches before Run() returns).
  const std::vector<RoundClock>& rounds() const { return rounds_; }
  // Every plan handed out, in call order (empty unless record_plans).
  const std::vector<Dispatch>& dispatches() const { return dispatches_; }

 private:
  RoundClock& At(int64_t round);

  std::unique_ptr<fedmp::fl::Strategy> inner_;
  bool record_plans_;
  SpanLog* spans_;
  std::vector<RoundClock> rounds_;
  std::vector<Dispatch> dispatches_;
};

// Host seconds of each of the first `num_rounds` rounds: round r runs from
// its start to round r+1's start, and the last round ends at `run_end`
// (when Run() returned).
std::vector<double> RoundSeconds(const std::vector<RoundClock>& rounds,
                                 int64_t num_rounds, Clock::time_point run_end);

}  // namespace fedmpbench

#endif  // FEDMPBENCH_CLOCK_STRATEGY_H_
