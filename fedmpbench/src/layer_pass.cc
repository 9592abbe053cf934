#include "layer_pass.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "edge/cost_model.h"
#include "edge/fault.h"
#include "fl/hierarchy.h"
#include "fl/resource_accounting.h"
#include "fl/server.h"
#include "fl/worker.h"
#include "nn/flops.h"
#include "nn/layers/activations.h"
#include "nn/layers/batchnorm.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/dropout.h"
#include "nn/layers/embedding.h"
#include "nn/layers/flatten.h"
#include "nn/layers/linear.h"
#include "nn/layers/lstm.h"
#include "nn/layers/pool.h"
#include "nn/layers/residual_block.h"
#include "nn/tensor_ops.h"
#include "pruning/sparsify.h"
#include "pruning/structured_pruner.h"
#include "stats.h"

namespace fedmpbench {

namespace data = fedmp::data;
namespace edge = fedmp::edge;
namespace fl = fedmp::fl;
namespace nn = fedmp::nn;
namespace obs = fedmp::obs;
namespace pruning = fedmp::pruning;

namespace {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Layer kinds the nn.* metrics are split by.
const char* const kKinds[] = {"conv", "linear", "lstm", "other"};
const char* const kKindSpans[] = {"nn.conv.layer", "nn.linear.layer",
                                  "nn.lstm.layer", "nn.other.layer"};
enum Kind { kConv = 0, kLinear, kLstm, kOther, kNumKinds };

Kind KindOf(nn::LayerType type) {
  switch (type) {
    case nn::LayerType::kConv2d:
    case nn::LayerType::kResidualBlock:
      return kConv;
    case nn::LayerType::kLinear:
      return kLinear;
    case nn::LayerType::kLstm:
      return kLstm;
    default:
      return kOther;
  }
}

// A one-layer model of `spec`, built with the layer's own constructor
// (nn::BuildModel only accepts whole models, whose output is the class
// logits).
std::unique_ptr<nn::Layer> MakeLayer(const nn::LayerSpec& spec,
                                     fedmp::Rng& rng) {
  switch (spec.type) {
    case nn::LayerType::kConv2d:
      return std::make_unique<nn::Conv2d>(spec.in_channels,
                                          spec.out_channels, spec.kernel,
                                          spec.stride, spec.padding,
                                          spec.bias, rng);
    case nn::LayerType::kBatchNorm2d:
      return std::make_unique<nn::BatchNorm2d>(spec.out_channels);
    case nn::LayerType::kReLU:
      return std::make_unique<nn::ReLU>();
    case nn::LayerType::kTanh:
      return std::make_unique<nn::Tanh>();
    case nn::LayerType::kMaxPool2d:
      return std::make_unique<nn::MaxPool2d>(spec.kernel, spec.stride);
    case nn::LayerType::kGlobalAvgPool:
      return std::make_unique<nn::GlobalAvgPool>();
    case nn::LayerType::kFlatten:
      return std::make_unique<nn::Flatten>();
    case nn::LayerType::kTimeFlatten:
      return std::make_unique<nn::TimeFlatten>();
    case nn::LayerType::kLinear:
      return std::make_unique<nn::Linear>(spec.in_channels,
                                          spec.out_channels, spec.bias, rng);
    case nn::LayerType::kDropout:
      return std::make_unique<nn::Dropout>(spec.dropout_p, &rng);
    case nn::LayerType::kResidualBlock:
      return std::make_unique<nn::ResidualBlock>(spec.in_channels,
                                                 spec.mid_channels, rng);
    case nn::LayerType::kLstm:
      return std::make_unique<nn::Lstm>(spec.in_channels, spec.out_channels,
                                        rng);
    case nn::LayerType::kEmbedding:
      return std::make_unique<nn::Embedding>(spec.vocab, spec.out_channels,
                                             rng);
  }
  return nullptr;
}

std::vector<int64_t> BatchShape(const nn::ValueShape& shape, int64_t rows) {
  switch (shape.kind) {
    case nn::ShapeKind::kImage:
      return {rows, shape.c, shape.h, shape.w};
    case nn::ShapeKind::kFeatures:
      return {rows, shape.f};
    case nn::ShapeKind::kTokens:
      return {rows, shape.t};
    case nn::ShapeKind::kSequence:
      return {rows, shape.t, shape.f};
  }
  return {};
}

struct LayerCost {
  double fwd_s = 0.0;  // one Forward call
  double bwd_s = 0.0;  // one Backward call
};

// Times Forward and Backward of one-layer models, one per distinct (layer,
// input shape, batch rows); the median of a few calls after a warm-up call.
class LayerTimer {
 public:
  explicit LayerTimer(SpanLog* spans) : spans_(spans) {}

  LayerCost Time(const nn::LayerSpec& spec, const nn::ValueShape& input,
                 int64_t rows) {
    const std::string key =
        std::string(nn::LayerTypeName(spec.type)) + "/" +
        std::to_string(spec.in_channels) + "/" +
        std::to_string(spec.out_channels) + "/" +
        std::to_string(spec.kernel) + "/" + std::to_string(spec.stride) +
        "/" + std::to_string(spec.padding) + "/" +
        std::to_string(spec.mid_channels) + "/" + std::to_string(spec.vocab) +
        "/" + input.ToString() + "/" + std::to_string(rows);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;

    fedmp::Rng rng(0x1A7E5ULL);
    std::unique_ptr<nn::Layer> layer = MakeLayer(spec, rng);
    // Token ids must stay in the vocabulary; zero is always valid.
    const float fill = input.kind == nn::ShapeKind::kTokens ? 0.0f : 0.01f;
    const nn::Tensor x = nn::Tensor::Full(BatchShape(input, rows), fill);
    nn::Tensor y = layer->Forward(x, /*training=*/true);
    const nn::Tensor dy = nn::Tensor::Full(y.shape(), 1e-3f);
    layer->Backward(dy);
    constexpr int kCalls = 5;
    std::vector<double> fwd, bwd;
    for (int i = 0; i < kCalls; ++i) {
      SpanLog::Scope span(spans_, kKindSpans[KindOf(spec.type)], -1, -1);
      const Clock::time_point t0 = Clock::now();
      y = layer->Forward(x, /*training=*/true);
      const Clock::time_point t1 = Clock::now();
      layer->Backward(dy);
      const Clock::time_point t2 = Clock::now();
      fwd.push_back(Seconds(t0, t1));
      bwd.push_back(Seconds(t1, t2));
    }
    const LayerCost cost{Median(fwd), Median(bwd)};
    cache_.emplace(key, cost);
    return cost;
  }

 private:
  SpanLog* spans_;
  std::map<std::string, LayerCost> cache_;
};

// Per-kind nn seconds and MACs, accumulated over the pass.
struct NnTotals {
  double fwd_s[kNumKinds] = {};
  double bwd_s[kNumKinds] = {};
  double macs[kNumKinds] = {};
};

// Adds the nn cost of training `rows` examples of `spec` in batches of
// `batch`: each layer's one-layer Forward/Backward time at that batch,
// scaled by rows / batch, and its analytic MACs for those rows.
void AddNnCost(const nn::ModelSpec& spec, int64_t rows, int64_t batch,
               LayerTimer* timer, NnTotals* totals) {
  nn::ModelAnalysis shapes;
  nn::MacAnalysis macs;
  FEDMP_CHECK(spec.Analyze(&shapes).ok());
  FEDMP_CHECK(nn::AnalyzeTrainingMacs(spec, &macs).ok());
  const double batches = static_cast<double>(rows) / static_cast<double>(batch);
  int64_t row_multiplier = 1;  // TimeFlatten turns each sequence into T rows
  for (size_t i = 0; i < spec.layers.size(); ++i) {
    const nn::LayerSpec& layer = spec.layers[i];
    const nn::ValueShape& input = shapes.layers[i].input;
    const LayerCost cost = timer->Time(layer, input, batch * row_multiplier);
    const Kind kind = KindOf(layer.type);
    totals->fwd_s[kind] += cost.fwd_s * batches;
    totals->bwd_s[kind] += cost.bwd_s * batches;
    totals->macs[kind] += static_cast<double>(macs.layers[i].forward +
                                              macs.layers[i].backward) *
                          static_cast<double>(rows);
    if (layer.type == nn::LayerType::kTimeFlatten) row_multiplier = input.t;
  }
}

fl::LocalTrainOptions LocalOptions(const data::FlTask& task,
                                   const fl::WorkerRoundPlan& plan) {
  fl::LocalTrainOptions local;
  local.tau = plan.tau > 0 ? plan.tau : task.local_iterations;
  local.batch_size = task.batch_size;
  local.learning_rate = task.learning_rate;
  local.momentum = task.momentum;
  local.weight_decay = task.weight_decay;
  local.proximal_mu = plan.proximal_mu;
  local.clip_norm = task.is_language_model ? 5.0 : 0.0;
  local.is_language_model = task.is_language_model;
  return local;
}

// Host seconds per TaskSet Submit + DrainNext of an empty task, keeping
// `window` tasks in flight on `lanes` lanes.
double PoolTaskSeconds(int lanes, int64_t window) {
  fedmp::ThreadPool::SetGlobalThreads(lanes);
  constexpr int64_t kTasks = 20000;
  fedmp::TaskSet tasks;
  int64_t tag = -1;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < kTasks; ++i) {
    while (tasks.pending() >= window) tasks.DrainNext(&tag);
    tasks.Submit(i, [] {});
  }
  while (tasks.DrainNext(&tag)) {
  }
  const double seconds = Seconds(start, Clock::now());
  fedmp::ThreadPool::SetGlobalThreads(1);
  return seconds / static_cast<double>(kTasks);
}

// The plain single-worker baseline: LocalTrain of the unpruned model on one
// lane, repeated for at least 3 calls and 0.5 s; MACs per host second.
double DenseBaselineMacsPerSecond(const data::FlTask& task,
                                  const fl::ResourceParams& params,
                                  const nn::TensorList& weights,
                                  fl::Worker* worker) {
  const fl::LocalTrainOptions local =
      LocalOptions(task, fl::WorkerRoundPlan{});
  const pruning::PruneMask full = pruning::FullMask(task.model);
  double macs = 0.0;
  double seconds = 0.0;
  for (int call = 0; call < 3 || seconds < 0.5; ++call) {
    macs += static_cast<double>(
        fl::ComputeWorkerResources(params, task.model, full,
                                   worker->PlannedRows(local), 0.0, false)
            .flops());
    const Clock::time_point start = Clock::now();
    worker->LocalTrain(task.model, weights, local);
    seconds += Seconds(start, Clock::now());
  }
  return macs / seconds;
}

// Total self seconds and call count per span name, over the spans from
// index `first` on. The layer spans are leaves, so their self time is their
// whole duration.
std::map<std::string, std::pair<double, int64_t>> SelfSecondsByName(
    const SpanLog& spans, size_t first) {
  std::map<std::string, std::pair<double, int64_t>> by_name;
  const std::vector<double> self = spans.SelfSeconds();
  for (size_t i = first; i < spans.spans().size(); ++i) {
    auto& [seconds, calls] = by_name[spans.spans()[i].name];
    seconds += self[i];
    ++calls;
  }
  return by_name;
}

// Layer span names whose time stands for the engine's round work. The
// data.shard span is left out: LocalTrain materializes the shard itself, so
// its time is already inside fl.worker.train.
const char* const kRoundLayers[] = {
    "pruning.rank",          "pruning.extract", "pruning.residual",
    "fl.ledger.compute",     "fl.worker.train", "edge.sim",
    "fl.aggregate.accumulate", "fl.aggregate.finish", "fl.server.eval"};

}  // namespace

LayerPassResult RunLayerPass(const Workload& workload, uint64_t seed,
                             int lanes, const fl::RoundLog& log,
                             const std::vector<Dispatch>& dispatches,
                             SpanLog* spans) {
  LayerPassResult result;
  const size_t first_span = spans->spans().size();
  fedmp::ThreadPool::SetGlobalThreads(1);
  Inputs in;
  {
    SpanLog::Scope span(spans, "data.task", -1, -1);
    in = MakeInputs(workload, seed, /*lanes=*/1);
  }
  const data::FlTask& task = in.task;
  const nn::ModelSpec& spec = task.model;
  const fl::TrainerOptions& options = in.options.base;
  const int num_workers = static_cast<int>(in.fleet.size());
  const std::unique_ptr<fl::Strategy> strategy = MakeFedMp();

  fl::ParameterServer server(spec, seed);
  const fl::ResourceParams params =
      fl::MakeResourceParams(spec, server.weights());
  std::vector<std::unique_ptr<fl::Worker>> workers;
  fedmp::Rng worker_seeds(seed ^ 0x5EED5ULL);
  for (int n = 0; n < num_workers; ++n) {
    const size_t i = static_cast<size_t>(n);
    if (in.view != nullptr) {
      workers.push_back(std::make_unique<fl::Worker>(
          n, &task.train, in.view.get(), in.fleet[i],
          worker_seeds.NextU64()));
    } else {
      workers.push_back(std::make_unique<fl::Worker>(
          n, &task.train, in.partition[i], in.fleet[i],
          worker_seeds.NextU64()));
    }
  }
  edge::FaultPlanOptions fault_options = options.faults;
  if (fault_options.seed == 0) fault_options.seed = seed ^ 0xFA017ULL;
  const edge::FaultPlan faults(num_workers, fault_options);

  const int64_t rounds = static_cast<int64_t>(log.records().size());
  std::vector<std::vector<const Dispatch*>> by_round(
      static_cast<size_t>(rounds));
  for (const Dispatch& d : dispatches) {
    if (d.round < rounds) by_round[static_cast<size_t>(d.round)].push_back(&d);
  }

  LayerTimer timer(spans);
  NnTotals nn_totals;
  double train_macs = 0.0;
  for (int64_t r = 0; r < rounds; ++r) {
    const std::vector<const Dispatch*>& round = by_round[static_cast<size_t>(r)];
    // Rows trained per distinct pruning ratio (one sub-spec per ratio).
    std::map<double, std::pair<nn::ModelSpec, int64_t>> trained;
    int64_t round_macs = 0;
    {
      SpanLog::Scope round_span(spans, "round", r, -1);
      bool any_pruned = false;
      for (const Dispatch* d : round) any_pruned |= d->plan.pruning_ratio > 0;
      pruning::ImportanceRanking ranking;
      if (any_pruned) {
        SpanLog::Scope span(spans, "pruning.rank", r, -1);
        ranking = pruning::RankUnits(spec, server.weights());
      }
      const int slots = static_cast<int>(round.size());
      fl::HierarchicalAggregator agg(
          spec, server.weights(), std::max(slots, 1), strategy->sync_scheme(),
          strategy->quantize_residuals(),
          workload.async ? 1 : options.scale.fog_fan_out,
          options.scale.ps_shards);
      std::vector<double> completion_times;
      for (int j = 0; j < slots; ++j) {
        const Dispatch& d = *round[static_cast<size_t>(j)];
        fl::Worker& worker = *workers[static_cast<size_t>(d.worker)];
        SpanLog::Scope worker_span(spans, "worker", r, d.worker);
        const fl::LocalTrainOptions local = LocalOptions(task, d.plan);
        pruning::SubModel sub;
        {
          SpanLog::Scope span(spans, "pruning.extract", r, d.worker);
          if (d.plan.pruning_ratio > 0.0) {
            auto pruned = pruning::PruneByRatioRanked(
                spec, server.weights(), ranking, d.plan.pruning_ratio);
            FEDMP_CHECK(pruned.ok()) << pruned.status();
            sub = std::move(pruned).value();
          } else {
            sub.spec = spec;
            sub.weights = server.weights();
            sub.mask = pruning::FullMask(spec);
          }
        }
        nn::TensorList residual;
        if (workload.async) {
          SpanLog::Scope span(spans, "pruning.residual", r, d.worker);
          auto res = pruning::ResidualModel(spec, server.weights(), sub.mask);
          FEDMP_CHECK(res.ok()) << res.status();
          residual = std::move(res).value();
        }
        obs::WorkerResources res;
        {
          SpanLog::Scope span(spans, "fl.ledger.compute", r, d.worker);
          res = fl::ComputeWorkerResources(
              params, sub.spec, sub.mask, worker.PlannedRows(local),
              d.plan.compress_ratio, strategy->quantize_residuals());
        }
        round_macs += res.flops();
        auto& entry = trained[d.plan.pruning_ratio];
        if (entry.second == 0) entry.first = sub.spec;
        entry.second += res.rows;
        if (in.view != nullptr) {
          SpanLog::Scope span(spans, "data.shard", r, d.worker);
          FEDMP_CHECK(!in.view->Shard(d.worker).empty());
        }
        fl::LocalResult trained_result;
        {
          SpanLog::Scope span(spans, "fl.worker.train", r, d.worker);
          trained_result = worker.LocalTrain(sub.spec, sub.weights, local);
        }
        {
          SpanLog::Scope span(spans, "edge.sim", r, d.worker);
          const edge::DeviceRoundSample sample =
              edge::SampleRound(worker.profile(), worker.rng());
          const double bytes = static_cast<double>(sub.spec.NumParams()) *
                               options.cost.bytes_per_param;
          double completion =
              edge::CompSeconds(sub.spec, local.tau, local.batch_size,
                                sample, options.cost) +
              edge::CommSeconds(bytes, bytes, sample, options.cost);
          if (faults.active()) {
            completion *= faults.FaultsFor(r, d.worker).slowdown;
          }
          completion_times.push_back(completion);
        }
        {
          SpanLog::Scope span(spans, "fl.aggregate.accumulate", r, d.worker);
          if (workload.async) {
            agg.AccumulateWithResidual(j, trained_result.weights, sub.mask,
                                       residual);
          } else {
            agg.Accumulate(j, trained_result.weights, sub.mask);
          }
          agg.Admit(j);
        }
      }
      if (!workload.async) {
        SpanLog::Scope span(spans, "edge.sim", r, -1);
        const edge::DeadlineOutcome outcome =
            edge::ApplyDeadline(completion_times, options.deadline);
        FEDMP_CHECK_GE(outcome.round_time, 0.0);
      }
      if (slots > 0) {
        SpanLog::Scope span(spans, "fl.aggregate.finish", r, -1);
        fedmp::fl::StreamingAggregator::Result folded = agg.Finish();
        if (workload.async) {
          // Algorithm 2's staleness mixing at the engine's default m / N.
          const double mixing = static_cast<double>(in.options.m) /
                                static_cast<double>(num_workers);
          nn::ScaleLists(folded.sum,
                         1.0f / static_cast<float>(folded.participants));
          nn::TensorList mixed = server.weights();
          nn::ScaleLists(mixed, static_cast<float>(1.0 - mixing));
          nn::AxpyLists(mixed, static_cast<float>(mixing), folded.sum);
          server.SetWeights(std::move(mixed));
        } else {
          server.ApplyAggregate(std::move(folded.sum), folded.participants);
        }
      }
      if (r % options.eval_every == 0 || r + 1 == rounds) {
        SpanLog::Scope span(spans, "fl.server.eval", r, -1);
        server.Evaluate(task.test, options.eval_batch_size,
                        task.is_language_model, options.eval_max_batches);
      }
    }
    const int64_t logged = log.records()[static_cast<size_t>(r)].flops_total;
    if (round_macs == logged) {
      ++result.rounds_macs_match;
    } else {
      result.problems.push_back(
          "round " + std::to_string(r) + ": layer pass charged " +
          std::to_string(round_macs) + " MACs, RoundLog flops_total " +
          std::to_string(logged));
    }
    train_macs += static_cast<double>(round_macs);
    SpanLog::Scope nn_span(spans, "nn.layer_models", r, -1);
    for (const auto& [ratio, spec_rows] : trained) {
      AddNnCost(spec_rows.first, spec_rows.second, task.batch_size, &timer,
                &nn_totals);
    }
  }
  result.rounds = rounds;

  double baseline_macs_per_s = 0.0;
  {
    SpanLog::Scope span(spans, "nn.dense_baseline", -1, 0);
    baseline_macs_per_s = DenseBaselineMacsPerSecond(
        task, params, server.weights(), workers[0].get());
  }

  std::map<std::string, std::pair<double, int64_t>> by_name =
      SelfSecondsByName(*spans, first_span);
  auto total = [&](const std::string& name) { return by_name[name].first; };
  auto per_call = [&](const std::string& name) {
    const auto& [seconds, calls] = by_name[name];
    return calls > 0 ? seconds / static_cast<double>(calls) : 0.0;
  };
  const double n_rounds = static_cast<double>(std::max<int64_t>(rounds, 1));
  const int64_t n_dispatches = by_name["worker"].second;
  auto& m = result.metrics;
  m["pruning.rank_s"] = total("pruning.rank") / n_rounds;
  m["pruning.extract_us"] = per_call("pruning.extract") * 1e6;
  m["fl.ledger.compute_us"] = per_call("fl.ledger.compute") * 1e6;
  m["data.shard_us"] = per_call("data.shard") * 1e6;
  m["fl.worker.train_s"] = per_call("fl.worker.train");
  m["fl.worker.train_macs_per_s"] =
      total("fl.worker.train") > 0 ? train_macs / total("fl.worker.train")
                                   : 0.0;
  m["edge.sim_us"] =
      n_dispatches > 0
          ? total("edge.sim") / static_cast<double>(n_dispatches) * 1e6
          : 0.0;
  m["fl.aggregate.accumulate_us"] = per_call("fl.aggregate.accumulate") * 1e6;
  m["fl.aggregate.finish_s"] = per_call("fl.aggregate.finish");
  m["fl.server.eval_s"] = per_call("fl.server.eval");
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string prefix = std::string("nn.") + kKinds[k];
    m[prefix + ".fwd_s"] = nn_totals.fwd_s[k] / n_rounds;
    m[prefix + ".bwd_s"] = nn_totals.bwd_s[k] / n_rounds;
    if (k == kOther) continue;  // no matmul MACs outside conv/linear/lstm
    const double seconds = nn_totals.fwd_s[k] + nn_totals.bwd_s[k];
    m[prefix + ".macs_per_s"] =
        seconds > 0 ? nn_totals.macs[k] / seconds : 0.0;
  }
  m["nn.dense_baseline.macs_per_s"] = baseline_macs_per_s;
  {
    SpanLog::Scope span(spans, "common.pool.task", -1, -1);
    m["common.pool.task_us"] = PoolTaskSeconds(lanes, workload.window) * 1e6;
  }
  for (const char* name : kRoundLayers) {
    result.layer_s_per_round += total(name) / n_rounds;
  }
  return result;
}

}  // namespace fedmpbench
