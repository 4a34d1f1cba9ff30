// partitioned-gpu: a phylogenomic analysis of several hundred gene
// partitions of unequal length over one tree, batched into one
// multi-partition instance on the simulated CUDA Quadro P5000 profile and
// evaluated repeatedly, as a branch-length optimiser would.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/gamma.h"
#include "core/model.h"
#include "core/rng.h"
#include "kernels/workload.h"
#include "phylo/partition.h"
#include "phylo/seqsim.h"
#include "reference.h"

namespace perfbench {
namespace {

constexpr int kTaxa = 16;
constexpr int kPartitions = 240;
constexpr int kTotalPatterns = 24000;
constexpr int kMinPartitionPatterns = 16;
constexpr int kCategories = 4;
constexpr int kTreeVariants = 4;  ///< evaluations per round
constexpr int kSimulatedCudaResource = 1;  ///< NVIDIA Quadro P5000 profile
constexpr int kTraceWindowEvals = 3;       ///< after one untraced warm-up

struct Inputs {
  std::vector<std::unique_ptr<bgl::HKY85Model>> models;
  std::vector<bgl::phylo::PartitionSpec> specs;
  std::vector<ReferenceModel> references;
  std::vector<bgl::phylo::Tree> trees;  ///< the round's tree variants
  std::vector<std::vector<double>> expected;  ///< [variant][partition]
  double partialsFlopsPerEval = 0.0;
};

/// Partition lengths: log-normal weights over a fixed total, each at least
/// kMinPartitionPatterns, rounded by largest remainder so they sum exactly.
std::vector<int> partitionLengths(bgl::Rng& rng) {
  std::vector<double> w(kPartitions);
  double sum = 0.0;
  for (double& x : w) {
    x = std::exp(0.8 * rng.normal());
    sum += x;
  }
  const int spare = kTotalPatterns - kPartitions * kMinPartitionPatterns;
  std::vector<int> lengths(kPartitions);
  std::vector<std::pair<double, int>> remainders;
  int given = 0;
  for (int q = 0; q < kPartitions; ++q) {
    const double share = spare * w[static_cast<std::size_t>(q)] / sum;
    const int whole = static_cast<int>(std::floor(share));
    lengths[static_cast<std::size_t>(q)] = kMinPartitionPatterns + whole;
    given += whole;
    remainders.emplace_back(share - whole, q);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first : a.second < b.second;
            });
  for (int i = 0; i < spare - given; ++i) {
    ++lengths[static_cast<std::size_t>(remainders[static_cast<std::size_t>(i)].second)];
  }
  return lengths;
}

Inputs makeInputs(std::uint64_t seed) {
  bgl::Rng rng(seed * 0x9E3779B97F4A7C15ull + 23);
  Inputs in;
  const bgl::phylo::Tree tree = bgl::phylo::Tree::random(kTaxa, rng, 0.08);
  const std::vector<int> lengths = partitionLengths(rng);
  in.specs.resize(kPartitions);
  for (int q = 0; q < kPartitions; ++q) {
    std::vector<double> freqs(4);
    rng.dirichlet(20.0, 4, freqs.data());
    in.models.push_back(std::make_unique<bgl::HKY85Model>(rng.uniform(2.0, 6.0), freqs));
    const double alpha = rng.uniform(0.3, 1.5);
    const auto rates = bgl::discreteGammaRates(alpha, kCategories);
    const int sites = lengths[static_cast<std::size_t>(q)];
    std::vector<double> siteRates(static_cast<std::size_t>(sites));
    for (double& r : siteRates) r = rates[static_cast<std::size_t>(rng.belowInt(kCategories))];

    auto& spec = in.specs[static_cast<std::size_t>(q)];
    spec.data.taxa = kTaxa;
    spec.data.patterns = sites;
    spec.data.originalSites = sites;
    spec.data.states =
        bgl::phylo::simulateAlignment(tree, *in.models.back(), sites, rng, siteRates);
    spec.data.weights.assign(static_cast<std::size_t>(sites), 1.0);
    spec.model = in.models.back().get();
    spec.options.categories = kCategories;
    spec.options.alpha = alpha;
    spec.options.resources = {kSimulatedCudaResource};
    spec.options.requirementFlags = BGL_FLAG_FRAMEWORK_CUDA | BGL_FLAG_PRECISION_DOUBLE;
    in.references.push_back(referenceModel(
        *in.models.back(), rates, std::vector<double>(kCategories, 1.0 / kCategories)));
    in.partialsFlopsPerEval +=
        (kTaxa - 1) * bgl::kernels::partialsFlops(sites, kCategories, 4);
  }
  in.trees.push_back(tree);
  for (int v = 1; v < kTreeVariants; ++v) {
    bgl::phylo::Tree variant = tree;
    for (int n = 0; n < variant.nodeCount(); ++n) {
      if (n != variant.root()) variant.node(n).length *= std::exp(0.2 * rng.normal());
    }
    in.trees.push_back(variant);
  }
  for (const auto& t : in.trees) {
    const ReferenceTree rt = referenceTree(t);
    std::vector<double> values;
    for (int q = 0; q < kPartitions; ++q) {
      const auto& data = in.specs[static_cast<std::size_t>(q)].data;
      values.push_back(referenceLogLikelihood(in.references[static_cast<std::size_t>(q)],
                                              rt, data.states.data(),
                                              data.weights.data(), data.patterns));
    }
    in.expected.push_back(std::move(values));
  }
  return in;
}

struct Phase {
  std::vector<double> evalsPerSecond;  ///< one per round
  std::vector<double> evalSeconds;
  std::vector<double> modeledSeconds;
  double wall = 0.0;
  double evalTotal = 0.0;
  LayerDelta delta;
};

}  // namespace

Result runPartitionedGpu(const RunConfig& config) {
  Result result;
  const Inputs in = makeInputs(config.seed);
  const bgl::phylo::PartitionOptions options;  // batched, one instance

  std::unique_ptr<bgl::phylo::PartitionedLikelihood> like;
  std::vector<double> firstEvalTimes;
  // A set-up: the multi-partition instance created, every partition's data
  // and model loaded. The first evaluation follows untimed: it swings with
  // the host's load like any evaluation, and is kept in the run record.
  const auto setUp = [&] {
    like.reset();
    const auto t0 = Clock::now();
    like = std::make_unique<bgl::phylo::PartitionedLikelihood>(in.trees[0], in.specs,
                                                               options);
    const double seconds = secondsSince(t0);
    const auto first = Clock::now();
    like->logLikelihood(in.trees[0]);
    firstEvalTimes.push_back(secondsSince(first));
    result.info["implementation"] = like->implName(0);
    result.info["instances"] = std::to_string(like->instanceCount());
    return seconds;
  };

  const auto check = [&](const bgl::phylo::PartitionedLikelihood& evaluated,
                          int variant, double total) {
    const auto& got = evaluated.partitionLogLikelihoods();
    const auto& want = in.expected[static_cast<std::size_t>(variant)];
    double sum = 0.0;
    for (int q = 0; q < kPartitions; ++q) {
      const double g = got[static_cast<std::size_t>(q)];
      sum += g;
      if (!closeRelative(g, want[static_cast<std::size_t>(q)], 1e-9)) {
        result.fail("partitioned-gpu: partition " + std::to_string(q) + " logL " +
                    std::to_string(g) + " vs reference " +
                    std::to_string(want[static_cast<std::size_t>(q)]));
        return;
      }
    }
    if (sum != total) {
      result.fail("partitioned-gpu: partition values do not sum to the total");
    }
  };

  const auto runPhase = [&](double seconds, SetupSchedule& schedule) {
    Phase phase;
    const ProcessSnapshot before = ProcessSnapshot::take();
    const auto start = Clock::now();
    for (double elapsed = 0.0; elapsed < seconds; elapsed = secondsSince(start)) {
      if (schedule.due(elapsed)) {
        schedule.times.push_back(setUp());
        result.sampleThreads();
      }
      const auto round = Clock::now();
      for (int v = 0; v < kTreeVariants; ++v) {
        const auto t0 = Clock::now();
        const double total = like->logLikelihood(in.trees[static_cast<std::size_t>(v)]);
        const double s = secondsSince(t0);
        phase.evalSeconds.push_back(s);
        phase.evalTotal += s;
        phase.modeledSeconds.push_back(like->lastModeledSeconds());
        check(*like, v, total);
      }
      const double wall = secondsSince(round);
      phase.evalsPerSecond.push_back(kTreeVariants / wall);
      phase.wall += wall;
      result.attempted += kTreeVariants;
      result.sampleThreads();
    }
    phase.delta = LayerDelta::between(before, ProcessSnapshot::take());
    return phase;
  };

  if (!config.trace) {
    SetupSchedule setups(kSetups, config.seconds);
    const Phase p = runPhase(config.seconds, setups);
    result.metrics["setup_s"] = summarize(setups.times).median;
    result.metrics["evals_per_s"] = roundRate(p.evalsPerSecond);
    result.metrics["eval_p50_ms"] = windowLatency(p.evalSeconds) * 1e3;
    result.sample("setup_s", setups.times);
    result.sample("setup.first_eval_s", firstEvalTimes);
    result.sample("evals_per_s", p.evalsPerSecond);
    result.sample("eval_ms", p.evalSeconds);
    result.sample("modeled_eval_ms", p.modeledSeconds);
  } else {
    SetupSchedule first(1, 0.0), none(0, 0.0);
    const Phase plain = runPhase(config.seconds / 2, first);
    Phase traced;
    {
      const SpanTiming timing(config.outDir + "/partitioned-gpu.metrics.jsonl");
      traced = runPhase(config.seconds / 2, none);
    }
    const double evals = static_cast<double>(traced.evalSeconds.size());
    const LayerDelta& d = traced.delta;
    auto& m = result.metrics;
    m["phylo.eval_ms"] = summarize(traced.evalSeconds).median * 1e3;
    m["phylo.eval_p90_ms"] = quantile(traced.evalSeconds, 0.9) * 1e3;
    m["phylo.self_ms_per_eval"] = (traced.evalTotal - d.apiSeconds()) / evals * 1e3;
    m["phylo.partials_ops_per_eval"] = d.partialsOps / evals;
    m["phylo.matrices_per_eval"] = d.matrices / evals;
    m["api.partials_ms_per_eval"] = d.partialsSeconds / evals * 1e3;
    m["api.matrices_ms_per_eval"] = d.matricesSeconds / evals * 1e3;
    m["api.root_ms_per_eval"] = d.rootSeconds / evals * 1e3;
    m["accel.launches_per_eval"] = d.launches / evals;
    m["accel.bytes_copied_per_eval"] = d.bytes / evals;
    m["perfmodel.modeled_evals_per_s"] = 1.0 / summarize(plain.modeledSeconds).mean;
    m["obs.traced_slowdown"] = roundRate(plain.evalsPerSecond) / roundRate(traced.evalsPerSecond);
    m["layers.accounted_share"] = d.apiSeconds() / traced.wall;
    result.idle(kMc3Layer);
    result.idle(kServeLayer);
    result.idle({"cpu.partials_gflops"});
    result.sample("traced.eval_ms", traced.evalSeconds);

    // Stream spans: a fresh instance created with BGL_TRACE set retains
    // every enqueue/kernel span; its Chrome trace is written at finalize
    // and read by run.py (queue wait, kernel seconds).
    result.traceFile = config.outDir + "/partitioned-gpu.trace.json";
    std::remove(result.traceFile.c_str());
    setenv("BGL_TRACE", result.traceFile.c_str(), 1);
    {
      bgl::phylo::PartitionedLikelihood window(in.trees[0], in.specs, options);
      unsetenv("BGL_TRACE");
      for (int e = 0; e <= kTraceWindowEvals; ++e) {
        const int v = e % kTreeVariants;
        check(window, v, window.logLikelihood(in.trees[static_cast<std::size_t>(v)]));
      }
    }
    result.traceWindowEvals = kTraceWindowEvals;
    result.traceWindowPartialsFlops = kTraceWindowEvals * in.partialsFlopsPerEval;
  }
  result.info["partitions"] = std::to_string(kPartitions);
  result.info["patterns"] = std::to_string(kTotalPatterns);
  return result;
}

}  // namespace perfbench
