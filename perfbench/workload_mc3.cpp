// mc3-dna: Metropolis-coupled MCMC over simulated nucleotide data
// (HKY+G4, double precision), four chains stepped in turn, each on the
// host's single-threaded vectorised implementation. Every proposal is a
// full evaluation: 2n-2 matrices and n-1 partials.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/gamma.h"
#include "core/model.h"
#include "core/patterns.h"
#include "core/rng.h"
#include "kernels/workload.h"
#include "mc3/mc3.h"
#include "phylo/seqsim.h"
#include "reference.h"

namespace perfbench {
namespace {

constexpr int kTaxa = 24;
constexpr int kPatterns = 2000;
constexpr int kSimulatedSites = 4000;
constexpr int kChains = 4;
constexpr int kCategories = 4;
constexpr int kGenerationsPerRound = 40;
constexpr long kHostSerialAvx = BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_VECTOR_AVX |
                                BGL_FLAG_THREADING_NONE |
                                BGL_FLAG_PRECISION_DOUBLE;

/// Wall time of every Evaluator::logLikelihood call the sampler makes.
struct EvalTimes {
  std::vector<double> seconds;
  double total = 0.0;
};

/// Forwards to the library-backed evaluator and times each call from
/// outside; the library sees exactly the calls an unwrapped client makes.
class TimedEvaluator final : public bgl::mc3::Evaluator {
 public:
  TimedEvaluator(std::unique_ptr<bgl::mc3::Evaluator> inner, EvalTimes* sink)
      : inner_(std::move(inner)), sink_(sink) {}
  double logLikelihood(const bgl::phylo::Tree& tree) override {
    const auto t0 = Clock::now();
    const double logL = inner_->logLikelihood(tree);
    const double s = secondsSince(t0);
    sink_->seconds.push_back(s);
    sink_->total += s;
    return logL;
  }
  std::string name() const override { return inner_->name(); }
  bool timeline(double* measured, double* modeled) override {
    return inner_->timeline(measured, modeled);
  }
  void resetTimeline() override { inner_->resetTimeline(); }

 private:
  std::unique_ptr<bgl::mc3::Evaluator> inner_;
  EvalTimes* sink_;
};

struct Inputs {
  std::unique_ptr<bgl::HKY85Model> model;
  double alpha = 0.5;
  bgl::PatternSet data;
  ReferenceModel reference;
};

/// Simulated alignment on a random tree; the first kPatterns distinct
/// columns (with their multiplicities) are the data, so every seed gives
/// the same amount of work. Short trees give many constant columns, so the
/// alignment doubles until it holds kPatterns distinct ones.
Inputs makeInputs(std::uint64_t seed) {
  bgl::Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  Inputs in;
  std::vector<double> freqs(4);
  rng.dirichlet(20.0, 4, freqs.data());
  in.model = std::make_unique<bgl::HKY85Model>(rng.uniform(2.0, 6.0), freqs);
  in.alpha = rng.uniform(0.3, 1.2);
  const auto rates = bgl::discreteGammaRates(in.alpha, kCategories);
  const auto truth = bgl::phylo::Tree::random(kTaxa, rng, 0.06);
  bgl::PatternSet all;
  for (int sites = kSimulatedSites; all.patterns < kPatterns; sites *= 2) {
    std::vector<double> siteRates(static_cast<std::size_t>(sites));
    for (double& r : siteRates) r = rates[static_cast<std::size_t>(rng.belowInt(kCategories))];
    const auto columns =
        bgl::phylo::simulateAlignment(truth, *in.model, sites, rng, siteRates);
    all = bgl::compressPatterns(columns, kTaxa, sites);
    in.data.originalSites = sites;
  }
  in.data.taxa = kTaxa;
  in.data.patterns = kPatterns;
  in.data.weights.assign(all.weights.begin(), all.weights.begin() + kPatterns);
  in.data.states.resize(static_cast<std::size_t>(kTaxa) * kPatterns);
  for (int t = 0; t < kTaxa; ++t) {
    for (int k = 0; k < kPatterns; ++k) {
      in.data.states[static_cast<std::size_t>(t) * kPatterns + k] = all.at(t, k);
    }
  }
  in.reference = referenceModel(*in.model, rates,
                                std::vector<double>(kCategories, 1.0 / kCategories));
  return in;
}

struct Phase {
  std::vector<double> evalsPerSecond;  ///< one per round
  std::vector<double> evalSeconds;
  double wall = 0.0;                   ///< summed round wall time
  double evalTotal = 0.0;
  LayerDelta delta;
};

}  // namespace

Result runMc3Dna(const RunConfig& config) {
  Result result;
  const Inputs in = makeInputs(config.seed);
  EvalTimes times;

  bgl::phylo::LikelihoodOptions likeOptions;
  likeOptions.requirementFlags = kHostSerialAvx;
  likeOptions.categories = kCategories;
  likeOptions.alpha = in.alpha;
  const bgl::mc3::EvaluatorFactory library = bgl::mc3::makeBglFactory(likeOptions);
  const bgl::mc3::EvaluatorFactory factory =
      [&](const bgl::PatternSet& data, const bgl::SubstitutionModel& model) {
        return std::make_unique<TimedEvaluator>(library(data, model), &times);
      };

  bgl::mc3::Mc3Options options;
  options.chains = kChains;
  options.generations = kGenerationsPerRound;
  options.seed = static_cast<unsigned>(config.seed);
  options.parallelChains = false;

  std::unique_ptr<bgl::mc3::Mc3Sampler> sampler;
  std::vector<double> firstEvalTimes;
  // A set-up: 4 instances created, data and model loaded. The sampler's
  // constructor also makes each chain's first evaluation; their time swings
  // from run to run far more than the set-up proper, so it is taken out and
  // kept in the run record.
  const auto setUp = [&] {
    sampler.reset();
    times.seconds.clear();
    times.total = 0.0;
    const auto t0 = Clock::now();
    sampler = std::make_unique<bgl::mc3::Mc3Sampler>(in.data, *in.model, options,
                                                     factory);
    const double seconds = secondsSince(t0);
    firstEvalTimes.push_back(times.total);
    return seconds - times.total;
  };

  long proposed = 0, accepted = 0;
  const auto runPhase = [&](double seconds, SetupSchedule& schedule) {
    Phase phase;
    const ProcessSnapshot before = ProcessSnapshot::take();
    const auto start = Clock::now();
    for (double elapsed = 0.0; elapsed < seconds; elapsed = secondsSince(start)) {
      if (schedule.due(elapsed)) {
        schedule.times.push_back(setUp());
        result.sampleThreads();
      }
      times.seconds.clear();
      times.total = 0.0;
      const auto t0 = Clock::now();
      const bgl::mc3::Mc3Result r = sampler->run();
      const double wall = secondsSince(t0);
      const double evals = static_cast<double>(times.seconds.size());
      phase.evalsPerSecond.push_back(evals / wall);
      phase.evalSeconds.insert(phase.evalSeconds.end(), times.seconds.begin(),
                               times.seconds.end());
      phase.wall += wall;
      phase.evalTotal += times.total;
      result.attempted += times.seconds.size();
      proposed = r.proposed;
      accepted = r.accepted;
      result.info["implementation"] = r.evaluatorName;

      // Checks, outside the timed round.
      const double ref = referenceLogLikelihood(
          in.reference, referenceTree(r.mapTree), in.data.states.data(),
          in.data.weights.data(), kPatterns);
      if (!closeRelative(r.bestLogL, ref, 1e-9)) {
        result.fail("mc3-dna: bestLogL " + std::to_string(r.bestLogL) +
                    " vs reference " + std::to_string(ref) + " on the MAP tree");
      }
      for (double v : r.coldTrace) {
        if (!std::isfinite(v)) {
          result.fail("mc3-dna: non-finite cold-chain log-likelihood");
          break;
        }
      }
      if (static_cast<long>(times.seconds.size()) !=
          static_cast<long>(kChains) * kGenerationsPerRound) {
        result.fail("mc3-dna: unexpected evaluation count per round");
      }
      result.sampleThreads();
    }
    phase.delta = LayerDelta::between(before, ProcessSnapshot::take());
    return phase;
  };

  const double perEvalPartialsFlops =
      bgl::kernels::partialsFlops(kPatterns, kCategories, 4);
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
  } else {
    SetupSchedule first(1, 0.0), none(0, 0.0);
    const Phase plain = runPhase(config.seconds / 2, first);
    Phase traced;
    {
      const SpanTiming timing(config.outDir + "/mc3-dna.metrics.jsonl");
      traced = runPhase(config.seconds / 2, none);
    }
    const double evals = static_cast<double>(traced.evalSeconds.size());
    const double gens = evals / kChains;
    const LayerDelta& d = traced.delta;
    auto& m = result.metrics;
    m["mc3.generations_per_s"] = roundRate(plain.evalsPerSecond) / kChains;
    m["mc3.self_ms_per_gen"] = (traced.wall - traced.evalTotal) / gens * 1e3;
    m["phylo.eval_ms"] = summarize(traced.evalSeconds).median * 1e3;
    m["phylo.eval_p90_ms"] = quantile(traced.evalSeconds, 0.9) * 1e3;
    m["phylo.self_ms_per_eval"] = (traced.evalTotal - d.apiSeconds()) / evals * 1e3;
    m["phylo.partials_ops_per_eval"] = d.partialsOps / evals;
    m["phylo.matrices_per_eval"] = d.matrices / evals;
    m["api.partials_ms_per_eval"] = d.partialsSeconds / evals * 1e3;
    m["api.matrices_ms_per_eval"] = d.matricesSeconds / evals * 1e3;
    m["api.root_ms_per_eval"] = d.rootSeconds / evals * 1e3;
    m["cpu.partials_gflops"] =
        d.partialsOps * perEvalPartialsFlops / d.partialsSeconds / 1e9;
    m["accel.launches_per_eval"] = d.launches / evals;
    m["accel.bytes_copied_per_eval"] = d.bytes / evals;
    m["obs.traced_slowdown"] = roundRate(plain.evalsPerSecond) / roundRate(traced.evalsPerSecond);
    m["layers.accounted_share"] = d.apiSeconds() / traced.wall;
    result.idle(kServeLayer);
    result.idle({"kernels.partials_gflops", "hal.queue_wait_ms_per_eval",
                 "perfmodel.modeled_evals_per_s"});
    result.sample("traced.eval_ms", traced.evalSeconds);
  }
  const double acceptance =
      proposed > 0 ? static_cast<double>(accepted) / static_cast<double>(proposed) : 0.0;
  if (!(acceptance > 0.0 && acceptance < 1.0)) {
    result.fail("mc3-dna: acceptance " + std::to_string(acceptance) + " outside (0, 1)");
  }
  result.info["acceptance"] = std::to_string(acceptance);
  result.info["taxa"] = std::to_string(kTaxa);
  result.info["patterns"] = std::to_string(kPatterns);
  return result;
}

}  // namespace perfbench
