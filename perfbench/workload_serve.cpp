// serve-churn: many tenants (nucleotide, plus an amino-acid shape class)
// driving the serving layer through the bglPool*/bglSession* C API from
// one client thread: online AddTaxon/SetBranch + LogLikelihood,
// eval-then-full pairs, and close/reopen churn, with the pool trimmed on
// a fixed request count. Sessions are pinned by requirement flags to the
// single-threaded vectorised host implementation.
//
// Every round replays the same seeded script from an empty pool, so the
// pool's counters and the library's operation counts repeat exactly.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/gamma.h"
#include "core/model.h"
#include "core/rng.h"
#include "kernels/workload.h"
#include "phylo/seqsim.h"
#include "reference.h"

namespace perfbench {
namespace {

// Single-threaded host implementations: the vectorised CPU-AVX one serves
// the nucleotide shape; it is nucleotide-only, so amino-acid sessions land
// on the scalar CPU-serial one.
constexpr long kHostSerial = BGL_FLAG_FRAMEWORK_CPU | BGL_FLAG_THREADING_NONE |
                             BGL_FLAG_PRECISION_DOUBLE;
constexpr int kHostResource = 0;
constexpr int kNucleotideTenants = 8;
constexpr int kAminoAcidTenants = 4;
constexpr int kLifetimesPerRound = 9;  ///< session lifetimes per tenant per round
constexpr int kBranchUpdates = 6;      ///< SetBranch + LogLikelihood per lifetime
constexpr int kTrimEvery = 1000;       ///< requests between bglPoolTrim(0) ticks
constexpr int kSetupTaxa = 4;
constexpr int kTaxaTargets[] = {6, 12, 20};  ///< tip-capacity buckets 8, 16, 32
constexpr int kMinTipCapacity = 8;
constexpr std::uint64_t kShapeSeed = 0x5EED5EED;

struct Shape {
  const char* name;
  int states, patterns, categories;
};
constexpr Shape kNucleotide = {"nt", 4, 256, 4};
constexpr Shape kAminoAcid = {"aa", 20, 64, 2};

struct Tenant {
  std::string name;
  Shape shape;
  std::unique_ptr<bgl::SubstitutionModel> model;
  bgl::EigenSystem eigen;
  std::vector<double> categoryWeights, categoryRates, patternWeights;
  ReferenceModel reference;
};

/// One session lifetime's seeded content.
struct Lifetime {
  std::vector<int> states;  ///< taxa x patterns
  std::vector<double> attach, distal, pendant;  ///< per added taxon
  std::vector<double> branchNode, branchLength;  ///< per SetBranch
};

enum class Kind { Open, SetModel, AddTaxon, SetBranch, Eval, Full, Close };

struct Request {
  Kind kind;
  int tenant;
  int lifetime;  ///< index into the script's lifetimes
  int index;     ///< taxon or branch-update index within the lifetime
};

/// The benchmark's own copy of a session's tree, maintained with the
/// documented bglSessionAddTaxon edge-split rule, plus the dirty marks the
/// session keeps so the expected partials-operation count is known.
struct Mirror {
  struct Node {
    int parent = -1;
    int child[2] = {-1, -1};
    double branch = 0.0;
    int taxon = -1;
    bool dirty = false;
  };
  std::vector<Node> nodes;
  int root = -1;
  int taxa = 0;
  int capacity = kMinTipCapacity;

  void markPath(int n) {
    for (; n != -1; n = nodes[static_cast<std::size_t>(n)].parent) {
      if (nodes[static_cast<std::size_t>(n)].taxon < 0) nodes[static_cast<std::size_t>(n)].dirty = true;
    }
  }
  void markAll() {
    for (Node& node : nodes) node.dirty = node.taxon < 0;
  }
  int addTaxon(int attach, double distal, double pendant) {
    const int taxon = taxa++;
    if (taxa > capacity) {
      while (capacity < taxa) capacity *= 2;
      markAll();  // a grow-on-demand reinit replays the whole tree
    }
    Node tip;
    tip.taxon = taxon;
    nodes.push_back(tip);
    const int tipNode = static_cast<int>(nodes.size()) - 1;
    if (taxon == 0) {
      root = tipNode;
      return tipNode;
    }
    Node join;
    const int j = tipNode + 1;
    if (taxon == 1 || attach == root) {
      const int below = taxon == 1 ? root : attach;
      join.child[0] = below;
      join.child[1] = tipNode;
      nodes.push_back(join);
      nodes[static_cast<std::size_t>(below)].parent = j;
      nodes[static_cast<std::size_t>(below)].branch = distal;
      root = j;
    } else {
      Node& a = nodes[static_cast<std::size_t>(attach)];
      const int parent = a.parent;
      join.parent = parent;
      join.branch = std::max(a.branch - distal, 0.0);
      join.child[0] = attach;
      join.child[1] = tipNode;
      Node& p = nodes[static_cast<std::size_t>(parent)];
      (p.child[0] == attach ? p.child[0] : p.child[1]) = j;
      a.parent = j;
      a.branch = distal;
      nodes.push_back(join);
    }
    nodes[static_cast<std::size_t>(tipNode)].parent = j;
    nodes[static_cast<std::size_t>(tipNode)].branch = pendant;
    markPath(j);
    return tipNode;
  }
  /// Partials operations the next evaluation issues; clears the marks.
  int takeDirty() {
    int n = 0;
    for (Node& node : nodes) {
      n += node.dirty ? 1 : 0;
      node.dirty = false;
    }
    return n;
  }
  ReferenceTree referenceTree() const {
    ReferenceTree t;
    for (const Node& n : nodes) {
      ReferenceNode r;
      r.left = n.child[0];
      r.right = n.child[1];
      r.taxon = n.taxon;
      r.length = n.branch;
      t.nodes.push_back(r);
    }
    t.root = root;
    return t;
  }
};

struct Inputs {
  std::vector<Tenant> tenants;
  std::vector<Lifetime> lifetimes;
  std::vector<Request> script;      ///< one round, tenants interleaved
  std::vector<Lifetime> setupData;  ///< one per tenant, kSetupTaxa taxa
};

/// `shape` draws where taxa attach and which branches change, from one
/// fixed seed, so every run seed dirties the same paths and does the same
/// work; `rng` draws the data and branch lengths.
Lifetime makeLifetime(const Tenant& tenant, int taxa, bgl::Rng& rng, bgl::Rng& shape) {
  Lifetime life;
  const auto tree = bgl::phylo::Tree::random(taxa, rng, 0.1);
  const int patterns = tenant.shape.patterns;
  const auto sites = bgl::phylo::simulateAlignment(tree, *tenant.model, patterns, rng);
  life.states = sites;
  for (int t = 0; t < taxa; ++t) {
    life.attach.push_back(shape.uniform());
    life.distal.push_back(rng.uniform(0.01, 0.1));
    life.pendant.push_back(rng.uniform(0.02, 0.3));
  }
  for (int b = 0; b <= kBranchUpdates; ++b) {
    life.branchNode.push_back(shape.uniform());
    life.branchLength.push_back(rng.uniform(0.01, 0.4));
  }
  return life;
}

Inputs makeInputs(std::uint64_t seed) {
  bgl::Rng rng(seed * 0x9E3779B97F4A7C15ull + 37);
  bgl::Rng shape(kShapeSeed);
  Inputs in;
  for (int t = 0; t < kNucleotideTenants + kAminoAcidTenants; ++t) {
    Tenant tenant;
    const bool nucleotide = t < kNucleotideTenants;
    tenant.shape = nucleotide ? kNucleotide : kAminoAcid;
    tenant.name = std::string(tenant.shape.name) + "-" + std::to_string(t);
    if (nucleotide) {
      std::vector<double> freqs(4);
      rng.dirichlet(20.0, 4, freqs.data());
      tenant.model = std::make_unique<bgl::HKY85Model>(rng.uniform(2.0, 6.0), freqs);
    } else {
      tenant.model = std::make_unique<bgl::AminoAcidModel>(
          bgl::AminoAcidModel::random(rng.next()));
    }
    tenant.eigen = tenant.model->eigenSystem();
    const int c = tenant.shape.categories;
    tenant.categoryWeights.assign(static_cast<std::size_t>(c), 1.0 / c);
    tenant.categoryRates = bgl::discreteGammaRates(rng.uniform(0.3, 1.2), c);
    for (int k = 0; k < tenant.shape.patterns; ++k) {
      tenant.patternWeights.push_back(1.0 + rng.belowInt(3));
    }
    tenant.reference =
        referenceModel(*tenant.model, tenant.categoryRates, tenant.categoryWeights);
    in.tenants.push_back(std::move(tenant));
  }

  // Per-tenant request lists, then interleaved one request per tenant per
  // tick, as a server sees concurrent clients.
  const int tenants = static_cast<int>(in.tenants.size());
  std::vector<std::vector<Request>> perTenant(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    auto& list = perTenant[static_cast<std::size_t>(t)];
    for (int l = 0; l < kLifetimesPerRound; ++l) {
      const int taxa = kTaxaTargets[(t + l) % 3];
      const int id = static_cast<int>(in.lifetimes.size());
      in.lifetimes.push_back(
          makeLifetime(in.tenants[static_cast<std::size_t>(t)], taxa, rng, shape));
      list.push_back({Kind::Open, t, id, 0});
      list.push_back({Kind::SetModel, t, id, 0});
      for (int x = 0; x < taxa; ++x) {
        list.push_back({Kind::AddTaxon, t, id, x});
        if (x >= 1) list.push_back({Kind::Eval, t, id, x});
      }
      for (int b = 0; b < kBranchUpdates; ++b) {
        list.push_back({Kind::SetBranch, t, id, b});
        list.push_back({Kind::Eval, t, id, b});
      }
      list.push_back({Kind::SetBranch, t, id, kBranchUpdates});
      list.push_back({Kind::Eval, t, id, kBranchUpdates});
      list.push_back({Kind::Full, t, id, 0});
      list.push_back({Kind::Close, t, id, 0});
    }
  }
  for (std::size_t tick = 0;; ++tick) {
    bool any = false;
    for (const auto& list : perTenant) {
      if (tick < list.size()) {
        in.script.push_back(list[tick]);
        any = true;
      }
    }
    if (!any) break;
  }
  for (int t = 0; t < tenants; ++t) {
    in.setupData.push_back(
        makeLifetime(in.tenants[static_cast<std::size_t>(t)], kSetupTaxa, rng, shape));
  }
  return in;
}

[[noreturn]] void apiFailure(const char* call, int rc) {
  throw std::runtime_error(std::string("serve-churn: ") + call + " returned " +
                           std::to_string(rc) + ": " + bglGetLastErrorMessage());
}

int checked(int rc, const char* call) {
  if (rc < 0) apiFailure(call, rc);
  return rc;
}

/// Wall time of each call kind, in seconds.
struct CallTimes {
  std::vector<double> open, add, eval, full, close;
};

/// A deferred reference check: the mirror as it stood and the library's
/// answer for it.
struct Sample {
  int tenant;
  const Lifetime* lifetime;
  ReferenceTree tree;
  double logL;
};

struct TenantState {
  int session = -1;
  Mirror mirror;
  double lastEval = 0.0;
};

class Client {
 public:
  explicit Client(const Inputs& in) : in_(in), state_(in.tenants.size()) {}

  template <typename F>
  void timed(std::vector<double>& sink, F&& call) {
    const auto t0 = Clock::now();
    call();
    sink.push_back(secondsSince(t0));
  }

  void open(int tenant) {
    const Tenant& t = in_.tenants[static_cast<std::size_t>(tenant)];
    int session = -1;
    timed(times.open, [&] {
      session = bglSessionOpen(t.name.c_str(), t.shape.states, t.shape.patterns,
                               t.shape.categories, kHostResource, 0, kHostSerial);
    });
    checked(session, "bglSessionOpen");
    if (implementations.count(t.shape.name) == 0) {
      BglSessionDetails details{};
      checked(bglSessionGetDetails(session, &details), "bglSessionGetDetails");
      implementations[t.shape.name] = details.implName;
    }
    auto& st = state_[static_cast<std::size_t>(tenant)];
    st.session = session;
    st.mirror = Mirror();
  }

  void setModel(int tenant) {
    const Tenant& t = in_.tenants[static_cast<std::size_t>(tenant)];
    checked(bglSessionSetModel(state_[static_cast<std::size_t>(tenant)].session,
                               t.eigen.evec.data(), t.eigen.ivec.data(),
                               t.eigen.eval.data(), t.model->frequencies().data(),
                               t.categoryWeights.data(), t.categoryRates.data(),
                               t.patternWeights.data()),
            "bglSessionSetModel");
    state_[static_cast<std::size_t>(tenant)].mirror.markAll();
  }

  void addTaxon(int tenant, const Lifetime& life, int x) {
    auto& st = state_[static_cast<std::size_t>(tenant)];
    const int patterns = in_.tenants[static_cast<std::size_t>(tenant)].shape.patterns;
    const int nodes = static_cast<int>(st.mirror.nodes.size());
    const int attach = std::max(
        0, std::min(nodes - 1, static_cast<int>(life.attach[static_cast<std::size_t>(x)] * nodes)));
    const double distal = life.distal[static_cast<std::size_t>(x)];
    const double pendant = life.pendant[static_cast<std::size_t>(x)];
    int node = -1;
    timed(times.add, [&] {
      node = bglSessionAddTaxon(st.session,
                                life.states.data() + static_cast<std::size_t>(x) * patterns,
                                attach, distal, pendant);
    });
    checked(node, "bglSessionAddTaxon");
    const int expected = st.mirror.addTaxon(attach, distal, pendant);
    if (node != expected) {
      throw std::runtime_error("serve-churn: bglSessionAddTaxon returned node " +
                               std::to_string(node) + ", the edge-split rule gives " +
                               std::to_string(expected));
    }
  }

  void setBranch(int tenant, const Lifetime& life, int b) {
    auto& st = state_[static_cast<std::size_t>(tenant)];
    // Any node but the root has a branch above it.
    const int nodes = static_cast<int>(st.mirror.nodes.size());
    int node = std::min(nodes - 2,
                        static_cast<int>(life.branchNode[static_cast<std::size_t>(b)] * (nodes - 1)));
    if (node >= st.mirror.root) ++node;
    const double length = life.branchLength[static_cast<std::size_t>(b)];
    checked(bglSessionSetBranch(st.session, node, length), "bglSessionSetBranch");
    st.mirror.nodes[static_cast<std::size_t>(node)].branch = length;
    st.mirror.markPath(st.mirror.nodes[static_cast<std::size_t>(node)].parent);
  }

  void eval(int tenant) {
    auto& st = state_[static_cast<std::size_t>(tenant)];
    int rc = 0;
    timed(times.eval, [&] { rc = bglSessionLogLikelihood(st.session, &st.lastEval); });
    checked(rc, "bglSessionLogLikelihood");
    countDirty(tenant);
  }

  void full(int tenant, const Lifetime& life) {
    auto& st = state_[static_cast<std::size_t>(tenant)];
    double logL = 0.0;
    int rc = 0;
    timed(times.full, [&] { rc = bglSessionFullLogLikelihood(st.session, &logL); });
    checked(rc, "bglSessionFullLogLikelihood");
    st.mirror.markAll();
    countDirty(tenant);
    if (logL != st.lastEval) {
      mismatches.push_back("serve-churn: tenant " + std::to_string(tenant) +
                           " online logL " + std::to_string(st.lastEval) +
                           " != full recompute " + std::to_string(logL));
    }
    samples.push_back({tenant, &life, st.mirror.referenceTree(), logL});
  }

  void close(int tenant) {
    auto& st = state_[static_cast<std::size_t>(tenant)];
    int rc = 0;
    timed(times.close, [&] { rc = bglSessionClose(st.session); });
    checked(rc, "bglSessionClose");
    st.session = -1;
  }

  /// Execute one request; returns the evaluations it made.
  int execute(const Request& r) {
    const Lifetime& life = in_.lifetimes[static_cast<std::size_t>(r.lifetime)];
    switch (r.kind) {
      case Kind::Open: open(r.tenant); return 0;
      case Kind::SetModel: setModel(r.tenant); return 0;
      case Kind::AddTaxon: addTaxon(r.tenant, life, r.index); return 0;
      case Kind::SetBranch: setBranch(r.tenant, life, r.index); return 0;
      case Kind::Eval: eval(r.tenant); return 1;
      case Kind::Full: full(r.tenant, life); return 1;
      case Kind::Close: close(r.tenant); return 0;
    }
    return 0;
  }

  CallTimes times;
  std::map<std::string, std::string> implementations;  ///< by shape class
  std::vector<Sample> samples;
  std::vector<std::string> mismatches;
  double expectedOps = 0.0;    ///< partials operations the dirty marks call for
  double expectedFlops = 0.0;  ///< their effective partials FLOPs

 private:
  void countDirty(int tenant) {
    const Shape& s = in_.tenants[static_cast<std::size_t>(tenant)].shape;
    const int ops = state_[static_cast<std::size_t>(tenant)].mirror.takeDirty();
    expectedOps += ops;
    expectedFlops += ops * bgl::kernels::partialsFlops(s.patterns, s.categories, s.states);
  }

  const Inputs& in_;
  std::vector<TenantState> state_;
};

struct Phase {
  std::vector<double> evalsPerSecond, requestsPerSecond;  ///< one per round
  CallTimes times;
  double wall = 0.0;
  double evals = 0.0;
  double expectedFlops = 0.0;
  long rounds = 0;
  LayerDelta delta;
  BglPoolStatistics poolBefore{}, poolAfter{};
};

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

Result runServeChurn(const RunConfig& config) {
  Result result;
  const Inputs in = makeInputs(config.seed);
  BglPoolConfig pool{};
  pool.maxSessions = 64;
  pool.maxSessionsPerTenant = 8;
  // Eviction only by the explicit trim ticks, never by idle time, so pool
  // counters do not depend on how fast a round ran.
  pool.idleEvictMs = 3600 * 1000;
  checked(bglPoolConfigure(&pool), "bglPoolConfigure");
  const int tenants = static_cast<int>(in.tenants.size());

  // A set-up: every tenant's session opened, its model set, kSetupTaxa
  // taxa added and one evaluation, whose time is taken out as on the other
  // workloads and kept in the run record; then, untimed, closed and the
  // pool emptied, so rounds start from the same state. Returns the seconds
  // and adds the partials operations the evaluations call for.
  std::vector<double> firstEvalTimes;
  const auto setUp = [&](double& expectedOps) {
    Client client(in);
    const auto t0 = Clock::now();
    for (int t = 0; t < tenants; ++t) {
      const Lifetime& life = in.setupData[static_cast<std::size_t>(t)];
      client.open(t);
      client.setModel(t);
      for (int x = 0; x < kSetupTaxa; ++x) client.addTaxon(t, life, x);
      client.eval(t);
    }
    double evalSeconds = 0.0;
    for (double v : client.times.eval) evalSeconds += v;
    const double seconds = secondsSince(t0) - evalSeconds;
    firstEvalTimes.push_back(evalSeconds);
    result.sampleThreads();
    for (const auto& [shape, impl] : client.implementations) {
      result.info["implementation." + shape] = impl;
    }
    for (int t = 0; t < tenants; ++t) client.close(t);
    bglPoolTrim(0);
    expectedOps += client.expectedOps;
    return seconds;
  };

  const auto runPhase = [&](double seconds, SetupSchedule& schedule) {
    Phase phase;
    bglPoolGetStatistics(&phase.poolBefore);
    const ProcessSnapshot before = ProcessSnapshot::take();
    double expectedOps = 0.0;
    const auto start = Clock::now();
    for (double elapsed = 0.0; elapsed < seconds; elapsed = secondsSince(start)) {
      if (schedule.due(elapsed)) schedule.times.push_back(setUp(expectedOps));
      Client client(in);
      int evals = 0;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < in.script.size(); ++i) {
        evals += client.execute(in.script[i]);
        if ((i + 1) % kTrimEvery == 0) bglPoolTrim(0);
      }
      bglPoolTrim(0);
      const double wall = secondsSince(t0);
      phase.evalsPerSecond.push_back(evals / wall);
      phase.requestsPerSecond.push_back(static_cast<double>(in.script.size()) / wall);
      phase.wall += wall;
      phase.evals += evals;
      phase.expectedFlops += client.expectedFlops;
      expectedOps += client.expectedOps;
      ++phase.rounds;
      result.attempted += in.script.size();
      append(phase.times.open, client.times.open);
      append(phase.times.add, client.times.add);
      append(phase.times.eval, client.times.eval);
      append(phase.times.full, client.times.full);
      append(phase.times.close, client.times.close);

      // Checks, outside the timed round.
      for (const std::string& m : client.mismatches) result.fail(m);
      for (const Sample& s : client.samples) {
        const Tenant& t = in.tenants[static_cast<std::size_t>(s.tenant)];
        const double ref = referenceLogLikelihood(t.reference, s.tree,
                                                  s.lifetime->states.data(),
                                                  t.patternWeights.data(),
                                                  t.shape.patterns);
        if (!closeRelative(s.logL, ref, 1e-9)) {
          result.fail("serve-churn: tenant " + t.name + " logL " +
                      std::to_string(s.logL) + " vs reference " + std::to_string(ref));
        }
      }
      result.sampleThreads();
    }
    phase.delta = LayerDelta::between(before, ProcessSnapshot::take());
    bglPoolGetStatistics(&phase.poolAfter);
    if (phase.delta.partialsOps != expectedOps) {
      result.fail("serve-churn: library ran " + std::to_string(phase.delta.partialsOps) +
                  " partials operations, the dirty paths call for " +
                  std::to_string(expectedOps));
    }
    return phase;
  };

  if (!config.trace) {
    SetupSchedule setups(kSetups, config.seconds);
    const Phase p = runPhase(config.seconds, setups);
    result.metrics["setup_s"] = summarize(setups.times).median;
    result.metrics["evals_per_s"] = roundRate(p.evalsPerSecond);
    result.metrics["eval_p50_ms"] = windowLatency(p.times.eval) * 1e3;
    result.sample("setup_s", setups.times);
    result.sample("setup.first_eval_s", firstEvalTimes);
    result.sample("evals_per_s", p.evalsPerSecond);
    result.sample("requests_per_s", p.requestsPerSecond);
    result.sample("eval_ms", p.times.eval);
  } else {
    SetupSchedule none(0, 0.0);
    const Phase plain = runPhase(config.seconds / 2, none);
    Phase traced;
    {
      const SpanTiming timing(config.outDir + "/serve-churn.metrics.jsonl");
      traced = runPhase(config.seconds / 2, none);
    }
    const LayerDelta& d = traced.delta;
    const double evals = traced.evals;
    double evalTotal = 0.0;
    for (double v : traced.times.eval) evalTotal += v;
    for (double v : traced.times.full) evalTotal += v;
    const auto& a = traced.poolBefore;
    const auto& b = traced.poolAfter;
    const double created = static_cast<double>(b.instancesCreated - a.instancesCreated);
    const double recycled = static_cast<double>(b.instancesRecycled - a.instancesRecycled);
    const double rounds = static_cast<double>(traced.rounds);
    auto& m = result.metrics;
    m["serve.requests_per_s"] = roundRate(plain.requestsPerSecond);
    m["phylo.eval_ms"] = summarize(traced.times.eval).median * 1e3;
    m["phylo.eval_p90_ms"] = quantile(traced.times.eval, 0.9) * 1e3;
    m["phylo.self_ms_per_eval"] = (evalTotal - d.apiSeconds()) / evals * 1e3;
    m["phylo.partials_ops_per_eval"] = d.partialsOps / evals;
    m["phylo.matrices_per_eval"] = d.matrices / evals;
    m["api.partials_ms_per_eval"] = d.partialsSeconds / evals * 1e3;
    m["api.matrices_ms_per_eval"] = d.matricesSeconds / evals * 1e3;
    m["api.root_ms_per_eval"] = d.rootSeconds / evals * 1e3;
    m["cpu.partials_gflops"] = traced.expectedFlops / d.partialsSeconds / 1e9;
    m["accel.launches_per_eval"] = d.launches / evals;
    m["accel.bytes_copied_per_eval"] = d.bytes / evals;
    m["serve.open_ms"] = summarize(traced.times.open).median * 1e3;
    m["serve.add_ms"] = summarize(traced.times.add).median * 1e3;
    m["serve.full_ms"] = summarize(traced.times.full).median * 1e3;
    m["serve.close_ms"] = summarize(traced.times.close).median * 1e3;
    m["serve.recycle_ratio"] = recycled / (created + recycled);
    m["serve.instances_created"] = created / rounds;
    m["serve.reinit_grows"] = static_cast<double>(b.reinitGrows - a.reinitGrows) / rounds;
    m["obs.traced_slowdown"] = roundRate(plain.evalsPerSecond) / roundRate(traced.evalsPerSecond);
    m["layers.accounted_share"] = d.apiSeconds() / traced.wall;
    result.idle(kMc3Layer);
    result.idle({"kernels.partials_gflops", "hal.queue_wait_ms_per_eval",
                 "perfmodel.modeled_evals_per_s"});
    result.sample("traced.eval_ms", traced.times.eval);
  }
  result.info["tenants"] = std::to_string(tenants);
  result.info["requests_per_round"] = std::to_string(in.script.size());
  BglPoolStatistics end{};
  bglPoolGetStatistics(&end);
  result.info["pool_instances_created"] = std::to_string(end.instancesCreated);
  result.info["pool_instances_recycled"] = std::to_string(end.instancesRecycled);
  return result;
}

}  // namespace perfbench
