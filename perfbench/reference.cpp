#include "reference.h"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "core/model.h"
#include "phylo/tree.h"

namespace perfbench {
namespace {

/// Per-node partials: categories x patterns x states, plus the log scale
/// factor already divided out of each pattern.
struct Partials {
  std::vector<double> values;
  std::vector<double> logScale;
};

class Pruner {
 public:
  Pruner(const ReferenceModel& model, const ReferenceTree& tree,
         const int* tipStates, int patterns)
      : m_(model), t_(tree), tips_(tipStates), patterns_(patterns) {}

  Partials partials(int node) const {
    const ReferenceNode& n = t_.nodes.at(static_cast<std::size_t>(node));
    const std::size_t s = static_cast<std::size_t>(m_.states);
    const std::size_t c = m_.categoryRates.size();
    const std::size_t k = static_cast<std::size_t>(patterns_);
    Partials out;
    out.values.assign(c * k * s, 0.0);
    out.logScale.assign(k, 0.0);
    if (n.taxon >= 0) {
      const int* row = tips_ + static_cast<std::size_t>(n.taxon) * k;
      for (std::size_t cat = 0; cat < c; ++cat) {
        for (std::size_t p = 0; p < k; ++p) {
          double* v = &out.values[(cat * k + p) * s];
          const int state = row[p];
          for (std::size_t i = 0; i < s; ++i) {
            v[i] = (state < 0 || state >= m_.states)
                       ? 1.0
                       : (static_cast<int>(i) == state ? 1.0 : 0.0);
          }
        }
      }
      return out;
    }
    if (n.left < 0 || n.right < 0) {
      throw std::runtime_error("reference: internal node without two children");
    }
    const Partials a = partials(n.left);
    const Partials b = partials(n.right);
    const double la = t_.nodes[static_cast<std::size_t>(n.left)].length;
    const double lb = t_.nodes[static_cast<std::size_t>(n.right)].length;
    std::vector<double> pa, pb;
    for (std::size_t cat = 0; cat < c; ++cat) {
      transition(m_.categoryRates[cat] * la, pa);
      transition(m_.categoryRates[cat] * lb, pb);
      for (std::size_t p = 0; p < k; ++p) {
        const double* va = &a.values[(cat * k + p) * s];
        const double* vb = &b.values[(cat * k + p) * s];
        double* v = &out.values[(cat * k + p) * s];
        for (std::size_t i = 0; i < s; ++i) {
          double sa = 0.0, sb = 0.0;
          for (std::size_t j = 0; j < s; ++j) {
            sa += pa[i * s + j] * va[j];
            sb += pb[i * s + j] * vb[j];
          }
          v[i] = sa * sb;
        }
      }
    }
    for (std::size_t p = 0; p < k; ++p) {
      double peak = 0.0;
      for (std::size_t cat = 0; cat < c; ++cat) {
        for (std::size_t i = 0; i < s; ++i) {
          peak = std::fmax(peak, out.values[(cat * k + p) * s + i]);
        }
      }
      out.logScale[p] = a.logScale[p] + b.logScale[p];
      if (peak > 0.0) {
        for (std::size_t cat = 0; cat < c; ++cat) {
          for (std::size_t i = 0; i < s; ++i) out.values[(cat * k + p) * s + i] /= peak;
        }
        out.logScale[p] += std::log(peak);
      }
    }
    return out;
  }

 private:
  /// P(t) = evec * diag(exp(eval * t)) * ivec, row-major.
  void transition(double t, std::vector<double>& p) const {
    const std::size_t s = static_cast<std::size_t>(m_.states);
    p.assign(s * s, 0.0);
    std::vector<double> decay(s);
    for (std::size_t m = 0; m < s; ++m) decay[m] = std::exp(m_.eval[m] * t);
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = 0; j < s; ++j) {
        double sum = 0.0;
        for (std::size_t m = 0; m < s; ++m) {
          sum += m_.evec[i * s + m] * decay[m] * m_.ivec[m * s + j];
        }
        p[i * s + j] = sum;
      }
    }
  }

  const ReferenceModel& m_;
  const ReferenceTree& t_;
  const int* tips_;
  int patterns_;
};

}  // namespace

ReferenceModel referenceModel(const bgl::SubstitutionModel& model,
                              std::vector<double> categoryRates,
                              std::vector<double> categoryWeights) {
  const bgl::EigenSystem es = model.eigenSystem();
  ReferenceModel out;
  out.states = model.states();
  out.evec = es.evec;
  out.ivec = es.ivec;
  out.eval = es.eval;
  out.frequencies = model.frequencies();
  out.categoryRates = std::move(categoryRates);
  out.categoryWeights = std::move(categoryWeights);
  return out;
}

ReferenceTree referenceTree(const bgl::phylo::Tree& tree) {
  ReferenceTree out;
  out.nodes.resize(static_cast<std::size_t>(tree.nodeCount()));
  for (int i = 0; i < tree.nodeCount(); ++i) {
    const auto& n = tree.node(i);
    auto& r = out.nodes[static_cast<std::size_t>(i)];
    r.left = n.left;
    r.right = n.right;
    r.length = n.length;
    r.taxon = tree.isTip(i) ? i : -1;
  }
  out.root = tree.root();
  return out;
}

double referenceLogLikelihood(const ReferenceModel& model,
                              const ReferenceTree& tree, const int* tipStates,
                              const double* patternWeights, int patterns) {
  const Pruner pruner(model, tree, tipStates, patterns);
  const Partials root = pruner.partials(tree.root);
  const std::size_t s = static_cast<std::size_t>(model.states);
  const std::size_t c = model.categoryRates.size();
  const std::size_t k = static_cast<std::size_t>(patterns);
  double logL = 0.0;
  for (std::size_t p = 0; p < k; ++p) {
    double site = 0.0;
    for (std::size_t cat = 0; cat < c; ++cat) {
      double sum = 0.0;
      for (std::size_t i = 0; i < s; ++i) {
        sum += model.frequencies[i] * root.values[(cat * k + p) * s + i];
      }
      site += model.categoryWeights[cat] * sum;
    }
    logL += patternWeights[p] * (std::log(site) + root.logScale[p]);
  }
  return logL;
}

}  // namespace perfbench
