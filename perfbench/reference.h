// Independent reference log-likelihood: plain Felsenstein pruning in
// double precision, written from the textbook recurrence and sharing no
// code with the library's implementations. Every workload checks the
// library's answers against it.
#pragma once

#include <vector>

namespace bgl {
class SubstitutionModel;
namespace phylo {
class Tree;
}
}  // namespace bgl

namespace perfbench {

/// Everything the benchmark hands the library about one model: the
/// eigensystem of the rate matrix (row-major Q = evec * diag(eval) * ivec),
/// stationary frequencies, and the discrete rate categories.
struct ReferenceModel {
  int states = 0;
  std::vector<double> evec, ivec, eval;
  std::vector<double> frequencies;
  std::vector<double> categoryRates, categoryWeights;
};

/// Rooted binary tree: a node is a tip when `taxon` >= 0; `length` is the
/// branch above the node.
struct ReferenceNode {
  int left = -1, right = -1;
  int taxon = -1;
  double length = 0.0;
};

struct ReferenceTree {
  std::vector<ReferenceNode> nodes;
  int root = -1;
};

/// The eigensystem and frequencies of `model` with the given categories.
ReferenceModel referenceModel(const bgl::SubstitutionModel& model,
                              std::vector<double> categoryRates,
                              std::vector<double> categoryWeights);

ReferenceTree referenceTree(const bgl::phylo::Tree& tree);

/// Log-likelihood of `patterns` site patterns. `tipStates` is taxa x
/// patterns row-major (compact state codes; codes outside [0, states) read
/// as fully ambiguous); `patternWeights` has one weight per pattern.
/// Partials are rescaled per pattern at every internal node, so deep trees
/// do not underflow.
double referenceLogLikelihood(const ReferenceModel& model,
                              const ReferenceTree& tree, const int* tipStates,
                              const double* patternWeights, int patterns);

/// |a - b| <= tolerance * |b|.
inline bool closeRelative(double a, double b, double tolerance) {
  const double scale = b < 0 ? -b : b;
  const double diff = a > b ? a - b : b - a;
  return diff <= tolerance * scale;
}

}  // namespace perfbench
