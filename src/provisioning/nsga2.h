#ifndef IRES_PROVISIONING_NSGA2_H_
#define IRES_PROVISIONING_NSGA2_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "modeling/linalg.h"

namespace ires {

/// NSGA-II (Deb et al. 2002): the elitist multi-objective genetic algorithm
/// the IReS resource-provisioning module builds on (deliverable §2.2.4, via
/// the MOEA framework). All objectives are minimized. Real-coded genes with
/// simulated binary crossover (SBX) and polynomial mutation.
class Nsga2 {
 public:
  struct Options {
    int population = 40;
    int generations = 60;
    double crossover_probability = 0.9;
    /// Per-gene mutation probability; <0 = 1/num_genes.
    double mutation_probability = -1.0;
    double sbx_eta = 15.0;        // SBX distribution index
    double mutation_eta = 20.0;   // polynomial mutation index
    uint64_t seed = 2002;
  };

  struct Individual {
    Vector genes;
    Vector objectives;
    int rank = 0;
    double crowding = 0.0;
  };

  /// Objective function: genes -> objective vector (all minimized). Must
  /// return the same arity for every input.
  using Evaluate = std::function<Vector(const Vector&)>;

  Nsga2() = default;
  explicit Nsga2(Options options) : options_(options) {}

  /// Runs the GA over box-bounded genes and returns the final population's
  /// first non-dominated front, sorted by the first objective. Everything
  /// runs on the calling thread, and the RNG is reseeded from
  /// `options.seed` on every call, so the front is a pure function of the
  /// bounds and the objective.
  std::vector<Individual> Optimize(
      const std::vector<std::pair<double, double>>& bounds,
      const Evaluate& evaluate) const;

  /// True when `a` Pareto-dominates `b` (<= everywhere, < somewhere).
  static bool Dominates(const Vector& a, const Vector& b);

  /// Fast non-dominated sort: assigns ranks (0 = best front) and returns the
  /// fronts as index lists.
  static std::vector<std::vector<int>> NonDominatedSort(
      std::vector<Individual>* population);

  /// Crowding-distance assignment within one front.
  static void AssignCrowding(std::vector<Individual>* population,
                             const std::vector<int>& front);

 private:
  Options options_;
};

}  // namespace ires

#endif  // IRES_PROVISIONING_NSGA2_H_
