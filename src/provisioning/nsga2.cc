#include "provisioning/nsga2.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ires {

bool Nsga2::Dominates(const Vector& a, const Vector& b) {
  bool strictly_better = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

std::vector<std::vector<int>> Nsga2::NonDominatedSort(
    std::vector<Individual>* population) {
  const int n = static_cast<int>(population->size());
  std::vector<std::vector<int>> dominated(n);
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<int>> fronts(1);

  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      if (p == q) continue;
      if (Dominates((*population)[p].objectives, (*population)[q].objectives)) {
        dominated[p].push_back(q);
      } else if (Dominates((*population)[q].objectives,
                           (*population)[p].objectives)) {
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) {
      (*population)[p].rank = 0;
      fronts[0].push_back(p);
    }
  }
  int current = 0;
  while (!fronts[current].empty()) {
    std::vector<int> next;
    for (int p : fronts[current]) {
      for (int q : dominated[p]) {
        if (--domination_count[q] == 0) {
          (*population)[q].rank = current + 1;
          next.push_back(q);
        }
      }
    }
    ++current;
    fronts.push_back(std::move(next));
  }
  fronts.pop_back();  // the trailing empty front
  return fronts;
}

void Nsga2::AssignCrowding(std::vector<Individual>* population,
                           const std::vector<int>& front) {
  if (front.empty()) return;
  const size_t objectives = (*population)[front[0]].objectives.size();
  for (int idx : front) (*population)[idx].crowding = 0.0;
  std::vector<int> order = front;
  for (size_t m = 0; m < objectives; ++m) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return (*population)[a].objectives[m] < (*population)[b].objectives[m];
    });
    const double lo = (*population)[order.front()].objectives[m];
    const double hi = (*population)[order.back()].objectives[m];
    (*population)[order.front()].crowding =
        std::numeric_limits<double>::infinity();
    (*population)[order.back()].crowding =
        std::numeric_limits<double>::infinity();
    if (hi - lo < 1e-12) continue;
    for (size_t i = 1; i + 1 < order.size(); ++i) {
      (*population)[order[i]].crowding +=
          ((*population)[order[i + 1]].objectives[m] -
           (*population)[order[i - 1]].objectives[m]) /
          (hi - lo);
    }
  }
}

namespace {

// Binary tournament on (rank, crowding).
int Tournament(const std::vector<Nsga2::Individual>& pop, Rng* rng) {
  const int a = static_cast<int>(rng->UniformInt(0, pop.size() - 1));
  const int b = static_cast<int>(rng->UniformInt(0, pop.size() - 1));
  if (pop[a].rank != pop[b].rank) return pop[a].rank < pop[b].rank ? a : b;
  return pop[a].crowding >= pop[b].crowding ? a : b;
}

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

std::vector<Nsga2::Individual> Nsga2::Optimize(
    const std::vector<std::pair<double, double>>& bounds,
    const Evaluate& evaluate) const {
  Rng rng(options_.seed);
  const size_t genes = bounds.size();
  const double mutation_p = options_.mutation_probability > 0
                                ? options_.mutation_probability
                                : 1.0 / static_cast<double>(genes);

  auto evaluate_all = [&](std::vector<Individual>* individuals) {
    for (Individual& ind : *individuals) ind.objectives = evaluate(ind.genes);
  };

  std::vector<Individual> population;
  population.reserve(options_.population);
  for (int i = 0; i < options_.population; ++i) {
    Individual ind;
    ind.genes.resize(genes);
    for (size_t g = 0; g < genes; ++g) {
      ind.genes[g] = rng.Uniform(bounds[g].first, bounds[g].second);
    }
    population.push_back(std::move(ind));
  }
  evaluate_all(&population);
  {
    auto fronts = NonDominatedSort(&population);
    for (const auto& front : fronts) AssignCrowding(&population, front);
  }

  for (int gen = 0; gen < options_.generations; ++gen) {
    // Offspring via tournament selection + SBX + polynomial mutation.
    std::vector<Individual> offspring;
    offspring.reserve(options_.population);
    while (static_cast<int>(offspring.size()) < options_.population) {
      const Individual& p1 = population[Tournament(population, &rng)];
      const Individual& p2 = population[Tournament(population, &rng)];
      Vector c1 = p1.genes, c2 = p2.genes;
      if (rng.Bernoulli(options_.crossover_probability)) {
        for (size_t g = 0; g < genes; ++g) {
          // SBX per gene.
          const double u = rng.Uniform();
          const double beta =
              u <= 0.5 ? std::pow(2.0 * u, 1.0 / (options_.sbx_eta + 1.0))
                       : std::pow(1.0 / (2.0 * (1.0 - u)),
                                  1.0 / (options_.sbx_eta + 1.0));
          const double x1 = p1.genes[g], x2 = p2.genes[g];
          c1[g] = Clamp(0.5 * ((1 + beta) * x1 + (1 - beta) * x2),
                        bounds[g].first, bounds[g].second);
          c2[g] = Clamp(0.5 * ((1 - beta) * x1 + (1 + beta) * x2),
                        bounds[g].first, bounds[g].second);
        }
      }
      for (Vector* child : {&c1, &c2}) {
        for (size_t g = 0; g < genes; ++g) {
          if (!rng.Bernoulli(mutation_p)) continue;
          const double u = rng.Uniform();
          const double span = bounds[g].second - bounds[g].first;
          const double delta =
              u < 0.5
                  ? std::pow(2.0 * u, 1.0 / (options_.mutation_eta + 1.0)) - 1.0
                  : 1.0 - std::pow(2.0 * (1.0 - u),
                                   1.0 / (options_.mutation_eta + 1.0));
          (*child)[g] = Clamp((*child)[g] + delta * span, bounds[g].first,
                              bounds[g].second);
        }
        Individual ind;
        ind.genes = *child;
        offspring.push_back(std::move(ind));
        if (static_cast<int>(offspring.size()) >= options_.population) break;
      }
    }
    evaluate_all(&offspring);

    // Elitist environmental selection over parents + offspring.
    std::vector<Individual> combined = std::move(population);
    combined.insert(combined.end(),
                    std::make_move_iterator(offspring.begin()),
                    std::make_move_iterator(offspring.end()));
    auto fronts = NonDominatedSort(&combined);
    for (const auto& front : fronts) AssignCrowding(&combined, front);

    population.clear();
    for (const auto& front : fronts) {
      if (static_cast<int>(population.size() + front.size()) <=
          options_.population) {
        for (int idx : front) population.push_back(combined[idx]);
      } else {
        std::vector<int> sorted = front;
        std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
          return combined[a].crowding > combined[b].crowding;
        });
        for (int idx : sorted) {
          if (static_cast<int>(population.size()) >= options_.population) {
            break;
          }
          population.push_back(combined[idx]);
        }
      }
      if (static_cast<int>(population.size()) >= options_.population) break;
    }
  }

  // Final first front.
  auto fronts = NonDominatedSort(&population);
  std::vector<Individual> front;
  for (int idx : fronts[0]) front.push_back(population[idx]);
  std::sort(front.begin(), front.end(),
            [](const Individual& a, const Individual& b) {
              return a.objectives[0] < b.objectives[0];
            });
  return front;
}

}  // namespace ires
