#include "provisioning/resource_provisioner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

namespace ires {

namespace {

Resources Decode(const Vector& genes, bool centralized,
                 const NsgaResourceProvisioner::Limits& limits) {
  Resources r;
  r.containers = centralized
                     ? 1
                     : std::clamp(static_cast<int>(std::lround(genes[0])), 1,
                                  limits.max_containers);
  r.cores = std::clamp(static_cast<int>(std::lround(genes[1])), 1,
                       limits.max_cores_per_container);
  r.memory_gb = std::clamp(genes[2], 0.5, limits.max_memory_gb_per_container);
  return r;
}

}  // namespace

bool NsgaResourceProvisioner::Key::operator<(const Key& other) const {
  return std::tie(calibration, algorithm, input_bytes, input_records,
                  params) < std::tie(other.calibration, other.algorithm,
                                     other.input_bytes, other.input_records,
                                     other.params);
}

NsgaResourceProvisioner::NsgaResourceProvisioner(Limits limits,
                                                 Nsga2::Options ga,
                                                 MetricsRegistry* metrics)
    : limits_(limits), ga_(ga) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  const std::string help = "Provisioning Pareto-front lookups by outcome.";
  hits_ = metrics->GetCounter("ires_provisioner_fronts_total", help,
                              {{"outcome", "hit"}});
  computed_ = metrics->GetCounter("ires_provisioner_fronts_total", help,
                                  {{"outcome", "computed"}});
}

NsgaResourceProvisioner::ParetoFront NsgaResourceProvisioner::Compute(
    const SimulatedEngine& engine, const OperatorRunRequest& request) const {
  const bool centralized = engine.kind() == EngineKind::kCentralized;
  const std::vector<std::pair<double, double>> bounds = {
      {1.0, static_cast<double>(limits_.max_containers)},
      {1.0, static_cast<double>(limits_.max_cores_per_container)},
      {0.5, limits_.max_memory_gb_per_container},
  };

  // The GA evaluates serially, so one probe request serves every call.
  OperatorRunRequest probe = request;
  auto evaluate = [&](const Vector& genes) -> Vector {
    probe.resources = Decode(genes, centralized, limits_);
    auto estimate = engine.Estimate(probe);
    if (!estimate.ok()) {
      // Infeasible allocation: push it to the far corner of both objectives.
      return {1e12, 1e12};
    }
    return {estimate.value().exec_seconds, estimate.value().cost};
  };

  ParetoFront front;
  for (const Nsga2::Individual& ind : Nsga2(ga_).Optimize(bounds, evaluate)) {
    if (ind.objectives[0] >= 1e12) continue;  // infeasible sentinel
    FrontPoint point;
    point.resources = Decode(ind.genes, centralized, limits_);
    point.seconds = ind.objectives[0];
    point.cost = ind.objectives[1];
    front.push_back(point);
  }
  return front;
}

std::shared_ptr<const NsgaResourceProvisioner::ParetoFront>
NsgaResourceProvisioner::Front(const SimulatedEngine& engine,
                               const OperatorRunRequest& request) {
  Key key{engine.calibration_version(), request.algorithm,
          request.input_bytes, request.input_records, request.params};
  {
    MutexLock lock(mu_);
    auto it = fronts_.find(key);
    if (it != fronts_.end()) {
      hits_->Increment();
      return it->second;
    }
  }
  computed_->Increment();
  auto front = std::make_shared<const ParetoFront>(Compute(engine, request));
  MutexLock lock(mu_);
  auto [it, inserted] = fronts_.emplace(std::move(key), std::move(front));
  if (inserted) {
    insertion_order_.push_back(it);
    if (fronts_.size() > kMemoCapacity) {
      fronts_.erase(insertion_order_.front());
      insertion_order_.pop_front();
    }
  }
  return it->second;
}

Resources NsgaResourceProvisioner::Advise(const SimulatedEngine& engine,
                                          const OperatorRunRequest& request,
                                          const OptimizationPolicy& policy) {
  const std::shared_ptr<const ParetoFront> front = Front(engine, request);
  if (front->empty()) return request.resources;  // keep the default

  switch (policy.objective) {
    case OptimizationPolicy::Objective::kMinimizeCost: {
      const auto best = std::min_element(
          front->begin(), front->end(),
          [](const FrontPoint& a, const FrontPoint& b) {
            return a.cost < b.cost;
          });
      return best->resources;
    }
    case OptimizationPolicy::Objective::kMinimizeTime: {
      // Fastest point, then the cheapest allocation within the tolerance
      // band — the model's local minima flatten out once parallelism stops
      // paying, so this lands on the knee instead of max resources.
      double best_time = std::numeric_limits<double>::infinity();
      for (const FrontPoint& p : *front) {
        best_time = std::min(best_time, p.seconds);
      }
      const double limit = best_time * (1.0 + kTimeTolerance);
      const FrontPoint* chosen = nullptr;
      for (const FrontPoint& p : *front) {
        if (p.seconds > limit) continue;
        if (chosen == nullptr || p.cost < chosen->cost) chosen = &p;
      }
      return chosen != nullptr ? chosen->resources : request.resources;
    }
    case OptimizationPolicy::Objective::kWeighted: {
      const auto best = std::min_element(
          front->begin(), front->end(),
          [&](const FrontPoint& a, const FrontPoint& b) {
            return policy.Metric(a.seconds, a.cost) <
                   policy.Metric(b.seconds, b.cost);
          });
      return best->resources;
    }
  }
  return request.resources;
}

}  // namespace ires
