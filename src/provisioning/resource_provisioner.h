#ifndef IRES_PROVISIONING_RESOURCE_PROVISIONER_H_
#define IRES_PROVISIONING_RESOURCE_PROVISIONER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "planner/dp_planner.h"
#include "provisioning/nsga2.h"
#include "telemetry/metrics_registry.h"

namespace ires {

/// Elastic resource provisioning (deliverable §2.2.4): searches the
/// (#containers, cores/container, GB/container) space with NSGA-II over the
/// engine's cost/performance model, producing the Pareto front of
/// (execution time, execution cost) and picking the front point that best
/// serves the user policy. Centralized engines are pinned to one container.
///
/// Fronts are memoized. A front is a pure function of the engine's
/// calibration version and the request's algorithm, input sizes and params:
/// the GA reseeds its RNG on every run and its objective overwrites
/// `request.resources`. The policy only selects a point, so one front
/// serves every policy. The memo holds at most kMemoCapacity fronts and
/// evicts the oldest first.
class NsgaResourceProvisioner : public ResourceAdvisor {
 public:
  struct Limits {
    int max_containers = 8;
    int max_cores_per_container = 4;
    double max_memory_gb_per_container = 6.75;
  };

  /// One point of a Pareto front: decoded resources and their (time, cost).
  struct FrontPoint {
    Resources resources;
    double seconds = 0.0;
    double cost = 0.0;
  };
  /// Feasible front points, sorted by ascending time.
  using ParetoFront = std::vector<FrontPoint>;

  /// Fronts kept before the oldest is evicted. A front takes ~0.9 KB, so
  /// the memo stays under ~8 MB; planning 163 Pegasus DAGs fills ~3.6k.
  static constexpr size_t kMemoCapacity = 8192;
  /// When minimizing time, accept up to this relative slowdown versus the
  /// fastest front point in exchange for a cheaper allocation (the "right
  /// amount of resources" knee of Fig. 17).
  static constexpr double kTimeTolerance = 0.05;

  /// Memo outcomes are counted in `ires_provisioner_fronts_total{outcome}`
  /// on `metrics` (a private registry when null).
  NsgaResourceProvisioner() : NsgaResourceProvisioner(Limits(), {}) {}
  NsgaResourceProvisioner(Limits limits, Nsga2::Options ga,
                          MetricsRegistry* metrics = nullptr);

  /// The Pareto front for running `request` on `engine`; `request.resources`
  /// is ignored. A hit returns the memoized front without copying it; a
  /// miss runs the GA on the calling thread with no lock held. Two
  /// concurrent misses on one key may both compute; the first insert wins.
  std::shared_ptr<const ParetoFront> Front(const SimulatedEngine& engine,
                                           const OperatorRunRequest& request)
      EXCLUDES(mu_);

  /// Selects from Front() by policy; returns `request.resources` when no
  /// allocation is feasible. Thread-safe.
  Resources Advise(const SimulatedEngine& engine,
                   const OperatorRunRequest& request,
                   const OptimizationPolicy& policy) override EXCLUDES(mu_);

 private:
  /// Everything the GA's objective reads.
  struct Key {
    uint64_t calibration = 0;  // SimulatedEngine::calibration_version()
    std::string algorithm;
    double input_bytes = 0.0;
    double input_records = 0.0;
    std::map<std::string, double> params;

    bool operator<(const Key& other) const;
  };
  using Memo = std::map<Key, std::shared_ptr<const ParetoFront>>;

  ParetoFront Compute(const SimulatedEngine& engine,
                      const OperatorRunRequest& request) const;

  const Limits limits_;
  const Nsga2::Options ga_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // fallback registry
  Counter* hits_;
  Counter* computed_;
  Mutex mu_{LockRank::kResourceProvisioner, "provisioner.memo"};
  Memo fronts_ GUARDED_BY(mu_);
  std::deque<Memo::iterator> insertion_order_ GUARDED_BY(mu_);  // FIFO
};

}  // namespace ires

#endif  // IRES_PROVISIONING_RESOURCE_PROVISIONER_H_
