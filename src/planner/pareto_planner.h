#ifndef IRES_PLANNER_PARETO_PLANNER_H_
#define IRES_PLANNER_PARETO_PLANNER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engines/engine_registry.h"
#include "operators/operator_library.h"
#include "planner/cost_estimator.h"
#include "planner/execution_plan.h"
#include "planner/planner_context.h"
#include "workflow/workflow_graph.h"

namespace ires {

/// Multi-objective variant of the IReS planner. Deliverable §2.2.3 names
/// this as work in progress ("we are currently investigating methods for
/// optimizing multiple dimensions of performance metrics, such as finding
/// Pareto frontier execution plans"); this class implements it: instead of
/// one scalar-optimal record per (dataset, store, format), the dpTable keeps
/// a pruned Pareto set over (execution seconds, execution cost), and the
/// planner returns the whole frontier of non-dominated plans at the target.
/// The user (or a policy layer) then picks the preferred trade-off.
class ParetoPlanner {
 public:
  struct Options {
    /// Cost model library; null = analytic models.
    const CostEstimator* estimator = nullptr;
    /// Frontier-size cap per dpTable bucket; larger = finer frontier,
    /// slower planning. Pruning keeps the extremes plus evenly spread
    /// interior points.
    int max_frontier_size = 16;
    /// Replanning support, as in DpPlanner.
    std::map<std::string, DatasetInstance> materialized_intermediates;
  };

  /// One frontier plan with its objective vector.
  struct FrontierPlan {
    ExecutionPlan plan;
    double seconds = 0.0;  // cumulative work seconds (DP objective 1)
    double cost = 0.0;     // cumulative resource cost (DP objective 2)
  };

  /// As with DpPlanner: a shared non-null `context` (built over the same
  /// library/registry) lets repeated jobs reuse memoized candidate
  /// resolution; when null a private context is created lazily.
  ParetoPlanner(const OperatorLibrary* library, const EngineRegistry* engines,
                const PlannerContext* context = nullptr)
      : library_(library), engines_(engines), context_(context) {}

  /// Computes the Pareto frontier of execution plans for `graph`, sorted by
  /// ascending seconds (and thus descending cost). Fails when no feasible
  /// plan reaches the target.
  Result<std::vector<FrontierPlan>> PlanFrontier(const WorkflowGraph& graph,
                                                 const Options& options) const;

 private:
  const PlannerContext& context() const;

  const OperatorLibrary* library_;
  const EngineRegistry* engines_;
  const PlannerContext* context_;
  mutable std::once_flag owned_context_once_;
  mutable std::unique_ptr<PlannerContext> owned_context_;
};

}  // namespace ires

#endif  // IRES_PLANNER_PARETO_PLANNER_H_
