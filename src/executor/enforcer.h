#ifndef IRES_EXECUTOR_ENFORCER_H_
#define IRES_EXECUTOR_ENFORCER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster_simulator.h"
#include "common/rng.h"
#include "engines/engine_registry.h"
#include "executor/failure.h"
#include "planner/execution_plan.h"
#include "telemetry/event_journal.h"

namespace ires {

/// Outcome of one plan step.
struct StepResult {
  int step_id = -1;
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  double cost = 0.0;
  Status status;
  /// Start attempts consumed (0 = the step never started; >1 = it was
  /// retried in place after transient faults or straggler kills).
  int attempts = 0;
  /// Failure domain of the step's final failure; meaningless when ok.
  FailureKind failure_kind = FailureKind::kTransient;
};

/// Outcome of enforcing a plan.
struct ExecutionReport {
  Status status;                // overall: OK or the first failure
  double makespan_seconds = 0.0;
  double total_cost = 0.0;
  std::vector<StepResult> steps;
  /// Intermediate results that completed successfully: abstract dataset
  /// node -> where/what it is. These seed IResReplan after a failure.
  std::map<std::string, DatasetInstance> materialized;
  int failed_step = -1;
  /// Failure domain of the abort cause; meaningless when status is OK.
  FailureKind failure_kind = FailureKind::kTransient;
  /// In-place step retries performed across all steps of this run.
  int step_retries = 0;
};

/// The executor-layer enforcer (deliverable §2.3): turns the planner's
/// execution plan into container allocations on the simulated cluster and
/// advances a discrete-event simulation of the run. Step durations are the
/// engines' noisy ground truth, so enforcement times differ slightly from
/// planning estimates, as on a real cluster.
///
/// Failure handling is domain-aware (executor/failure.h): transient faults
/// and straggler kills are retried per step with backoff on the simulated
/// clock under the configured RetryPolicy; engine crashes and fatal node
/// deaths abort the run so the recovering executor can replan around them.
class Enforcer {
 public:
  /// Fault injection: consulted at every step start attempt (attempt is
  /// 1-based). `fail == false` lets the attempt proceed; otherwise the
  /// attempt fails in the decided domain (an engine crash by default — the
  /// fault-tolerance experiments kill an engine this way).
  struct FaultDecision {
    bool fail = false;
    FailureKind kind = FailureKind::kEngineCrash;
  };
  using FaultOracle =
      std::function<FaultDecision(const PlanStep&, double now, int attempt)>;

  /// Invoked once per output dataset as a step completes (after the output
  /// is recorded in the report's materialized map). The job service uses
  /// this to journal step checkpoints, and the control-plane chaos layer
  /// to kill a replica mid-run at a precise step boundary. Runs on the
  /// executing thread with no service locks held.
  using StepObserver = std::function<void(int step_id, const DatasetInstance&)>;

  Enforcer(EngineRegistry* engines, ClusterSimulator* cluster,
           uint64_t seed = 777)
      : engines_(engines), cluster_(cluster), rng_(seed) {}

  void set_fault_oracle(FaultOracle oracle) {
    fault_oracle_ = std::move(oracle);
  }
  void set_step_observer(StepObserver observer) {
    step_observer_ = std::move(observer);
  }

  /// Flight-recorder handle: step starts, retries, straggler kills and
  /// chaos injections are journaled under the writer's job id.
  void set_journal(JournalWriter journal) { journal_ = std::move(journal); }

  /// Per-step retry budget and straggler deadline. The default policy never
  /// retries (max_attempts = 1 semantics are preserved by retries applying
  /// only to transient/timeout failures, which are never produced without a
  /// fault oracle or an armed straggler deadline).
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Schedules cluster node `node_index` to die at simulated time
  /// `at_seconds`: the health scripts mark it UNHEALTHY and every step with
  /// a container on it fails (the hardware-failure path of §2.3). The
  /// schedule persists across Execute calls — a replan attempt re-arms
  /// events that have not fired yet (nodes already UNHEALTHY do not
  /// re-fire), so a dead node stays dead for the retry while engines keep
  /// their own availability.
  void ScheduleNodeFailure(int node_index, double at_seconds) {
    node_schedule_.push_back({at_seconds, node_index, /*fail=*/true});
  }

  /// Schedules node `node_index` to return to HEALTHY at `at_seconds` — the
  /// recovery half of a chaos node-flap schedule.
  void ScheduleNodeRecovery(int node_index, double at_seconds) {
    node_schedule_.push_back({at_seconds, node_index, /*fail=*/false});
  }

  /// Drops all scheduled node events (tests and benches re-arming a fresh
  /// scenario on a reused enforcer).
  void ClearNodeSchedule() { node_schedule_.clear(); }

  /// Runs the plan to completion or first failure. On failure the report
  /// carries the completed steps' materialized outputs and the failed step.
  ExecutionReport Execute(const ExecutionPlan& plan);

 private:
  struct NodeEvent {
    double time = 0.0;
    int node = -1;
    bool fail = true;
  };

  EngineRegistry* engines_;
  ClusterSimulator* cluster_;
  Rng rng_;
  FaultOracle fault_oracle_;
  StepObserver step_observer_;
  JournalWriter journal_;
  RetryPolicy retry_policy_;
  std::vector<NodeEvent> node_schedule_;
};

}  // namespace ires

#endif  // IRES_EXECUTOR_ENFORCER_H_
