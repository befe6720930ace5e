#ifndef IRES_CORE_IRES_SERVER_H_
#define IRES_CORE_IRES_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "analysis/workflow_analyzer.h"
#include "chaos/chaos_scheduler.h"
#include "cluster/cluster_simulator.h"
#include "core/model_library.h"
#include "executor/enforcer.h"
#include "executor/recovering_executor.h"
#include "modeling/drift.h"
#include "modeling/refinement.h"
#include "planner/dp_planner.h"
#include "planner/plan_cache.h"
#include "profiling/profiler.h"
#include "provisioning/resource_provisioner.h"
#include "telemetry/event_journal.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/slo.h"
#include "telemetry/trace_context.h"
#include "threading/task_scheduler.h"
#include "workflow/workflow_graph.h"

namespace ires {

/// Cost estimator backed by the online-refined model library: it predicts
/// execution time, output size and output cardinality with each
/// (algorithm, engine) pair's trained estimators when they exist, and falls
/// back to the engine's analytic model otherwise. Feasibility always comes
/// from the engine. Thread-safe: predictions take the per-pair model mutex,
/// so they never race with concurrent refinement.
class ModelBasedCostEstimator : public CostEstimator {
 public:
  explicit ModelBasedCostEstimator(const ModelLibrary* models)
      : models_(models) {}

  Result<OperatorRunEstimate> Estimate(
      const SimulatedEngine& engine,
      const OperatorRunRequest& request) const override;

 private:
  const ModelLibrary* models_;
};

/// The kind of artefact registered with the platform's interface layer.
enum class ArtifactKind {
  kDataset,
  kAbstractOperator,
  kMaterializedOperator,
};

const char* ArtifactKindName(ArtifactKind kind);

/// The IReS server facade: wires the interface, optimizer and executor
/// layers (deliverable Fig. 1) into the API the examples and experiments
/// drive — register artefacts, materialize (plan) workflows, execute them
/// with monitoring/recovery, and refine the models with every run.
///
/// RunWorkflow is the one execution pipeline: plan, enforce, monitor,
/// replan, refine. The synchronous REST routes and the examples call it
/// directly; the job service runs the same two halves, PlanWorkflowCached
/// then ExecutePlanned, so it can record the phases in between. Every run
/// simulates on its own enforcer and cluster view, so the server holds no
/// shared discrete-event state.
///
/// Concurrency: RegisterArtifact, PlanWorkflowCached, MaterializeWorkflow
/// and RunWorkflow are safe to call from many threads at once (the job
/// service's worker pool does exactly that).
class IresServer {
 public:
  struct Config {
    int cluster_nodes = 16;
    int cores_per_node = 4;
    double memory_gb_per_node = 8.0;
    uint64_t seed = 99;
    /// When true the planner consults the online-refined models; otherwise
    /// the converged analytic models.
    bool use_refined_models = false;
    /// When set, NSGA-II provisions container resources per operator; each
    /// distinct operator run's Pareto front is computed once per server.
    bool provision_resources = false;
    /// Capacity of the planner-level plan cache (0 disables caching).
    size_t plan_cache_capacity = 128;
    /// Worker threads of the shared task scheduler that job execution and
    /// model refits run on; <=0 uses the hardware concurrency.
    int scheduler_workers = 0;
    /// Injectable clock (seconds) for the scheduler's backlog tracker —
    /// what /apiv1/healthz saturation tests march forward. Null uses the
    /// steady clock.
    std::function<double()> scheduler_clock;
  };

  IresServer() : IresServer(Config()) {}
  explicit IresServer(Config config);

  // ---- Interface layer ----------------------------------------------------
  /// Registers one artefact from its key=value description text — the
  /// unified entry point behind the REST description routes.
  Status RegisterArtifact(ArtifactKind kind, const std::string& name,
                          const std::string& description);

  /// Imports an externally assembled library (merges, name clashes fail).
  Status ImportLibrary(const OperatorLibrary& library);
  /// Parses a workflow `graph` file against the current library.
  Result<WorkflowGraph> ParseWorkflow(const std::string& graph_text) const;

  /// Runs the full workflow linter (structure, reachability, policy,
  /// library resolution, engine availability, port compatibility, cluster
  /// capacity) against this server's library/engines/cluster. This is what
  /// POST /apiv1/validate serves and what job admission gates on; it never
  /// mutates state and does not count rejects (callers at rejection sites
  /// do, via CountValidationRejects).
  std::vector<Diagnostic> ValidateWorkflow(
      const WorkflowGraph& graph,
      const OptimizationPolicy* policy = nullptr) const;

  // ---- Optimizer layer ----------------------------------------------------
  /// Materializes (plans) a workflow under `policy`, consulting the plan
  /// cache first.
  Result<ExecutionPlan> MaterializeWorkflow(
      const WorkflowGraph& graph,
      OptimizationPolicy policy = OptimizationPolicy::MinimizeTime());

  /// A cached or freshly planned workflow plus planning accounting.
  struct PlannedWorkflow {
    ExecutionPlan plan;
    bool cache_hit = false;
    /// Wall-clock spent planning (0 on a cache hit).
    double planning_ms = 0.0;
  };

  /// Plans under `policy` through the plan cache, keyed on the graph
  /// fingerprint, the policy, and the operator-library / model-library /
  /// engine-availability versions. Thread-safe. When `trace` is non-null,
  /// records "plan.cache_lookup" and "plan.dp" spans and feeds the planner
  /// latency histogram.
  Result<PlannedWorkflow> PlanWorkflowCached(const WorkflowGraph& graph,
                                             OptimizationPolicy policy,
                                             TraceContext* trace = nullptr);

  // ---- Executor layer -----------------------------------------------------
  /// Per-run execution knobs: recovery strategy and budget, in-place retry
  /// policy, and the chaos fault schedule. Carried per job by the job
  /// service, so two concurrent submissions can run under different
  /// fault-tolerance regimes.
  struct ExecutionOptions {
    ReplanStrategy strategy = ReplanStrategy::kIresReplan;
    int max_replans = 5;
    RetryPolicy retry;
    ChaosConfig chaos;
    /// Failover resume: step outputs a previous incarnation of this job
    /// already materialized (from the write-ahead job journal). Non-empty
    /// discards the cached initial plan and plans fresh with these entering
    /// the dpTable at cost 0, so completed steps are never re-executed.
    std::map<std::string, DatasetInstance> resume_materialized;
    /// Per-completed-step callback (see Enforcer::StepObserver); carried
    /// here so the job service can checkpoint steps into the job journal.
    Enforcer::StepObserver step_observer;
  };

  /// Everything one workflow run produced: the recovery outcome plus the
  /// initially chosen plan (so callers — notably async job records — get
  /// the plan summary without re-planning) and whether it came from the
  /// plan cache.
  struct WorkflowRunResult {
    RecoveryOutcome recovery;
    ExecutionPlan plan;
    bool plan_cache_hit = false;
    /// What the run's chaos schedule actually injected (all zero when
    /// chaos was disabled).
    ChaosScheduler::Counts chaos_injected;
  };

  /// Thread-safe plan→execute→refine pipeline used by the job service:
  /// plans through the cache, executes on a private per-run enforcer over a
  /// private cluster view (the shared registry still tracks engine
  /// availability), and refines the models on success. Errors are carried
  /// in `recovery.status` so planning/execution accounting survives
  /// failures.
  WorkflowRunResult RunWorkflow(
      const WorkflowGraph& graph,
      OptimizationPolicy policy = OptimizationPolicy::MinimizeTime(),
      TraceContext* trace = nullptr);
  WorkflowRunResult RunWorkflow(const WorkflowGraph& graph,
                                OptimizationPolicy policy,
                                TraceContext* trace,
                                const ExecutionOptions& exec);

  /// Executes `planned` (obtained from PlanWorkflowCached) without
  /// re-planning the first attempt. Thread-safe; see RunWorkflow. When
  /// `trace` is non-null, records the "job.execute" wall span, per-step
  /// simulated-time spans and the "model.refine" span.
  WorkflowRunResult ExecutePlanned(const WorkflowGraph& graph,
                                   OptimizationPolicy policy,
                                   const PlannedWorkflow& planned,
                                   TraceContext* trace = nullptr);
  WorkflowRunResult ExecutePlanned(const WorkflowGraph& graph,
                                   OptimizationPolicy policy,
                                   const PlannedWorkflow& planned,
                                   TraceContext* trace,
                                   const ExecutionOptions& exec);

  // ---- Access to the wired components (experiments drive them directly). --
  OperatorLibrary& library() { return library_; }
  EngineRegistry& engines() { return *engines_; }
  ClusterSimulator& cluster() { return *cluster_; }
  DpPlanner& planner() { return *planner_; }
  /// The memoized candidate-resolution index the planner plans through;
  /// share it with any ParetoPlanner / BuildMaterializationReport built
  /// over this server's library and engines.
  PlannerContext& planner_context() { return *planner_context_; }
  NsgaResourceProvisioner& provisioner() { return *provisioner_; }
  PlanCache& plan_cache() { return *plan_cache_; }
  const Config& config() const { return config_; }

  /// The server-wide metric catalogue: every layer (plan cache, planner,
  /// job service, REST surface, model refinement) registers its
  /// instruments here, and GET /apiv1/metrics renders it.
  MetricsRegistry& metrics() { return metrics_; }

  /// The flight recorder: every decision-relevant transition (admission,
  /// planning, step retries, breaker flips, replans) lands here, and
  /// GET /apiv1/debug/events queries it.
  EventJournal& journal() { return journal_; }

  /// Cost-model drift observatory behind GET /apiv1/models/drift: residual
  /// tracking of predicted vs simulated-actual step times, feeding forced
  /// refits for high-drift (operator, engine) pairs.
  DriftObservatory& drift() { return drift_; }

  /// SLO burn-rate monitor rendered by /apiv1/healthz and /apiv1/metrics.
  SloMonitor& slo() { return slo_; }

  /// The shared work-stealing execution substrate. One instance per server:
  /// JobService dispatch and model refits both run here, so a busy
  /// subsystem can soak up the workers an idle one isn't using. The
  /// planners run serially on the calling thread.
  TaskScheduler& scheduler() { return *scheduler_; }

  /// The refined execution-time estimator for one (algorithm, engine)
  /// pair, created on first use. Inspection accessor: it first waits for
  /// in-flight background refits, then bypasses the per-pair model lock, so
  /// it is only safe while no concurrent ObserveRun/Refit can touch the
  /// pair (tests, offline tools).
  OnlineEstimator* estimator(const std::string& algorithm,
                             const std::string& engine);

  /// The full multi-metric model library. Its refits run as `model.refit`
  /// tasks on scheduler(); destroying the server waits for them before the
  /// scheduler joins.
  ModelLibrary& models() { return models_; }

  /// Persists / restores the model library (profiling samples + refits),
  /// so a restarted server keeps its learned knowledge.
  Status SaveModels(const std::string& dir) const {
    return models_.SaveToDirectory(dir);
  }
  Status LoadModels(const std::string& dir) {
    return models_.LoadFromDirectory(dir);
  }

 private:
  DpPlanner::Options MakePlannerOptions(const OptimizationPolicy& policy);
  void RefineFromReport(const ExecutionPlan& plan,
                        const ExecutionReport& report);
  /// Feeds every completed operator step's (predicted, actual) time into
  /// the drift observatory; newly flagged pairs get a forced refit of their
  /// exec-time estimator queued.
  void ObserveDrift(const ExecutionPlan& plan, const ExecutionReport& report,
                    const std::string& job_id);
  void RecordExecutionMetrics(const ExecutionPlan& plan,
                              const ExecutionReport& report);
  void RecordRecoveryMetrics(const RecoveryOutcome& recovery,
                             const ExecutionOptions& exec,
                             const ChaosScheduler::Counts& injected);

  Config config_;
  /// Declared before every component that registers instruments in it.
  MetricsRegistry metrics_;
  /// Declared right after metrics_ so every later component may journal.
  EventJournal journal_;
  DriftObservatory drift_;
  SloMonitor slo_;
  /// Declared right after the telemetry it reports into and before every
  /// component that executes on it — destroyed (joined) after them all.
  std::unique_ptr<TaskScheduler> scheduler_;
  /// Refits on scheduler_, so declared after it: the library's destructor
  /// waits for its refits before the scheduler joins.
  ModelLibrary models_;
  OperatorLibrary library_;
  std::unique_ptr<EngineRegistry> engines_;
  std::unique_ptr<ClusterSimulator> cluster_;
  /// Declared before the planners that resolve through it.
  std::unique_ptr<PlannerContext> planner_context_;
  std::unique_ptr<DpPlanner> planner_;
  std::unique_ptr<NsgaResourceProvisioner> provisioner_;
  std::unique_ptr<ModelBasedCostEstimator> model_estimator_;
  std::unique_ptr<PlanCache> plan_cache_;
  /// Distinguishes per-run enforcer noise streams across concurrent jobs.
  std::atomic<uint64_t> run_counter_{0};
};

}  // namespace ires

#endif  // IRES_CORE_IRES_SERVER_H_
