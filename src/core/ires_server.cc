#include "core/ires_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "engines/standard_engines.h"
#include "executor/trace.h"
#include "profiling/profiler.h"

namespace ires {

namespace {

/// Bounded-cardinality label for "planner time per DAG size": workflows are
/// bucketed by node count instead of labelling with the raw size.
const char* DagSizeBucket(size_t nodes) {
  if (nodes <= 2) return "1-2";
  if (nodes <= 4) return "3-4";
  if (nodes <= 8) return "5-8";
  if (nodes <= 16) return "9-16";
  return "17+";
}

std::unique_ptr<TaskScheduler> MakeScheduler(const IresServer::Config& config,
                                             MetricsRegistry* metrics,
                                             EventJournal* journal) {
  TaskScheduler::Options options;
  options.workers = config.scheduler_workers;
  options.metrics = metrics;
  options.journal = journal;
  options.clock = config.scheduler_clock;
  return std::make_unique<TaskScheduler>(std::move(options));
}

}  // namespace

Result<OperatorRunEstimate> ModelBasedCostEstimator::Estimate(
    const SimulatedEngine& engine, const OperatorRunRequest& request) const {
  // Feasibility always comes from the engine; each metric prediction is
  // replaced by its refined model when one has been trained.
  auto analytic = engine.Estimate(request);
  if (!analytic.ok()) return analytic.status();
  OperatorRunEstimate estimate = analytic.value();

  const ModelLibrary::OperatorModels* models =
      models_->Find(request.algorithm, engine.name());
  if (models == nullptr) return estimate;
  const Vector features = Profiler::FeatureVector(request);
  MutexLock lock(models->mu);
  if (models->exec_time.has_model()) {
    const double predicted = models->exec_time.Predict(features);
    if (predicted > 0.0) {
      estimate.exec_seconds = predicted;
      estimate.cost = request.resources.CostForDuration(predicted);
    }
  }
  if (models->output_bytes.has_model()) {
    estimate.output_bytes =
        std::max(0.0, models->output_bytes.Predict(features));
  }
  if (models->output_records.has_model()) {
    estimate.output_records =
        std::max(0.0, models->output_records.Predict(features));
  }
  return estimate;
}

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kDataset: return "dataset";
    case ArtifactKind::kAbstractOperator: return "abstractOperator";
    case ArtifactKind::kMaterializedOperator: return "materializedOperator";
  }
  return "?";
}

IresServer::IresServer(Config config)
    : config_(config),
      drift_(DriftObservatory::Options(), &metrics_),
      slo_(&metrics_),
      scheduler_(MakeScheduler(config, &metrics_, &journal_)),
      models_(scheduler_.get(), &metrics_) {
  engines_ = MakeStandardEngineRegistry();
  engines_->EnableMetrics(&metrics_);
  engines_->EnableJournal(&journal_);

  // Default objectives over the normalized-route request metrics: latency
  // per workload class plus an API-wide availability target. The routes
  // must match NormalizeRoute's output exactly.
  SloSpec dag_latency;
  dag_latency.name = "dag-execute-latency";
  dag_latency.workload = "dag";
  dag_latency.method = "POST";
  dag_latency.route = "/apiv1/workflows/{name}/execute";
  dag_latency.latency_threshold_seconds = 1.0;
  dag_latency.objective = 0.99;
  slo_.AddSlo(dag_latency);
  SloSpec sql_latency;
  sql_latency.name = "sql-latency";
  sql_latency.workload = "sql";
  sql_latency.method = "POST";
  sql_latency.route = "/apiv1/sql";
  sql_latency.latency_threshold_seconds = 1.0;
  sql_latency.objective = 0.99;
  slo_.AddSlo(sql_latency);
  SloSpec availability;
  availability.name = "api-availability";
  availability.workload = "all";
  availability.objective = 0.999;
  slo_.AddSlo(availability);
  cluster_ = std::make_unique<ClusterSimulator>(
      config.cluster_nodes, config.cores_per_node, config.memory_gb_per_node);
  planner_context_ = std::make_unique<PlannerContext>(&library_,
                                                      engines_.get(),
                                                      &metrics_);
  planner_ = std::make_unique<DpPlanner>(&library_, engines_.get(),
                                         planner_context_.get());
  enforcer_ = std::make_unique<Enforcer>(engines_.get(), cluster_.get(),
                                         config.seed);
  monitor_ = std::make_unique<ExecutionMonitor>(engines_.get(),
                                                cluster_.get());
  NsgaResourceProvisioner::Limits limits;
  limits.max_containers = config.cluster_nodes / 2;
  limits.max_cores_per_container = config.cores_per_node;
  limits.max_memory_gb_per_container = config.memory_gb_per_node * 0.85;
  Nsga2::Options ga;
  ga.population = 24;
  ga.generations = 30;
  ga.scheduler = scheduler_.get();
  provisioner_ = std::make_unique<NsgaResourceProvisioner>(limits, ga);
  model_estimator_ = std::make_unique<ModelBasedCostEstimator>(&models_);
  plan_cache_ =
      std::make_unique<PlanCache>(config.plan_cache_capacity, &metrics_);
}

Status IresServer::RegisterArtifact(ArtifactKind kind,
                                    const std::string& name,
                                    const std::string& description) {
  IRES_ASSIGN_OR_RETURN(MetadataTree meta,
                        MetadataTree::ParseDescription(description));
  switch (kind) {
    case ArtifactKind::kDataset:
      return library_.AddDataset(Dataset(name, std::move(meta)));
    case ArtifactKind::kAbstractOperator:
      return library_.AddAbstract(AbstractOperator(name, std::move(meta)));
    case ArtifactKind::kMaterializedOperator:
      return library_.AddMaterialized(
          MaterializedOperator(name, std::move(meta)));
  }
  return Status::InvalidArgument("unknown artifact kind");
}

Status IresServer::ImportLibrary(const OperatorLibrary& library) {
  for (const auto& [name, dataset] : library.datasets()) {
    IRES_RETURN_IF_ERROR(library_.AddDataset(dataset));
  }
  for (const auto& [name, op] : library.abstract()) {
    IRES_RETURN_IF_ERROR(library_.AddAbstract(op));
  }
  for (const auto& [name, op] : library.materialized()) {
    IRES_RETURN_IF_ERROR(library_.AddMaterialized(op));
  }
  return Status::OK();
}

Result<WorkflowGraph> IresServer::ParseWorkflow(
    const std::string& graph_text) const {
  return WorkflowGraph::ParseGraphFile(graph_text, library_);
}

std::vector<Diagnostic> IresServer::ValidateWorkflow(
    const WorkflowGraph& graph, const OptimizationPolicy* policy) const {
  WorkflowAnalyzer::Options options;
  options.library = &library_;
  options.engines = engines_.get();
  options.context = planner_context_.get();
  options.cluster_total_cores = cluster_->total_cores();
  options.cluster_total_memory_gb = cluster_->total_memory_gb();
  return WorkflowAnalyzer(options).Analyze(graph, policy);
}

DpPlanner::Options IresServer::MakePlannerOptions(
    const OptimizationPolicy& policy) {
  DpPlanner::Options options;
  options.policy = policy;
  if (config_.use_refined_models) options.estimator = model_estimator_.get();
  if (config_.provision_resources) options.advisor = provisioner_.get();
  return options;
}

Result<ExecutionPlan> IresServer::MaterializeWorkflow(
    const WorkflowGraph& graph, OptimizationPolicy policy) {
  auto planned = PlanWorkflowCached(graph, policy);
  if (!planned.ok()) return planned.status();
  return std::move(planned).value().plan;
}

Result<IresServer::PlannedWorkflow> IresServer::PlanWorkflowCached(
    const WorkflowGraph& graph, OptimizationPolicy policy,
    TraceContext* trace) {
  PlanCache::Key key;
  key.graph_fingerprint = graph.Fingerprint();
  key.policy = policy.ToString();
  key.library_version = library_.version();
  key.model_version =
      config_.use_refined_models ? models_.version() : 0;
  key.engine_epoch = engines_->availability_epoch();

  // Plan decisions are journaled under the job id (== trace id) so a job's
  // event stream replays why it got the plan it did.
  const JournalWriter writer(&journal_, trace ? trace->trace_id() : "");
  auto plan_chosen_detail = [](const ExecutionPlan& plan) {
    std::string engines;
    for (const std::string& engine : plan.EnginesUsed()) {
      if (!engines.empty()) engines += "+";
      engines += engine;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "seconds=%.3f steps=%zu engines=",
                  plan.estimated_seconds, plan.steps.size());
    return std::string(buf) + engines;
  };

  const uint64_t lookup_span =
      trace ? trace->BeginSpan("plan.cache_lookup", "plan") : 0;
  auto cached = plan_cache_->Lookup(key);
  if (trace) {
    trace->EndSpan(lookup_span,
                   {{"outcome", cached.has_value() ? "hit" : "miss"}});
  }
  if (cached) {
    PlannedWorkflow out;
    out.plan = std::move(*cached);
    out.cache_hit = true;
    writer.Emit(EventKind::kPlanCacheHit);
    writer.Emit(EventKind::kPlanChosen, -1, "", "", out.plan.estimated_cost,
                plan_chosen_detail(out.plan));
    return out;
  }
  writer.Emit(EventKind::kPlanCacheMiss);

  const uint64_t dp_span = trace ? trace->BeginSpan("plan.dp", "plan") : 0;
  const auto start = std::chrono::steady_clock::now();
  auto plan = planner_->Plan(graph, MakePlannerOptions(policy));
  const double planning_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  metrics_
      .GetHistogram("ires_planner_plan_seconds",
                    "DP planning latency, labelled by workflow size bucket.",
                    {{"dag_nodes", DagSizeBucket(graph.size())}})
      ->Observe(planning_ms / 1000.0);
  if (trace) {
    trace->EndSpan(dp_span, {{"dag_nodes", std::to_string(graph.size())},
                             {"ok", plan.ok() ? "true" : "false"}});
  }
  if (!plan.ok()) return plan.status();
  PlannedWorkflow out;
  out.plan = std::move(plan).value();
  out.planning_ms = planning_ms;
  writer.Emit(EventKind::kPlanChosen, -1, "", "", out.plan.estimated_cost,
              plan_chosen_detail(out.plan));
  // The key was captured before planning, so a library/model mutation that
  // lands mid-DP leaves this plan filed under the old versions — future
  // lookups (which read the new versions) can never be served the stale
  // plan.
  plan_cache_->Insert(key, out.plan);
  return out;
}

Result<RecoveryOutcome> IresServer::ExecuteWorkflow(
    const WorkflowGraph& graph, OptimizationPolicy policy) {
  auto planned = PlanWorkflowCached(graph, policy);
  if (!planned.ok()) return planned.status();

  RecoveringExecutor recovering(planner_.get(), enforcer_.get(),
                                engines_.get());
  RecoveryOutcome outcome =
      recovering.RunFrom(graph, MakePlannerOptions(policy),
                         ReplanStrategy::kIresReplan, &planned.value().plan,
                         planned.value().planning_ms);
  if (outcome.status.ok()) {
    RefineFromReport(outcome.final_plan, outcome.final_report);
  }
  if (!outcome.status.ok()) return outcome.status;
  return outcome;
}

IresServer::WorkflowRunResult IresServer::RunWorkflow(
    const WorkflowGraph& graph, OptimizationPolicy policy,
    TraceContext* trace) {
  return RunWorkflow(graph, policy, trace, ExecutionOptions());
}

IresServer::WorkflowRunResult IresServer::ExecutePlanned(
    const WorkflowGraph& graph, OptimizationPolicy policy,
    const PlannedWorkflow& planned, TraceContext* trace) {
  return ExecutePlanned(graph, policy, planned, trace, ExecutionOptions());
}

IresServer::WorkflowRunResult IresServer::RunWorkflow(
    const WorkflowGraph& graph, OptimizationPolicy policy,
    TraceContext* trace, const ExecutionOptions& exec) {
  auto planned = PlanWorkflowCached(graph, policy, trace);
  if (!planned.ok()) {
    WorkflowRunResult result;
    result.recovery.status = planned.status();
    return result;
  }
  return ExecutePlanned(graph, policy, planned.value(), trace, exec);
}

IresServer::WorkflowRunResult IresServer::ExecutePlanned(
    const WorkflowGraph& graph, OptimizationPolicy policy,
    const PlannedWorkflow& planned, TraceContext* trace,
    const ExecutionOptions& exec) {
  WorkflowRunResult result;
  result.plan = planned.plan;
  result.plan_cache_hit = planned.cache_hit;

  // Each run simulates on its own cluster view (every sequential
  // ExecuteWorkflow run also starts from an idle cluster, so semantics
  // match) with a distinct noise stream; the engine registry — and with it
  // availability flips from failure recovery — stays shared.
  ClusterSimulator cluster(config_.cluster_nodes, config_.cores_per_node,
                           config_.memory_gb_per_node);
  const uint64_t run_id =
      run_counter_.fetch_add(1, std::memory_order_acq_rel);
  Enforcer enforcer(engines_.get(), &cluster,
                    config_.seed + 0x9e3779b97f4a7c15ull * (run_id + 1));
  enforcer.set_retry_policy(exec.retry);
  if (exec.step_observer) enforcer.set_step_observer(exec.step_observer);
  const std::string job_id = trace ? trace->trace_id() : "";
  const JournalWriter writer(&journal_, job_id);
  enforcer.set_journal(writer);
  ChaosScheduler chaos(exec.chaos);
  chaos.Arm(&enforcer);
  RecoveringExecutor recovering(planner_.get(), &enforcer, engines_.get());
  recovering.set_max_replans(exec.max_replans);
  recovering.set_journal(writer);
  const uint64_t exec_span =
      trace ? trace->BeginSpan("job.execute", "job") : 0;
  DpPlanner::Options planner_options = MakePlannerOptions(policy);
  const ExecutionPlan* initial_plan = &planned.plan;
  if (!exec.resume_materialized.empty()) {
    // Failover resume: the cached plan predates the crash; replan with the
    // journaled checkpoints entering the dpTable at cost 0 so the resumed
    // run schedules only the residual workflow.
    planner_options.materialized_intermediates = exec.resume_materialized;
    initial_plan = nullptr;
  }
  result.recovery = recovering.RunFrom(graph, planner_options, exec.strategy,
                                       initial_plan, planned.planning_ms);
  result.chaos_injected = chaos.counts();
  RecordRecoveryMetrics(result.recovery, exec, result.chaos_injected);
  if (trace) {
    char sim[32];
    std::snprintf(sim, sizeof(sim), "%.3f",
                  result.recovery.total_execution_seconds);
    trace->EndSpan(exec_span,
                   {{"simulatedSeconds", sim},
                    {"replans", std::to_string(result.recovery.replans)},
                    {"ok", result.recovery.status.ok() ? "true" : "false"}});
    AddExecutionSpans(result.recovery.final_plan,
                      result.recovery.final_report, trace);
  }
  RecordExecutionMetrics(result.recovery.final_plan,
                         result.recovery.final_report);
  // Drift feeds on every completed step, success or not — a failed run's
  // completed prefix is still evidence about the cost models.
  ObserveDrift(result.recovery.final_plan, result.recovery.final_report,
               job_id);
  if (result.recovery.status.ok()) {
    const uint64_t refine_span =
        trace ? trace->BeginSpan("model.refine", "model") : 0;
    RefineFromReport(result.recovery.final_plan,
                     result.recovery.final_report);
    if (trace) trace->EndSpan(refine_span);
  }
  return result;
}

void IresServer::RecordRecoveryMetrics(
    const RecoveryOutcome& recovery, const ExecutionOptions& exec,
    const ChaosScheduler::Counts& injected) {
  metrics_
      .GetCounter("ires_step_retries_total",
                  "In-place step retries (transient faults and straggler "
                  "kills) across all runs.")
      ->Increment(static_cast<uint64_t>(recovery.step_retries));
  metrics_
      .GetCounter("ires_replans_total",
                  "Workflow replanning rounds by recovery strategy.",
                  {{"strategy", ReplanStrategyName(exec.strategy)}})
      ->Increment(static_cast<uint64_t>(recovery.replans));
  for (const FailureEvent& failure : recovery.failures) {
    metrics_
        .GetCounter("ires_workflow_failures_total",
                    "Workflow-level execution-attempt failures by domain.",
                    {{"kind", FailureKindName(failure.kind)}})
        ->Increment();
  }
  if (exec.chaos.enabled()) {
    const std::string help = "Chaos-injected faults by failure domain.";
    metrics_.GetCounter("ires_chaos_injected_total", help,
                        {{"kind", "transient"}})
        ->Increment(injected.transient);
    metrics_.GetCounter("ires_chaos_injected_total", help,
                        {{"kind", "timeout"}})
        ->Increment(injected.timeout);
    metrics_.GetCounter("ires_chaos_injected_total", help,
                        {{"kind", "engine_crash"}})
        ->Increment(injected.engine_crash);
  }
}

void IresServer::RecordExecutionMetrics(const ExecutionPlan& plan,
                                        const ExecutionReport& report) {
  // Per-engine accounting over every step that actually ran, successful or
  // not — failed steps still consumed simulated time on their engine.
  for (const PlanStep& step : plan.steps) {
    if (step.id < 0 || step.id >= static_cast<int>(report.steps.size())) {
      continue;
    }
    const StepResult& result = report.steps[step.id];
    if (result.step_id < 0) continue;
    // A step caught mid-backoff by an abort has no finish time; skip it
    // rather than credit a negative duration.
    if (result.finish_seconds < result.start_seconds) continue;
    const char* kind =
        step.kind == PlanStep::Kind::kMove ? "move" : "operator";
    metrics_
        .GetCounter("ires_engine_steps_total",
                    "Executed plan steps by engine and step kind.",
                    {{"engine", step.engine}, {"kind", kind}})
        ->Increment();
    metrics_
        .GetCounter("ires_engine_sim_milliseconds_total",
                    "Simulated execution time by engine, in milliseconds.",
                    {{"engine", step.engine}})
        ->Increment(static_cast<uint64_t>(
            (result.finish_seconds - result.start_seconds) * 1000.0));
  }
}

void IresServer::ObserveDrift(const ExecutionPlan& plan,
                              const ExecutionReport& report,
                              const std::string& job_id) {
  for (const PlanStep& step : plan.steps) {
    if (step.kind != PlanStep::Kind::kOperator) continue;
    if (step.id < 0 || step.id >= static_cast<int>(report.steps.size())) {
      continue;
    }
    const StepResult& result = report.steps[step.id];
    if (result.step_id < 0 || !result.status.ok()) continue;
    const double actual = result.finish_seconds - result.start_seconds;
    if (actual < 0.0) continue;
    const bool newly_flagged = drift_.Observe(
        step.algorithm, step.engine, step.estimated_seconds, actual, job_id);
    if (!newly_flagged) continue;
    // High drift means the estimator's view of this pair is stale; queue a
    // refit from its sample window now instead of waiting for the periodic
    // refit interval.
    models_.ForceRefit(step.algorithm, step.engine);
    metrics_
        .GetCounter("ires_model_refit_forced_total",
                    "Forced exec-time refits queued by drift flagging.",
                    {{"engine", step.engine}})
        ->Increment();
  }
}

// Analysis waiver: hands out a pointer to a pair-guarded estimator without
// the pair lock. This is an inspection accessor for tests and offline tools
// only — the quiescence contract is the caller's (see the header comment),
// and no lock discipline here could check it.
OnlineEstimator* IresServer::estimator(
    const std::string& algorithm,
    const std::string& engine) NO_THREAD_SAFETY_ANALYSIS {
  models_.WaitForRefits();
  return &models_.Get(algorithm, engine)->exec_time;
}

void IresServer::RefineFromReport(const ExecutionPlan& plan,
                                  const ExecutionReport& report) {
  // Model refinement (deliverable §2.2.2): every successfully executed
  // operator feeds its observed runtime back into the estimator library.
  for (const PlanStep& step : plan.steps) {
    if (step.kind != PlanStep::Kind::kOperator) continue;
    const StepResult& result = report.steps[step.id];
    if (!result.status.ok()) continue;
    OperatorRunRequest request;
    request.algorithm = step.algorithm;
    request.input_bytes = step.input_bytes;
    request.input_records = step.input_records;
    request.resources = step.resources;
    request.params = step.params;
    double output_bytes = 0.0, output_records = 0.0;
    for (const DatasetInstance& out : step.outputs) {
      output_bytes += out.bytes;
      output_records += out.records;
    }
    const double error =
        models_.ObserveRun(step.algorithm, step.engine, request,
                           result.finish_seconds - result.start_seconds,
                           output_bytes, output_records);
    metrics_
        .GetCounter("ires_model_refinements_total",
                    "Model-refinement updates by engine.",
                    {{"engine", step.engine}})
        ->Increment();
    metrics_
        .GetHistogram(
            "ires_model_refine_relative_error",
            "Pre-absorption relative error of the exec-time estimator.",
            {},
            {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0})
        ->Observe(error);
  }
}

}  // namespace ires
