// Reproduces deliverable Figures 18-22 (and Table 1): the fault-tolerance
// evaluation. The 4-operator HelloWorld workflow (engine options per
// Table 1) is executed while the engine of operator HelloWorld1/2/3 is
// killed mid-run. Compared strategies:
//   IResReplan    - keep materialized intermediates, replan the residual
//                   workflow without the dead engine;
//   TrivialReplan - reschedule the whole workflow from scratch;
//   SubOptPlan    - no failure, but the engine the optimal plan would have
//                   used is unavailable from the start.
//
// Paper shape targets: IResReplan always beats TrivialReplan in execution
// time and the gap grows the later the failure happens; IResReplan's
// replanning is costlier than TrivialReplan's (it reconciles the completed
// sub-workflow) but stays in the millisecond range; late failures with
// IResReplan even beat the failure-free SubOptPlan.
//
// A second experiment compares recovery disciplines under the same seeded
// chaos schedule of transient faults: retry-first (the enforcer absorbs
// faults with in-place backoff before any replanning) against replan-first
// (no retry budget — every fault escalates straight to a replan). Results
// land in BENCH_fault_tolerance.json for cross-revision diffs.

#include <string>

#include "bench_util.h"
#include "chaos/chaos_scheduler.h"
#include "executor/recovering_executor.h"

namespace {

using namespace ires;

struct CaseResult {
  bool ok = false;
  double exec_seconds = 0.0;
  double replanning_ms = 0.0;
};

CaseResult RunCase(const std::string& fail_algorithm,
                   ReplanStrategy strategy) {
  auto registry = MakeStandardEngineRegistry();
  GeneratedWorkload w = MakeHelloWorldWorkflow(0.5);
  ClusterSimulator cluster(16, 4, 8.0);
  DpPlanner planner(&w.library, registry.get());
  Enforcer enforcer(registry.get(), &cluster, 99);
  bool fired = false;
  enforcer.set_fault_oracle(
      [&fired, fail_algorithm](const PlanStep& step, double, int) {
        Enforcer::FaultDecision crash;
        if (fired || step.algorithm != fail_algorithm) return crash;
        fired = crash.fail = true;
        return crash;
      });
  RecoveringExecutor recovering(&planner, &enforcer, registry.get());
  auto outcome = recovering.Run(w.graph, {}, strategy);
  CaseResult result;
  if (outcome.ok()) {
    result.ok = true;
    result.exec_seconds = outcome.value().total_execution_seconds;
    result.replanning_ms = outcome.value().replanning_ms;
  }
  return result;
}

// SubOptPlan: no failure, but the engine IReS would have used for
// `fail_algorithm` is OFF from the start.
CaseResult RunSubOptimal(const std::string& fail_algorithm) {
  auto registry = MakeStandardEngineRegistry();
  GeneratedWorkload w = MakeHelloWorldWorkflow(0.5);
  DpPlanner planner(&w.library, registry.get());
  auto optimal = planner.Plan(w.graph, {});
  CaseResult result;
  if (!optimal.ok()) return result;
  std::string engine;
  for (const PlanStep& step : optimal.value().steps) {
    if (step.algorithm == fail_algorithm) engine = step.engine;
  }
  (void)registry->SetAvailable(engine, false);
  ClusterSimulator cluster(16, 4, 8.0);
  Enforcer enforcer(registry.get(), &cluster, 99);
  RecoveringExecutor recovering(&planner, &enforcer, registry.get());
  auto outcome =
      recovering.Run(w.graph, {}, ReplanStrategy::kIresReplan);
  if (outcome.ok()) {
    result.ok = true;
    result.exec_seconds = outcome.value().total_execution_seconds;
    result.replanning_ms = outcome.value().replanning_ms;
  }
  return result;
}

// -------------------------- retry-first vs replan-first under chaos -------

/// Aggregate over many seeded chaos jobs run under one recovery discipline.
struct DisciplineResult {
  int jobs = 0;
  int succeeded = 0;
  double exec_seconds = 0.0;    // mean simulated time-to-completion
  double replanning_ms = 0.0;   // mean
  double replans = 0.0;         // mean replanning rounds
  double step_retries = 0.0;    // mean in-place retries
  double injected = 0.0;        // mean chaos injections (sanity anchor)
};

/// Runs `jobs` HelloWorld executions under a transient-fault chaos storm of
/// probability `transient_p`, recovering with a per-step retry budget of
/// `max_attempts` (1 = replan-first). Seeds are shared across disciplines
/// so both face the same schedule generator.
DisciplineResult RunDiscipline(double transient_p, int max_attempts,
                               int jobs, uint64_t seed_base) {
  DisciplineResult result;
  result.jobs = jobs;
  for (int i = 0; i < jobs; ++i) {
    auto registry = MakeStandardEngineRegistry();
    // The breaker must not amputate engines across a single job's replans.
    EngineRegistry::BreakerConfig breaker;
    breaker.base_suspension_seconds = 5.0;
    breaker.off_after_consecutive_trips = 0;
    registry->set_breaker_config(breaker);

    GeneratedWorkload w = MakeHelloWorldWorkflow(0.5);
    ClusterSimulator cluster(16, 4, 8.0);
    DpPlanner planner(&w.library, registry.get());
    Enforcer enforcer(registry.get(), &cluster, 99);
    RetryPolicy retry;
    retry.max_attempts = max_attempts;
    retry.base_backoff_seconds = 0.5;
    enforcer.set_retry_policy(retry);

    ChaosConfig config;
    config.seed = seed_base + static_cast<uint64_t>(i);
    config.transient_probability = transient_p;
    ChaosScheduler chaos(config);
    chaos.Arm(&enforcer);

    RecoveringExecutor recovering(&planner, &enforcer, registry.get());
    recovering.set_max_replans(8);
    const RecoveryOutcome out = recovering.RunFrom(
        w.graph, {}, ReplanStrategy::kIresReplan, nullptr);
    if (out.status.ok()) ++result.succeeded;
    result.exec_seconds += out.total_execution_seconds;
    result.replanning_ms += out.replanning_ms;
    result.replans += out.replans;
    result.step_retries += out.step_retries;
    result.injected += static_cast<double>(chaos.counts().total());
  }
  result.exec_seconds /= jobs;
  result.replanning_ms /= jobs;
  result.replans /= jobs;
  result.step_retries /= jobs;
  result.injected /= jobs;
  return result;
}

void AppendCaseJson(std::string* json, const char* key,
                    const CaseResult& result) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "\"%s\":{\"ok\":%s,\"exec_seconds\":%.3f,"
                "\"replanning_ms\":%.3f}",
                key, result.ok ? "true" : "false", result.exec_seconds,
                result.replanning_ms);
  *json += buffer;
}

void AppendDisciplineJson(std::string* json, const char* key,
                          const DisciplineResult& result) {
  char buffer[256];
  std::snprintf(
      buffer, sizeof(buffer),
      "\"%s\":{\"jobs\":%d,\"succeeded\":%d,\"exec_seconds\":%.3f,"
      "\"replanning_ms\":%.3f,\"replans\":%.3f,\"step_retries\":%.3f,"
      "\"injected\":%.3f}",
      key, result.jobs, result.succeeded, result.exec_seconds,
      result.replanning_ms, result.replans, result.step_retries,
      result.injected);
  *json += buffer;
}

}  // namespace

int main() {
  using namespace ires::bench;

  PrintHeader("Table 1 workflow: HelloWorld -> HelloWorld1 -> HelloWorld2 "
              "-> HelloWorld3");
  std::printf(
      "engine options: HelloWorld{Python} HelloWorld1{Spark,Python} "
      "HelloWorld2{Spark,MLLib,PostgreSQL,Hive} HelloWorld3{Spark,Python}\n");

  std::string json = "{\n  \"figures_20_22\": [\n";

  PrintHeader(
      "Figures 20-22: execution time [s] and replanning time [ms] per "
      "failure point");
  std::printf("%14s %22s %22s %18s\n", "failed op",
              "IResReplan  (t, plan)", "TrivialReplan(t, plan)",
              "SubOptPlan (t)");
  bool first = true;
  for (const char* fail : {"HelloWorld1", "HelloWorld2", "HelloWorld3"}) {
    const CaseResult ires = RunCase(fail, ReplanStrategy::kIresReplan);
    const CaseResult trivial = RunCase(fail, ReplanStrategy::kTrivialReplan);
    const CaseResult subopt = RunSubOptimal(fail);
    std::printf("%14s %12.1f %8.3fms %12.1f %8.3fms %16.1f\n", fail,
                ires.exec_seconds, ires.replanning_ms, trivial.exec_seconds,
                trivial.replanning_ms, subopt.exec_seconds);
    if (!first) json += ",\n";
    first = false;
    json += "    {\"failed_op\":\"" + std::string(fail) + "\",";
    AppendCaseJson(&json, "ires_replan", ires);
    json += ",";
    AppendCaseJson(&json, "trivial_replan", trivial);
    json += ",";
    AppendCaseJson(&json, "subopt_plan", subopt);
    json += "}";
  }
  json += "\n  ],\n  \"retry_vs_replan\": [\n";

  PrintHeader(
      "Recovery disciplines under seeded transient chaos: retry-first "
      "(3 attempts/step) vs replan-first (no retry budget)");
  std::printf("%8s | %28s | %28s\n", "p(fault)",
              "retry-first (t, replans, retries)",
              "replan-first (t, replans)");
  constexpr int kJobsPerPoint = 25;
  first = true;
  for (const double p : {0.05, 0.15, 0.30}) {
    const DisciplineResult retry_first =
        RunDiscipline(p, /*max_attempts=*/3, kJobsPerPoint, 31000);
    const DisciplineResult replan_first =
        RunDiscipline(p, /*max_attempts=*/1, kJobsPerPoint, 31000);
    std::printf("%8.2f | %10.1fs %7.2f %8.2f | %12.1fs %10.2f\n", p,
                retry_first.exec_seconds, retry_first.replans,
                retry_first.step_retries, replan_first.exec_seconds,
                replan_first.replans);
    if (!first) json += ",\n";
    first = false;
    char head[64];
    std::snprintf(head, sizeof(head),
                  "    {\"transient_probability\":%.2f,", p);
    json += head;
    AppendDisciplineJson(&json, "retry_first", retry_first);
    json += ",";
    AppendDisciplineJson(&json, "replan_first", replan_first);
    json += "}";
  }
  json += "\n  ]\n}\n";

  std::printf(
      "\nshape check: IResReplan < TrivialReplan everywhere, gap widens for "
      "later failures; IResReplan replanning costlier than TrivialReplan's "
      "but in the ms range; retry-first needs far fewer replans than "
      "replan-first at every fault rate\n");

  const char* out_path = "BENCH_fault_tolerance.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
