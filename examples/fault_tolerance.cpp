// Fault tolerance (deliverable §4.5): runs the 4-operator HelloWorld
// workflow of Table 1 and kills the engine hosting HelloWorld2 mid-run.
// The execution monitor reports the failure, the dead engine is marked OFF,
// and IResReplan reschedules only the residual workflow, reusing the
// intermediate results that were already materialized.
//
//   $ ./fault_tolerance

#include <cstdio>

#include "engines/standard_engines.h"
#include "executor/recovering_executor.h"
#include "planner/materialization_report.h"
#include "workloadgen/asap_workflows.h"

int main() {
  using namespace ires;

  auto registry = MakeStandardEngineRegistry();
  GeneratedWorkload w = MakeHelloWorldWorkflow(0.5);
  ClusterSimulator cluster(16, 4, 8.0);
  DpPlanner planner(&w.library, registry.get());

  // Show the optimal plan before any failure.
  auto optimal = planner.Plan(w.graph, {});
  if (!optimal.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 optimal.status().ToString().c_str());
    return 1;
  }
  std::printf("--- optimal plan (no failures) ---\n%s\n",
              optimal.value().ToString().c_str());

  // The Fig. 19 view: every engine alternative per operator, the chosen
  // one starred, infeasible ones crossed out.
  auto alternatives = BuildMaterializationReport(w.graph, w.library,
                                                 *registry, optimal.value());
  if (alternatives.ok()) {
    std::printf("--- materialized alternatives ---\n%s\n",
                alternatives.value().ToString().c_str());
  }

  // Kill the engine of HelloWorld2 the first time it starts.
  Enforcer enforcer(registry.get(), &cluster, 4242);
  bool fired = false;
  enforcer.set_fault_oracle([&fired](const PlanStep& step, double now, int) {
    Enforcer::FaultDecision crash;  // kind defaults to an engine crash
    if (fired || step.algorithm != "HelloWorld2") return crash;
    fired = crash.fail = true;
    std::printf(">>> t=%.1fs: engine %s dies while starting %s\n", now,
                step.engine.c_str(), step.name.c_str());
    return crash;
  });

  RecoveringExecutor recovering(&planner, &enforcer, registry.get());
  auto outcome =
      recovering.Run(w.graph, {}, ReplanStrategy::kIresReplan);
  if (!outcome.ok()) {
    std::fprintf(stderr, "workflow unrecoverable: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  std::printf("\n--- replanned residual workflow (after failure) ---\n%s\n",
              outcome.value().final_plan.ToString().c_str());
  std::printf(
      "recovered with %d replan(s); total execution %.1f simulated "
      "seconds; replanning cost %.3f ms\n",
      outcome.value().replans, outcome.value().total_execution_seconds,
      outcome.value().replanning_ms);
  std::printf(
      "note: HelloWorld and HelloWorld1 do NOT appear in the replanned "
      "workflow - their outputs were reused\n");
  return 0;
}
