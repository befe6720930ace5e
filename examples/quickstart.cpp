// Quickstart: the deliverable's §3.3 walkthrough as code.
//
// We stand up an IReS server, register a dataset and a LineCount operator
// (abstract + two materialized implementations on different engines) using
// the platform's key=value description format, define the workflow with the
// `graph` file syntax, materialize (plan) it and execute it on the
// simulated multi-engine cluster.
//
//   $ ./quickstart

#include <cstdio>

#include "core/ires_server.h"

int main() {
  using namespace ires;

  IresServer server;

  // 1. Dataset definition (asapLibrary/datasets/asapServerLog).
  Status st = server.RegisterArtifact(ArtifactKind::kDataset,
                                      "asapServerLog",
                                      "Optimization.documents=200000\n"
                                      "Execution.path=hdfs:///user/root/"
                                      "asap-server.log\n"
                                      "Optimization.size=2.5e9\n"
                                      "Constraints.Engine.FS=HDFS\n"
                                      "Constraints.type=text\n");
  if (!st.ok()) {
    std::fprintf(stderr, "dataset registration failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  // 2. Abstract operator definition (asapLibrary/abstractOperators/...).
  (void)server.RegisterArtifact(
      ArtifactKind::kAbstractOperator, "LineCount",
      "Constraints.OpSpecification.Algorithm.name=LineCount\n"
      "Constraints.Input.number=1\n"
      "Constraints.Output.number=1\n");

  // 3. Two materialized implementations: Spark and a centralized Python
  //    script (the wc -l of the walkthrough).
  (void)server.RegisterArtifact(
      ArtifactKind::kMaterializedOperator, "LineCount_Spark",
      "Constraints.Engine=Spark\n"
      "Constraints.OpSpecification.Algorithm.name=LineCount\n"
      "Constraints.Input.number=1\n"
      "Constraints.Output.number=1\n"
      "Constraints.Input0.Engine.FS=HDFS\n"
      "Constraints.Input0.type=text\n"
      "Constraints.Output0.Engine.FS=HDFS\n"
      "Constraints.Output0.type=text\n");
  (void)server.RegisterArtifact(
      ArtifactKind::kMaterializedOperator, "LineCount_Python",
      "Constraints.Engine=Python\n"
      "Constraints.OpSpecification.Algorithm.name=LineCount\n"
      "Constraints.Input.number=1\n"
      "Constraints.Output.number=1\n"
      "Constraints.Input0.Engine.FS=Local\n"
      "Constraints.Input0.type=text\n"
      "Constraints.Output0.Engine.FS=Local\n"
      "Constraints.Output0.type=text\n");

  // 4. Abstract workflow definition: the `graph` file.
  auto graph = server.ParseWorkflow(
      "asapServerLog,LineCount,0\n"
      "LineCount,d1,0\n"
      "d1,$$target\n");
  if (!graph.ok()) {
    std::fprintf(stderr, "workflow parse failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }

  // 5. Materialize: the planner picks the best implementation per the
  //    min-execution-time policy (moves are inserted automatically when an
  //    implementation needs the data elsewhere).
  auto plan = server.MaterializeWorkflow(graph.value());
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("--- materialized plan ---\n%s\n",
              plan.value().ToString().c_str());

  // 6. Execute with monitoring + recovery; the observed runtimes feed the
  //    model-refinement library.
  const RecoveryOutcome outcome = server.RunWorkflow(graph.value()).recovery;
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 outcome.status.ToString().c_str());
    return 1;
  }
  std::printf("execution finished in %.2f simulated seconds "
              "(planning took %.3f ms, %d replans)\n",
              outcome.total_execution_seconds, outcome.total_planning_ms,
              outcome.replans);
  std::printf("LineCount model now holds %zu observed run(s)\n",
              server
                  .estimator("LineCount",
                             outcome.final_plan.steps.back().engine)
                  ->sample_count());
  return 0;
}
