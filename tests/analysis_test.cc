// Static-analysis suite: the workflow linter's malformed-workflow corpus
// (every seeded defect must surface the exact diagnostic code, severity and
// location), the plan verifier's tamper checks, and the REST/metrics wiring
// (POST /apiv1/validate, 422-with-diagnostics admission rejections and the
// ires_validation_rejects_total counter).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/plan_analyzer.h"
#include "analysis/workflow_analyzer.h"
#include "core/rest_api.h"
#include "engines/standard_engines.h"
#include "planner/dp_planner.h"
#include "service/job_service.h"
#include "workloadgen/pegasus.h"

namespace ires {
namespace {

MetadataTree MakeTree(
    const std::vector<std::pair<std::string, std::string>>& leaves) {
  MetadataTree tree;
  for (const auto& [path, value] : leaves) tree.Set(path, value);
  return tree;
}

/// First diagnostic with `code`, or nullptr.
const Diagnostic* FindCode(const std::vector<Diagnostic>& diags,
                           const std::string& code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

/// A minimal healthy library: materialized HDFS-text dataset `src`, abstract
/// operator `Op` and one Spark implementation reading/writing HDFS.
OperatorLibrary MakeSmallLibrary() {
  OperatorLibrary library;
  EXPECT_TRUE(library
                  .AddDataset(Dataset(
                      "src", MakeTree({{"Constraints.Engine.FS", "HDFS"},
                                       {"Constraints.type", "text"},
                                       {"Execution.path", "hdfs:///src"},
                                       {"Optimization.size", "5e8"},
                                       {"Optimization.documents", "1000"}})))
                  .ok());
  EXPECT_TRUE(
      library
          .AddAbstract(AbstractOperator(
              "Op",
              MakeTree({{"Constraints.OpSpecification.Algorithm.name", "Op"}})))
          .ok());
  EXPECT_TRUE(library
                  .AddMaterialized(MaterializedOperator(
                      "Op_Spark",
                      MakeTree({{"Constraints.Engine", "Spark"},
                                {"Constraints.OpSpecification.Algorithm.name",
                                 "Op"},
                                {"Constraints.Input0.Engine.FS", "HDFS"},
                                {"Constraints.Output0.Engine.FS", "HDFS"}})))
                  .ok());
  return library;
}

/// src -> Op -> d1, target d1.
WorkflowGraph MakeChain() {
  WorkflowGraph graph;
  graph.AddDataset("src");
  graph.AddOperator("Op");
  graph.AddDataset("d1");
  EXPECT_TRUE(graph.Connect("src", "Op", 0).ok());
  EXPECT_TRUE(graph.Connect("Op", "d1", 0).ok());
  EXPECT_TRUE(graph.SetTarget("d1").ok());
  return graph;
}

// ------------------------------------------------------ WorkflowAnalyzer

TEST(WorkflowAnalyzerTest, CleanWorkflowHasZeroDiagnostics) {
  OperatorLibrary library = MakeSmallLibrary();
  auto engines = MakeStandardEngineRegistry();
  WorkflowAnalyzer::Options options;
  options.library = &library;
  options.engines = engines.get();
  options.cluster_total_cores = 64;
  options.cluster_total_memory_gb = 128.0;
  OptimizationPolicy policy = OptimizationPolicy::Weighted(0.5, 0.5);
  const auto diags =
      WorkflowAnalyzer(options).Analyze(MakeChain(), &policy);
  EXPECT_TRUE(diags.empty()) << RenderText(diags);
}

TEST(WorkflowAnalyzerTest, MissingTargetIsWf001) {
  WorkflowGraph graph;
  graph.AddDataset("src");
  graph.AddOperator("Op");
  graph.AddDataset("d1");
  ASSERT_TRUE(graph.Connect("src", "Op").ok());
  ASSERT_TRUE(graph.Connect("Op", "d1").ok());
  const auto diags = WorkflowAnalyzer().Analyze(graph);
  const Diagnostic* d = FindCode(diags, diag::kNoTarget);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
}

TEST(WorkflowAnalyzerTest, CycleIsWf006WithCulpritOperators) {
  WorkflowGraph graph;
  graph.AddDataset("a");
  graph.AddDataset("b");
  graph.AddOperator("Op1");
  graph.AddOperator("Op2");
  ASSERT_TRUE(graph.Connect("a", "Op1").ok());
  ASSERT_TRUE(graph.Connect("Op1", "b").ok());
  ASSERT_TRUE(graph.Connect("b", "Op2").ok());
  ASSERT_TRUE(graph.Connect("Op2", "a").ok());
  ASSERT_TRUE(graph.SetTarget("b").ok());
  const auto diags = WorkflowAnalyzer().Analyze(graph);
  const Diagnostic* d = FindCode(diags, diag::kCycle);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_EQ(d->location.node, "Op1");
  EXPECT_NE(d->message.find("Op2"), std::string::npos);
  // The Status wrapper keeps its historical contract.
  EXPECT_EQ(graph.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(WorkflowAnalyzerTest, DanglingInputPortIsWf004AtThePort) {
  WorkflowGraph graph;
  graph.AddDataset("src");
  graph.AddOperator("Op");
  graph.AddDataset("d1");
  ASSERT_TRUE(graph.Connect("src", "Op", 1).ok());  // port 0 left dangling
  ASSERT_TRUE(graph.Connect("Op", "d1", 0).ok());
  ASSERT_TRUE(graph.SetTarget("d1").ok());
  const auto diags = WorkflowAnalyzer().Analyze(graph);
  const Diagnostic* d = FindCode(diags, diag::kDanglingInputPort);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_EQ(d->location.node, "Op");
  EXPECT_EQ(d->location.port, 0);
}

TEST(WorkflowAnalyzerTest, MultipleProducersIsWf005) {
  WorkflowGraph graph;
  graph.AddDataset("src");
  graph.AddOperator("Op1");
  graph.AddOperator("Op2");
  graph.AddDataset("d1");
  ASSERT_TRUE(graph.Connect("src", "Op1").ok());
  ASSERT_TRUE(graph.Connect("src", "Op2").ok());
  ASSERT_TRUE(graph.Connect("Op1", "d1").ok());
  ASSERT_TRUE(graph.Connect("Op2", "d1").ok());
  ASSERT_TRUE(graph.SetTarget("d1").ok());
  const auto diags = WorkflowAnalyzer().Analyze(graph);
  const Diagnostic* d = FindCode(diags, diag::kMultipleProducers);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->location.node, "d1");
}

TEST(WorkflowAnalyzerTest, OrphanNodeIsWf007Error) {
  WorkflowGraph graph = MakeChain();
  graph.AddDataset("stray");  // touches no edge at all
  const auto diags = WorkflowAnalyzer().Analyze(graph);
  const Diagnostic* d = FindCode(diags, diag::kOrphanNode);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_EQ(d->location.node, "stray");
}

TEST(WorkflowAnalyzerTest, DeadBranchIsWf008Warning) {
  WorkflowGraph graph = MakeChain();
  graph.AddOperator("Side");
  graph.AddDataset("d2");
  ASSERT_TRUE(graph.Connect("src", "Side").ok());
  ASSERT_TRUE(graph.Connect("Side", "d2").ok());
  const auto diags = WorkflowAnalyzer().Analyze(graph);
  const Diagnostic* d = FindCode(diags, diag::kUnreachableNode);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_FALSE(HasErrors(diags));  // warnings do not fail admission
}

TEST(WorkflowAnalyzerTest, UnknownAndAbstractSourceDatasets) {
  OperatorLibrary library = MakeSmallLibrary();
  EXPECT_TRUE(library
                  .AddDataset(Dataset("ghost",
                                      MakeTree({{"Constraints.Engine.FS",
                                                 "HDFS"}})))  // no path
                  .ok());
  auto engines = MakeStandardEngineRegistry();
  WorkflowAnalyzer::Options options;
  options.library = &library;
  options.engines = engines.get();

  WorkflowGraph unknown;
  unknown.AddDataset("nowhere");
  unknown.AddOperator("Op");
  unknown.AddDataset("d1");
  ASSERT_TRUE(unknown.Connect("nowhere", "Op").ok());
  ASSERT_TRUE(unknown.Connect("Op", "d1").ok());
  ASSERT_TRUE(unknown.SetTarget("d1").ok());
  auto diags = WorkflowAnalyzer(options).Analyze(unknown);
  const Diagnostic* d = FindCode(diags, diag::kUnknownSourceDataset);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->location.node, "nowhere");

  WorkflowGraph abstract_src;
  abstract_src.AddDataset("ghost");
  abstract_src.AddOperator("Op");
  abstract_src.AddDataset("d1");
  ASSERT_TRUE(abstract_src.Connect("ghost", "Op").ok());
  ASSERT_TRUE(abstract_src.Connect("Op", "d1").ok());
  ASSERT_TRUE(abstract_src.SetTarget("d1").ok());
  diags = WorkflowAnalyzer(options).Analyze(abstract_src);
  d = FindCode(diags, diag::kAbstractSourceDataset);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->location.node, "ghost");
}

TEST(WorkflowAnalyzerTest, UnresolvableOperatorIsWf011) {
  OperatorLibrary library = MakeSmallLibrary();
  auto engines = MakeStandardEngineRegistry();
  WorkflowAnalyzer::Options options;
  options.library = &library;
  options.engines = engines.get();
  WorkflowGraph graph;
  graph.AddDataset("src");
  graph.AddOperator("Mystery");  // nothing materializes it
  graph.AddDataset("d1");
  ASSERT_TRUE(graph.Connect("src", "Mystery").ok());
  ASSERT_TRUE(graph.Connect("Mystery", "d1").ok());
  ASSERT_TRUE(graph.SetTarget("d1").ok());
  const auto diags = WorkflowAnalyzer(options).Analyze(graph);
  const Diagnostic* d = FindCode(diags, diag::kUnresolvableOperator);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_EQ(d->location.node, "Mystery");
}

TEST(WorkflowAnalyzerTest, EngineRemovedAfterRegistrationIsWf011) {
  // The platform removes an unavailable engine's operators outright
  // (RemoveByEngine): the operator that resolved at registration time no
  // longer does at submission time.
  OperatorLibrary library = MakeSmallLibrary();
  auto engines = MakeStandardEngineRegistry();
  WorkflowAnalyzer::Options options;
  options.library = &library;
  options.engines = engines.get();
  EXPECT_TRUE(
      WorkflowAnalyzer(options).Analyze(MakeChain()).empty());
  EXPECT_EQ(library.RemoveByEngine("Spark"), 1);
  const auto diags = WorkflowAnalyzer(options).Analyze(MakeChain());
  ASSERT_NE(FindCode(diags, diag::kUnresolvableOperator), nullptr)
      << RenderText(diags);
}

TEST(WorkflowAnalyzerTest, EngineSwitchedOffIsWf012) {
  OperatorLibrary library = MakeSmallLibrary();
  auto engines = MakeStandardEngineRegistry();
  ASSERT_TRUE(engines->SetAvailable("Spark", false).ok());
  WorkflowAnalyzer::Options options;
  options.library = &library;
  options.engines = engines.get();
  const auto diags = WorkflowAnalyzer(options).Analyze(MakeChain());
  const Diagnostic* d = FindCode(diags, diag::kNoAvailableEngine);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_EQ(d->location.node, "Op");
  EXPECT_NE(d->message.find("Spark"), std::string::npos);
}

TEST(WorkflowAnalyzerTest, HardPortMismatchIsWf013ButMovesAreNot) {
  OperatorLibrary library = MakeSmallLibrary();
  // vec: right store, wrong schema — not bridgeable by any move.
  EXPECT_TRUE(library
                  .AddDataset(Dataset(
                      "vec", MakeTree({{"Constraints.Engine.FS", "HDFS"},
                                       {"Constraints.schema", "text"},
                                       {"Execution.path", "hdfs:///vec"}})))
                  .ok());
  // local: wrong store only — one move hop fixes it, so no diagnostic.
  EXPECT_TRUE(library
                  .AddDataset(Dataset(
                      "local", MakeTree({{"Constraints.Engine.FS", "Local"},
                                         {"Execution.path", "/tmp/x"}})))
                  .ok());
  EXPECT_TRUE(library
                  .AddMaterialized(MaterializedOperator(
                      "Strict_Spark",
                      MakeTree({{"Constraints.Engine", "Spark"},
                                {"Constraints.OpSpecification.Algorithm.name",
                                 "Strict"},
                                {"Constraints.Input0.schema", "vector"}})))
                  .ok());
  auto engines = MakeStandardEngineRegistry();
  WorkflowAnalyzer::Options options;
  options.library = &library;
  options.engines = engines.get();

  WorkflowGraph bad;
  bad.AddDataset("vec");
  bad.AddOperator("Strict");
  bad.AddDataset("d1");
  ASSERT_TRUE(bad.Connect("vec", "Strict", 0).ok());
  ASSERT_TRUE(bad.Connect("Strict", "d1").ok());
  ASSERT_TRUE(bad.SetTarget("d1").ok());
  const auto diags = WorkflowAnalyzer(options).Analyze(bad);
  const Diagnostic* d = FindCode(diags, diag::kPortMismatch);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_EQ(d->location.node, "Strict");
  EXPECT_EQ(d->location.port, 0);
  EXPECT_EQ(d->location.path, "schema");

  WorkflowGraph movable;
  movable.AddDataset("local");
  movable.AddOperator("Op");
  movable.AddDataset("d1");
  ASSERT_TRUE(movable.Connect("local", "Op", 0).ok());
  ASSERT_TRUE(movable.Connect("Op", "d1").ok());
  ASSERT_TRUE(movable.SetTarget("d1").ok());
  const auto clean = WorkflowAnalyzer(options).Analyze(movable);
  EXPECT_EQ(FindCode(clean, diag::kPortMismatch), nullptr)
      << RenderText(clean);
}

TEST(WorkflowAnalyzerTest, DeclaredArityMismatchIsWf014) {
  OperatorLibrary library = MakeSmallLibrary();
  EXPECT_TRUE(
      library
          .AddAbstract(AbstractOperator(
              "Join",
              MakeTree({{"Constraints.OpSpecification.Algorithm.name", "Join"},
                        {"Constraints.Input.number", "2"}})))
          .ok());
  EXPECT_TRUE(library
                  .AddMaterialized(MaterializedOperator(
                      "Join_Spark",
                      MakeTree({{"Constraints.Engine", "Spark"},
                                {"Constraints.OpSpecification.Algorithm.name",
                                 "Join"},
                                {"Constraints.Input.number", "2"}})))
                  .ok());
  auto engines = MakeStandardEngineRegistry();
  WorkflowAnalyzer::Options options;
  options.library = &library;
  options.engines = engines.get();
  WorkflowGraph graph;
  graph.AddDataset("src");
  graph.AddOperator("Join");
  graph.AddDataset("d1");
  ASSERT_TRUE(graph.Connect("src", "Join", 0).ok());  // only 1 of 2 inputs
  ASSERT_TRUE(graph.Connect("Join", "d1").ok());
  ASSERT_TRUE(graph.SetTarget("d1").ok());
  const auto diags = WorkflowAnalyzer(options).Analyze(graph);
  const Diagnostic* d = FindCode(diags, diag::kArityMismatch);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->location.node, "Join");
  EXPECT_EQ(d->location.path, "Constraints.Input.number");
}

TEST(WorkflowAnalyzerTest, OverCapacityAskIsWf015) {
  OperatorLibrary library = MakeSmallLibrary();
  EXPECT_TRUE(library
                  .AddMaterialized(MaterializedOperator(
                      "Huge_Big",
                      MakeTree({{"Constraints.Engine", "Big"},
                                {"Constraints.OpSpecification.Algorithm.name",
                                 "Huge"}})))
                  .ok());
  EngineRegistry engines;
  SimulatedEngine::Config cfg;
  cfg.name = "Big";
  cfg.default_resources = Resources{1000, 64, 512.0};
  cfg.native_store = "HDFS";
  ASSERT_TRUE(engines.Add(std::make_unique<SimulatedEngine>(cfg)).ok());
  WorkflowAnalyzer::Options options;
  options.library = &library;
  options.engines = &engines;
  options.cluster_total_cores = 64;
  options.cluster_total_memory_gb = 128.0;
  WorkflowGraph graph;
  graph.AddDataset("src");
  graph.AddOperator("Huge");
  graph.AddDataset("d1");
  ASSERT_TRUE(graph.Connect("src", "Huge").ok());
  ASSERT_TRUE(graph.Connect("Huge", "d1").ok());
  ASSERT_TRUE(graph.SetTarget("d1").ok());
  const auto diags = WorkflowAnalyzer(options).Analyze(graph);
  const Diagnostic* d = FindCode(diags, diag::kOverCapacity);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_EQ(d->location.node, "Huge");
}

TEST(WorkflowAnalyzerTest, BadPolicyWeightsArePo001) {
  const WorkflowGraph graph = MakeChain();
  OptimizationPolicy negative = OptimizationPolicy::Weighted(-1.0, 0.5);
  auto diags = WorkflowAnalyzer().Analyze(graph, &negative);
  const Diagnostic* d = FindCode(diags, diag::kBadPolicyWeights);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kError);

  OptimizationPolicy zeros = OptimizationPolicy::Weighted(0.0, 0.0);
  diags = WorkflowAnalyzer().Analyze(graph, &zeros);
  EXPECT_NE(FindCode(diags, diag::kBadPolicyWeights), nullptr);

  OptimizationPolicy fine = OptimizationPolicy::Weighted(0.7, 0.3);
  diags = WorkflowAnalyzer().Analyze(graph, &fine);
  EXPECT_EQ(FindCode(diags, diag::kBadPolicyWeights), nullptr);
}

TEST(WorkflowAnalyzerTest, CleanPegasusWorkflowPassesAndStillPlans) {
  PegasusGenerator generator(7);
  GeneratedWorkload workload =
      generator.Generate(PegasusType::kMontage, 20, 3);
  EngineRegistry engines;
  PegasusGenerator::RegisterSyntheticEngines(&engines, 3);
  WorkflowAnalyzer::Options options;
  options.library = &workload.library;
  options.engines = &engines;
  const auto diags =
      WorkflowAnalyzer(options).Analyze(workload.graph);
  EXPECT_TRUE(diags.empty()) << RenderText(diags);
  // Planner behaviour is unchanged by the linter: the workload still plans.
  DpPlanner planner(&workload.library, &engines);
  auto plan = planner.Plan(workload.graph, DpPlanner::Options());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan.value().steps.empty());
}

// ---------------------------------------------------------- PlanAnalyzer

class PlanAnalyzerTest : public ::testing::Test {
 protected:
  PlanAnalyzerTest()
      : library_(MakeSmallLibrary()), engines_(MakeStandardEngineRegistry()) {
    DpPlanner planner(&library_, engines_.get());
    auto plan = planner.Plan(MakeChain(), DpPlanner::Options());
    EXPECT_TRUE(plan.ok());
    plan_ = std::move(plan).value();
  }

  PlanAnalyzer MakeAnalyzer(int cores = 0, double memory_gb = 0.0) {
    PlanAnalyzer::Options options;
    options.library = &library_;
    options.engines = engines_.get();
    options.cluster_total_cores = cores;
    options.cluster_total_memory_gb = memory_gb;
    return PlanAnalyzer(options);
  }

  OperatorLibrary library_;
  std::unique_ptr<EngineRegistry> engines_;
  ExecutionPlan plan_;
};

TEST_F(PlanAnalyzerTest, CleanPlanHasZeroDiagnostics) {
  const auto diags = MakeAnalyzer(64, 128.0).Analyze(plan_);
  EXPECT_TRUE(diags.empty()) << RenderText(diags);
}

TEST_F(PlanAnalyzerTest, TamperedIdsDepsEnginesAndEstimatesAreCaught) {
  ExecutionPlan tampered = plan_;
  tampered.steps.back().id += 5;
  auto diags = MakeAnalyzer().Analyze(tampered);
  ASSERT_NE(FindCode(diags, diag::kStepIdMismatch), nullptr)
      << RenderText(diags);

  tampered = plan_;
  tampered.steps.back().deps.push_back(tampered.steps.back().id);  // self-dep
  diags = MakeAnalyzer().Analyze(tampered);
  ASSERT_NE(FindCode(diags, diag::kBadDependency), nullptr)
      << RenderText(diags);

  tampered = plan_;
  tampered.steps.back().engine = "NoSuchEngine";
  diags = MakeAnalyzer().Analyze(tampered);
  ASSERT_NE(FindCode(diags, diag::kUnknownEngine), nullptr)
      << RenderText(diags);

  tampered = plan_;
  tampered.steps.back().estimated_seconds = -1.0;
  diags = MakeAnalyzer().Analyze(tampered);
  const Diagnostic* d = FindCode(diags, diag::kBadEstimate);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
}

TEST_F(PlanAnalyzerTest, SwitchedOffEngineIsPl004) {
  ASSERT_TRUE(engines_->SetAvailable("Spark", false).ok());
  const auto diags = MakeAnalyzer().Analyze(plan_);
  ASSERT_NE(FindCode(diags, diag::kEngineUnavailable), nullptr)
      << RenderText(diags);
}

TEST_F(PlanAnalyzerTest, MalformedMoveIsPl009) {
  ExecutionPlan tampered = plan_;
  PlanStep move;
  move.id = static_cast<int>(tampered.steps.size());
  move.kind = PlanStep::Kind::kMove;
  move.name = "move(broken)";
  move.engine = "Spark";
  move.algorithm = "Move";
  // No outputs, no upstream: doubly malformed.
  tampered.steps.push_back(move);
  const auto diags = MakeAnalyzer().Analyze(tampered);
  const Diagnostic* d = FindCode(diags, diag::kMalformedMove);
  ASSERT_NE(d, nullptr) << RenderText(diags);
  EXPECT_EQ(d->location.step, move.id);
}

TEST_F(PlanAnalyzerTest, OverCapacityStepIsPl007) {
  ExecutionPlan tampered = plan_;
  tampered.steps.back().resources = Resources{100, 8, 16.0};
  const auto diags = MakeAnalyzer(64, 128.0).Analyze(tampered);
  ASSERT_NE(FindCode(diags, diag::kStepOverCapacity), nullptr)
      << RenderText(diags);
}

TEST_F(PlanAnalyzerTest, UnknownSourceDatasetIsPl010) {
  ExecutionPlan tampered = plan_;
  tampered.steps.front().source_datasets.push_back("not-registered");
  const auto diags = MakeAnalyzer().Analyze(tampered);
  ASSERT_NE(FindCode(diags, diag::kUnknownPlanSource), nullptr)
      << RenderText(diags);
}

// ------------------------------------------------------------ Diagnostics

TEST(DiagnosticsTest, RenderingAndStatusBridge) {
  Diagnostic d;
  d.code = diag::kCycle;
  d.severity = DiagSeverity::kError;
  d.location = DiagLocation::Port("op \"x\"", 2);
  d.location.path = "Engine.FS";
  d.message = "broken";
  d.fix_hint = "fix it";
  EXPECT_EQ(d.ToString(),
            "error WF006 at node 'op \"x\"' port 2 (path Engine.FS): broken "
            "[fix: fix it]");
  const std::string json = d.ToJson();
  EXPECT_NE(json.find("\"code\":\"WF006\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"x\\\""), std::string::npos) << json;  // escaped
  EXPECT_NE(json.find("\"port\":2"), std::string::npos) << json;

  Diagnostic warning;
  warning.code = diag::kUnreachableNode;
  warning.severity = DiagSeverity::kWarning;
  warning.message = "meh";
  EXPECT_TRUE(DiagnosticsToStatus({warning}).ok());
  const Status status = DiagnosticsToStatus({warning, d});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("WF006"), std::string::npos);
  EXPECT_EQ(RenderJson({}), "[]");
}

// ------------------------------------------------- REST + metrics wiring

TEST(ValidationApiTest, DryRunValidateReportsWithoutCounting) {
  IresServer server;
  RestApi api(&server);
  ASSERT_EQ(api.Handle("POST", "/apiv1/datasets/asapServerLog",
                       "Constraints.Engine.FS=HDFS\n"
                       "Execution.path=hdfs:///log\n"
                       "Optimization.size=5e8\n")
                .code,
            201);
  // Register the abstract shape only — no materialized implementation, so
  // the workflow parses but cannot be resolved (WF011).
  ASSERT_EQ(api.Handle("POST", "/apiv1/abstractOperators/Mystery",
                       "Constraints.OpSpecification.Algorithm.name=Mystery\n")
                .code,
            201);
  ApiResponse response =
      api.Handle("POST", "/apiv1/validate",
                 "asapServerLog,Mystery,0\nMystery,d1,0\nd1,$$target\n");
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_NE(response.body.find("\"valid\":false"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"WF011\""), std::string::npos)
      << response.body;
  // Dry-run linting never counts admission rejects.
  const std::string metrics = api.Handle("GET", "/apiv1/metrics").body;
  EXPECT_EQ(metrics.find("ires_validation_rejects_total"), std::string::npos);

  // A clean workflow validates true with zero findings.
  ASSERT_EQ(api.Handle("POST", "/apiv1/abstractOperators/LineCount",
                       "Constraints.OpSpecification.Algorithm.name="
                       "LineCount\n")
                .code,
            201);
  ASSERT_EQ(api.Handle("POST", "/apiv1/operators/LineCount_Spark",
                       "Constraints.Engine=Spark\n"
                       "Constraints.OpSpecification.Algorithm.name="
                       "LineCount\n")
                .code,
            201);
  response = api.Handle("POST", "/apiv1/validate",
                        "asapServerLog,LineCount,0\nLineCount,d1,0\n"
                        "d1,$$target\n");
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_NE(response.body.find("\"valid\":true"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"diagnostics\":[]"), std::string::npos)
      << response.body;

  // Unparseable graphs are a 400, not a lint report.
  EXPECT_EQ(api.Handle("POST", "/apiv1/validate", "one-field-only\n").code,
            400);
}

TEST(ValidationApiTest, AdmissionRejectsWith422DiagnosticsAndCounter) {
  IresServer server;
  RestApi api(&server);
  ASSERT_EQ(api.Handle("POST", "/apiv1/datasets/asapServerLog",
                       "Constraints.Engine.FS=HDFS\n"
                       "Execution.path=hdfs:///log\n"
                       "Optimization.size=5e8\n")
                .code,
            201);
  ASSERT_EQ(api.Handle("POST", "/apiv1/abstractOperators/Mystery",
                       "Constraints.OpSpecification.Algorithm.name=Mystery\n")
                .code,
            201);
  // The store route only checks structure, so an unresolvable operator
  // still stores fine...
  ASSERT_EQ(api.Handle("POST", "/apiv1/workflows/wf",
                       "asapServerLog,Mystery,0\nMystery,d1,0\nd1,$$target\n")
                .code,
            201);
  // ...and is rejected at materialize/execute time with diagnostics.
  ApiResponse response =
      api.Handle("POST", "/apiv1/workflows/wf/materialize");
  EXPECT_EQ(response.code, 422) << response.body;
  EXPECT_NE(response.body.find("\"diagnostics\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"WF011\""), std::string::npos)
      << response.body;
  response = api.Handle("POST", "/apiv1/workflows/wf/execute?mode=async");
  EXPECT_EQ(response.code, 422) << response.body;
  EXPECT_NE(response.body.find("\"WF011\""), std::string::npos)
      << response.body;

  const std::string metrics = api.Handle("GET", "/apiv1/metrics").body;
  const size_t pos = metrics.find("ires_validation_rejects_total");
  ASSERT_NE(pos, std::string::npos) << metrics;
  EXPECT_NE(metrics.find("WF011", pos), std::string::npos);
}

TEST(ValidationApiTest, JobServiceSubmitGatesOnTheLinter) {
  IresServer server;
  ASSERT_TRUE(server
                  .RegisterArtifact(ArtifactKind::kDataset, "asapServerLog",
                                    "Constraints.Engine.FS=HDFS\n"
                                    "Execution.path=hdfs:///log\n"
                                    "Optimization.size=5e8\n")
                  .ok());
  ASSERT_TRUE(server
                  .RegisterArtifact(
                      ArtifactKind::kAbstractOperator, "Mystery",
                      "Constraints.OpSpecification.Algorithm.name=Mystery\n")
                  .ok());
  auto graph = server.ParseWorkflow(
      "asapServerLog,Mystery,0\nMystery,d1,0\nd1,$$target\n");
  ASSERT_TRUE(graph.ok());
  JobService jobs(&server);
  auto id = jobs.Submit(graph.value(), "wf");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(id.status().message().find("WF011"), std::string::npos)
      << id.status().message();
  // Submit-path rejects are tenant-attributable (direct submissions land
  // on the "default" tenant).
  EXPECT_EQ(server.metrics()
                .GetCounter("ires_validation_rejects_total",
                            "Workflow submissions rejected by static "
                            "analysis, by diagnostic code.",
                            {{"code", diag::kUnresolvableOperator},
                             {"tenant", "default"}})
                ->Value(),
            1u);
}

}  // namespace
}  // namespace ires
