#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/ires_server.h"
#include "engines/standard_engines.h"
#include "workloadgen/asap_workflows.h"
#include "workloadgen/pegasus.h"

namespace ires {
namespace {

/// Registers the deliverable's single-operator LineCount workflow (only a
/// Spark implementation, so every plan runs the same pair) and parses it.
WorkflowGraph RegisterLineCount(IresServer* server) {
  EXPECT_TRUE(server
                  ->RegisterArtifact(ArtifactKind::kDataset, "asapServerLog",
                                     "Optimization.documents=1000\n"
                                     "Execution.path=hdfs:///log\n"
                                     "Optimization.size=2e8\n"
                                     "Constraints.Engine.FS=HDFS\n")
                  .ok());
  EXPECT_TRUE(
      server
          ->RegisterArtifact(
              ArtifactKind::kAbstractOperator, "LineCount",
              "Constraints.OpSpecification.Algorithm.name=LineCount\n")
          .ok());
  EXPECT_TRUE(server
                  ->RegisterArtifact(
                      ArtifactKind::kMaterializedOperator, "LineCount_Spark",
                      "Constraints.Engine=Spark\n"
                      "Constraints.OpSpecification.Algorithm.name=LineCount\n"
                      "Constraints.Input0.Engine.FS=HDFS\n"
                      "Constraints.Output0.Engine.FS=HDFS\n")
                  .ok());
  auto graph = server->ParseWorkflow(
      "asapServerLog,LineCount,0\n"
      "LineCount,d1,0\n"
      "d1,$$target\n");
  EXPECT_TRUE(graph.ok()) << graph.status();
  return graph.ok() ? graph.value() : WorkflowGraph();
}

/// One observed run of `algorithm` on `gb` GB: output size and cardinality
/// proportional to the input, runtime roughly linear in it.
struct ProbeRun {
  OperatorRunRequest request;
  double seconds = 0.0;
  double bytes = 0.0;
  double records = 0.0;
};

ProbeRun MakeProbeRun(const std::string& algorithm, double gb, Rng* rng) {
  ProbeRun run;
  run.request.algorithm = algorithm;
  run.request.input_bytes = gb * 1e9;
  run.request.resources = {4, 2, 2.0};
  run.seconds = (3 + 10 * gb) * rng->Uniform(0.95, 1.05);
  run.bytes = run.request.input_bytes * 0.5;
  run.records = run.request.input_bytes / 1e4;
  return run;
}

void ObserveProbe(ModelLibrary* models, const std::string& engine,
                  const ProbeRun& run) {
  models->ObserveRun(run.request.algorithm, engine, run.request, run.seconds,
                     run.bytes, run.records);
}

TEST(IresServerTest, RegisterArtefactsFromDescriptions) {
  IresServer server;
  ASSERT_TRUE(server
                  .RegisterArtifact(ArtifactKind::kDataset, "asapServerLog",
                                    "Optimization.documents=1\n"
                                    "Execution.path=hdfs:///log\n"
                                    "Optimization.size=1e6\n"
                                    "Constraints.Engine.FS=HDFS\n")
                  .ok());
  ASSERT_TRUE(server
                  .RegisterArtifact(
                      ArtifactKind::kAbstractOperator, "LineCount",
                      "Constraints.OpSpecification.Algorithm.name=LineCount\n")
                  .ok());
  ASSERT_TRUE(
      server
          .RegisterArtifact(
              ArtifactKind::kMaterializedOperator, "LineCount_Spark",
              "Constraints.Engine=Spark\n"
              "Constraints.OpSpecification.Algorithm.name=LineCount\n"
              "Constraints.Input0.Engine.FS=HDFS\n"
              "Constraints.Output0.Engine.FS=HDFS\n")
          .ok());
  // Duplicate registration must fail.
  EXPECT_FALSE(
      server.RegisterArtifact(ArtifactKind::kDataset, "asapServerLog", "a=1\n")
          .ok());
}

TEST(IresServerTest, LineCountWorkflowEndToEnd) {
  // The deliverable's §3.3 walkthrough: register artefacts, parse the graph
  // file, materialize, execute.
  IresServer server;
  const WorkflowGraph graph = RegisterLineCount(&server);

  auto plan = server.MaterializeWorkflow(graph);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().steps.size(), 1u);
  EXPECT_EQ(plan.value().steps[0].engine, "Spark");

  const RecoveryOutcome outcome = server.RunWorkflow(graph).recovery;
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_GT(outcome.total_execution_seconds, 0.0);
}

TEST(IresServerTest, ImportLibraryAndExecuteTextWorkflow) {
  IresServer server;
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  ASSERT_TRUE(server.ImportLibrary(w.library).ok());
  const RecoveryOutcome outcome = server.RunWorkflow(w.graph).recovery;
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_TRUE(outcome.final_report.materialized.count("clusters") > 0);
}

TEST(IresServerTest, ExecutionRefinesModels) {
  IresServer server;
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  ASSERT_TRUE(server.ImportLibrary(w.library).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.RunWorkflow(w.graph).recovery.status.ok());
  }
  // The hybrid plan ran tf-idf on scikit and k-means on Spark 3 times each.
  EXPECT_EQ(server.estimator("TF_IDF", "scikit")->sample_count(), 3u);
  EXPECT_EQ(server.estimator("kmeans", "Spark")->sample_count(), 3u);
}

TEST(IresServerTest, ModelBasedEstimatorFallsBackToAnalytic) {
  ModelLibrary models;
  ModelBasedCostEstimator estimator(&models);
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");
  OperatorRunRequest request;
  request.algorithm = "Pagerank";
  request.input_bytes = 1e9;
  request.resources = spark->default_resources();
  auto model_est = estimator.Estimate(*spark, request);
  auto analytic = spark->Estimate(request);
  ASSERT_TRUE(model_est.ok());
  EXPECT_DOUBLE_EQ(model_est.value().exec_seconds,
                   analytic.value().exec_seconds);
}

TEST(IresServerTest, ModelBasedEstimatorUsesTrainedModel) {
  ModelLibrary models;
  // Train a constant-ish time model (~100 s) with fixed output stats.
  for (int i = 0; i < 30; ++i) {
    OperatorRunRequest r;
    r.algorithm = "Pagerank";
    r.input_bytes = 1e8 * (1 + i % 5);
    r.resources = {8, 2, 2.0};
    models.ObserveRun("Pagerank", "Spark", r, 100.0, 5e7, 1e6);
  }
  ModelBasedCostEstimator estimator(&models);
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");
  OperatorRunRequest request;
  request.algorithm = "Pagerank";
  request.input_bytes = 3e8;
  request.resources = {8, 2, 2.0};
  auto est = estimator.Estimate(*spark, request);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().exec_seconds, 100.0, 15.0);
  // Trained output models override the analytic ratios.
  EXPECT_NEAR(est.value().output_bytes, 5e7, 2e7);
}

TEST(IresServerTest, ModelBasedEstimatorKeepsFeasibilityFromEngine) {
  ModelLibrary models;
  ModelBasedCostEstimator estimator(&models);
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* java = registry->Find("Java");
  OperatorRunRequest request;
  request.algorithm = "Pagerank";
  request.input_bytes = 100e6 * kBytesPerEdge;  // OOM territory for Java
  request.resources = java->default_resources();
  EXPECT_EQ(estimator.Estimate(*java, request).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ModelLibraryTest, ObserveRunTrainsAllThreeMetrics) {
  ModelLibrary models;
  Rng rng(71);
  for (int i = 0; i < 30; ++i) {
    OperatorRunRequest r;
    r.algorithm = "TF_IDF";
    r.input_bytes = rng.Uniform(1e8, 2e9);
    r.resources = {4, 2, 2.0};
    models.ObserveRun("TF_IDF", "Spark", r, r.input_bytes / 1e8,
                      r.input_bytes * 0.5, r.input_bytes / 1e4);
  }
  const ModelLibrary::OperatorModels* m = models.Find("TF_IDF", "Spark");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->exec_time.has_model());
  EXPECT_TRUE(m->output_bytes.has_model());
  EXPECT_TRUE(m->output_records.has_model());
  // The output-bytes model learned the 0.5x ratio.
  OperatorRunRequest probe;
  probe.input_bytes = 1e9;
  probe.resources = {4, 2, 2.0};
  EXPECT_NEAR(
      m->output_bytes.Predict(Profiler::FeatureVector(probe)) / 1e9, 0.5,
      0.1);
}

TEST(ModelLibraryTest, SaveLoadRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ires_models_roundtrip";
  fs::remove_all(dir);

  ModelLibrary models;
  Rng rng(72);
  for (int i = 0; i < 25; ++i) {
    OperatorRunRequest r;
    r.algorithm = "Pagerank";
    r.input_bytes = rng.Uniform(1e8, 2e9);
    r.resources = {8, 2, 2.0};
    models.ObserveRun("Pagerank", "Hama", r, 6 + r.input_bytes / 4e7,
                      r.input_bytes * 0.1, r.input_bytes / 20);
  }
  ASSERT_TRUE(models.SaveToDirectory(dir.string()).ok());

  ModelLibrary restored;
  ASSERT_TRUE(restored.LoadFromDirectory(dir.string()).ok());
  const ModelLibrary::OperatorModels* m = restored.Find("Pagerank", "Hama");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->exec_time.sample_count(), 25u);
  EXPECT_TRUE(m->exec_time.has_model());
  // The restored model predicts like the original (same samples).
  const ModelLibrary::OperatorModels* orig = models.Find("Pagerank", "Hama");
  OperatorRunRequest probe;
  probe.input_bytes = 1.2e9;
  probe.resources = {8, 2, 2.0};
  const Vector f = Profiler::FeatureVector(probe);
  EXPECT_NEAR(m->exec_time.Predict(f), orig->exec_time.Predict(f),
              std::max(1.0, orig->exec_time.Predict(f) * 0.15));
  fs::remove_all(dir);
}

TEST(ModelLibraryTest, BackgroundRefitsMatchSynchronousObserve) {
  // One pair fed a fixed observation sequence that stops between two due
  // points: once the refits drain, every metric predicts bit-identically to
  // an estimator fed the same sequence through synchronous Observe, however
  // the refit tasks interleaved (late ones must lose to newer windows).
  IresServer server;
  OnlineEstimator exec_time, output_bytes, output_records;
  Rng rng(73);
  for (int i = 0; i < 37; ++i) {
    const ProbeRun run = MakeProbeRun("TF_IDF", rng.Uniform(0.1, 2.0), &rng);
    ObserveProbe(&server.models(), "Spark", run);
    const Vector f = Profiler::FeatureVector(run.request);
    exec_time.Observe(f, run.seconds);
    output_bytes.Observe(f, run.bytes);
    output_records.Observe(f, run.records);
  }
  server.models().WaitForRefits();
  const ModelLibrary::OperatorModels* m =
      server.models().Find("TF_IDF", "Spark");
  ASSERT_NE(m, nullptr);
  MutexLock lock(m->mu);
  EXPECT_EQ(m->exec_time.model_name(), exec_time.model_name());
  for (double gb : {0.2, 0.9, 1.8}) {
    OperatorRunRequest probe;
    probe.input_bytes = gb * 1e9;
    probe.resources = {4, 2, 2.0};
    const Vector f = Profiler::FeatureVector(probe);
    EXPECT_EQ(m->exec_time.Predict(f), exec_time.Predict(f));
    EXPECT_EQ(m->output_bytes.Predict(f), output_bytes.Predict(f));
    EXPECT_EQ(m->output_records.Predict(f), output_records.Predict(f));
  }
}

TEST(ModelLibraryTest, RefitTasksShowInTheFlightRecorder) {
  IresServer server;
  Rng rng(75);
  for (int i = 0; i < 5; ++i) {
    ObserveProbe(&server.models(), "Spark",
                 MakeProbeRun("TF_IDF", rng.Uniform(0.1, 2.0), &rng));
  }
  server.models().WaitForRefits();
  // The scheduler logs a labelled task's span just after the task returns,
  // which is after the drain above can see it finished.
  EventJournal::Filter filter;
  filter.has_kind = true;
  filter.kind = EventKind::kTaskSpan;
  int refit_spans = 0;
  for (int attempt = 0; attempt < 500 && refit_spans < 3; ++attempt) {
    refit_spans = 0;
    for (const JournalEvent& event : server.journal().Query(filter)) {
      if (event.detail == "model.refit") ++refit_spans;
    }
    if (refit_spans < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(refit_spans, 3);  // one per metric estimator
}

TEST(ModelLibraryTest, DueRefitsFoldIntoTheQueuedOne) {
  // Park the only worker so refit tasks stay queued: four due points per
  // estimator must leave one queued task each, which then fits the newest
  // window.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool parked = false;
  bool released = false;
  MetricsRegistry metrics;
  TaskScheduler scheduler(1);
  ASSERT_TRUE(scheduler.Submit([&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return released; });
  }));
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return parked; });
  }

  ModelLibrary models(&scheduler, &metrics);
  OnlineEstimator sync_exec_time;
  Rng rng(74);
  for (int i = 0; i < 20; ++i) {
    const ProbeRun run = MakeProbeRun("kmeans", rng.Uniform(0.1, 2.0), &rng);
    ObserveProbe(&models, "Spark", run);
    sync_exec_time.Observe(Profiler::FeatureVector(run.request), run.seconds);
  }
  const Gauge* pending = metrics.GetGauge("ires_model_refits_pending", "");
  EXPECT_EQ(pending->Value(), 3.0);
  // Appends alone never move the version the plan cache keys on.
  EXPECT_EQ(models.version(), 0u);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    released = true;
  }
  gate_cv.notify_all();
  models.WaitForRefits();

  auto refits = [&](const char* outcome) {
    return metrics
        .GetCounter("ires_model_refits_total", "", {{"outcome", outcome}})
        ->Value();
  };
  EXPECT_EQ(refits("installed"), 3u);
  EXPECT_EQ(refits("superseded"), 0u);
  EXPECT_EQ(refits("failed"), 0u);
  EXPECT_EQ(pending->Value(), 0.0);
  EXPECT_EQ(models.version(), 3u);
  const ModelLibrary::OperatorModels* m = models.Find("kmeans", "Spark");
  ASSERT_NE(m, nullptr);
  MutexLock lock(m->mu);
  OperatorRunRequest probe;
  probe.input_bytes = 1.1e9;
  probe.resources = {4, 2, 2.0};
  const Vector f = Profiler::FeatureVector(probe);
  EXPECT_EQ(m->exec_time.Predict(f), sync_exec_time.Predict(f));
}

TEST(ModelLibraryTest, ConcurrentObserversWithLiveScheduler) {
  // 8 threads observe 2 pairs while the server's scheduler refits: every
  // append lands, no estimator ever has more than one refit queued, and
  // destroying the server with refits still queued or running is clean.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  const std::string kAlgorithms[] = {"TF_IDF", "kmeans"};
  auto server = std::make_unique<IresServer>();
  const Gauge* pending =
      server->metrics().GetGauge("ires_model_refits_pending", "");
  std::atomic<bool> stop{false};
  double max_pending = 0.0;
  std::thread sampler([&] {
    while (!stop.load()) {
      max_pending = std::max(max_pending, pending->Value());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &kAlgorithms, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const ProbeRun run = MakeProbeRun(kAlgorithms[(t + i) % 2],
                                          rng.Uniform(0.1, 2.0), &rng);
        ObserveProbe(&server->models(), "Spark", run);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  sampler.join();

  EXPECT_LE(max_pending, 6.0);  // 2 pairs x 3 metrics
  for (const std::string& algorithm : kAlgorithms) {
    const ModelLibrary::OperatorModels* m =
        server->models().Find(algorithm, "Spark");
    ASSERT_NE(m, nullptr);
    MutexLock lock(m->mu);
    const size_t expected = kThreads * kPerThread / 2;
    EXPECT_EQ(m->exec_time.sample_count(), expected);
    EXPECT_EQ(m->output_bytes.sample_count(), expected);
    EXPECT_EQ(m->output_records.sample_count(), expected);
  }
  server.reset();
}

TEST(ModelLibraryTest, LoadMissingDirectoryFails) {
  ModelLibrary models;
  EXPECT_EQ(models.LoadFromDirectory("/no/such/models").code(),
            StatusCode::kNotFound);
}

TEST(IresServerTest, ModelsSurviveRestart) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ires_server_models";
  fs::remove_all(dir);
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  {
    IresServer server;
    ASSERT_TRUE(server.ImportLibrary(w.library).ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(server.RunWorkflow(w.graph).recovery.status.ok());
    }
    ASSERT_TRUE(server.SaveModels(dir.string()).ok());
  }
  IresServer restarted;
  ASSERT_TRUE(restarted.LoadModels(dir.string()).ok());
  EXPECT_EQ(restarted.estimator("TF_IDF", "scikit")->sample_count(), 6u);
  EXPECT_TRUE(restarted.estimator("TF_IDF", "scikit")->has_model());
  fs::remove_all(dir);
}

TEST(IresServerTest, RefinedPlansStayCachedBetweenRefits) {
  // With refined models on, the plan cache keys on the model version. Only
  // an installed refit moves it: the 5th and 10th observations of the one
  // pair make refits due, so runs 2-5 and 7-10 hit and 6 and 11 miss.
  IresServer::Config config;
  config.use_refined_models = true;
  IresServer server(config);
  const WorkflowGraph graph = RegisterLineCount(&server);
  for (int run = 1; run <= 11; ++run) {
    const uint64_t version = server.models().version();
    const IresServer::WorkflowRunResult result = server.RunWorkflow(graph);
    ASSERT_TRUE(result.recovery.status.ok()) << result.recovery.status;
    server.models().WaitForRefits();
    if (run % 5 == 0) {
      EXPECT_GT(server.models().version(), version) << "run " << run;
    } else {
      EXPECT_EQ(server.models().version(), version) << "run " << run;
    }
    EXPECT_EQ(result.plan_cache_hit, run != 1 && run % 5 != 1)
        << "run " << run;
  }
}

TEST(IresServerTest, ProvisioningConfigShrinksAllocations) {
  IresServer::Config config;
  config.provision_resources = true;
  IresServer server(config);
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(50e3);
  ASSERT_TRUE(server.ImportLibrary(w.library).ok());
  auto plan = server.MaterializeWorkflow(w.graph);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const PlanStep& step : plan.value().steps) {
    if (step.kind != PlanStep::Kind::kOperator) continue;
    EXPECT_LE(step.resources.containers, 8);
    EXPECT_GE(step.resources.containers, 1);
  }
}

/// Field-for-field plan equality, including the provisioned resources.
void ExpectSamePlan(const ExecutionPlan& a, const ExecutionPlan& b) {
  EXPECT_EQ(a.ToString(), b.ToString());
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].resources.ToString(), b.steps[i].resources.ToString());
    EXPECT_EQ(a.steps[i].resources.memory_gb, b.steps[i].resources.memory_gb);
    EXPECT_EQ(a.steps[i].estimated_seconds, b.steps[i].estimated_seconds);
    EXPECT_EQ(a.steps[i].estimated_cost, b.steps[i].estimated_cost);
  }
  EXPECT_EQ(a.estimated_seconds, b.estimated_seconds);
  EXPECT_EQ(a.estimated_cost, b.estimated_cost);
  EXPECT_EQ(a.metric, b.metric);
}

uint64_t FrontsComputed(IresServer* server) {
  return server->metrics()
      .GetCounter("ires_provisioner_fronts_total", "",
                  {{"outcome", "computed"}})
      ->Value();
}

TEST(IresServerTest, CalibrationChangeInvalidatesCachedPlans) {
  IresServer::Config config;
  config.provision_resources = true;
  IresServer server(config);
  const WorkflowGraph graph = RegisterLineCount(&server);
  const auto original = server.MaterializeWorkflow(graph);
  ASSERT_TRUE(original.ok()) << original.status();
  ASSERT_TRUE(server.MaterializeWorkflow(graph).ok());
  EXPECT_EQ(server.plan_cache().stats().hits, 1u);
  const uint64_t misses = server.plan_cache().stats().misses;
  const uint64_t computed = FrontsComputed(&server);

  // The Fig. 16b HDD -> SSD lever: the cached plan was priced at the old
  // factor, so it must miss, and the provisioner must recompute its front.
  SimulatedEngine* spark = server.engines().Find("Spark");
  spark->set_infrastructure_factor(0.5);
  const auto faster = server.MaterializeWorkflow(graph);
  ASSERT_TRUE(faster.ok()) << faster.status();
  EXPECT_EQ(server.plan_cache().stats().misses, misses + 1);
  EXPECT_LT(faster.value().estimated_seconds,
            original.value().estimated_seconds);
  EXPECT_GT(FrontsComputed(&server), computed);

  spark->set_infrastructure_factor(1.0);
  const auto restored = server.MaterializeWorkflow(graph);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(server.plan_cache().stats().misses, misses + 2);
  ExpectSamePlan(restored.value(), original.value());
}

/// A provisioning server over the five Pegasus families at one size, as
/// perfbench's pegasus_plan deploys them (three synthetic engines).
std::unique_ptr<IresServer> MakePegasusServer(
    const std::vector<GeneratedWorkload>& families) {
  IresServer::Config config;
  config.provision_resources = true;
  auto server = std::make_unique<IresServer>(config);
  PegasusGenerator::RegisterSyntheticEngines(&server->engines(), 3);
  for (const GeneratedWorkload& w : families) {
    EXPECT_TRUE(server->ImportLibrary(w.library).ok());
  }
  return server;
}

std::vector<ExecutionPlan> PlanAll(
    IresServer* server, const std::vector<GeneratedWorkload>& families) {
  std::vector<ExecutionPlan> plans;
  for (const GeneratedWorkload& w : families) {
    auto plan = server->MaterializeWorkflow(w.graph);
    EXPECT_TRUE(plan.ok()) << plan.status();
    plans.push_back(plan.ok() ? plan.value() : ExecutionPlan());
  }
  return plans;
}

// The server-wide front memo must serve re-plans completely (no GA run on
// the second pass) and leave every plan bit-identical to a cold server's.
TEST(IresServerTest, ProvisioningMemoServesReplansBitIdentically) {
  for (int operators : {10, 30, 50}) {
    SCOPED_TRACE("operators=" + std::to_string(operators));
    PegasusGenerator generator(2015);
    std::vector<GeneratedWorkload> families;
    for (PegasusType type :
         {PegasusType::kMontage, PegasusType::kCyberShake,
          PegasusType::kEpigenomics, PegasusType::kInspiral,
          PegasusType::kSipht}) {
      families.push_back(generator.Generate(type, operators, 3));
    }
    auto server = MakePegasusServer(families);
    const std::vector<ExecutionPlan> first = PlanAll(server.get(), families);
    const uint64_t computed = FrontsComputed(server.get());
    EXPECT_GT(computed, 0u);

    server->plan_cache().Clear();
    const uint64_t misses = server->plan_cache().stats().misses;
    const std::vector<ExecutionPlan> second = PlanAll(server.get(), families);
    EXPECT_EQ(server->plan_cache().stats().misses, misses + families.size());
    EXPECT_EQ(FrontsComputed(server.get()), computed);

    auto fresh = MakePegasusServer(families);
    const std::vector<ExecutionPlan> cold = PlanAll(fresh.get(), families);
    for (size_t i = 0; i < families.size(); ++i) {
      ExpectSamePlan(second[i], first[i]);
      ExpectSamePlan(cold[i], first[i]);
    }
  }
}

}  // namespace
}  // namespace ires
