// Cross-cutting property tests: determinism of the whole pipeline,
// monotonicity of every engine's performance model, and algebraic
// properties of the metadata matcher on random trees.

#include <gtest/gtest.h>

#include "core/ires_server.h"
#include "engines/standard_engines.h"
#include "workloadgen/asap_workflows.h"

namespace ires {
namespace {

// ------------------------------------------------------------ determinism
TEST(DeterminismTest, IdenticalServersProduceIdenticalRuns) {
  auto run_once = [] {
    IresServer server;
    const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
    EXPECT_TRUE(server.ImportLibrary(w.library).ok());
    const RecoveryOutcome outcome = server.RunWorkflow(w.graph).recovery;
    EXPECT_TRUE(outcome.status.ok()) << outcome.status;
    return outcome.total_execution_seconds;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentGroundTruth) {
  auto run_with_seed = [](uint64_t seed) {
    IresServer::Config config;
    config.seed = seed;
    IresServer server(config);
    const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
    EXPECT_TRUE(server.ImportLibrary(w.library).ok());
    const RecoveryOutcome outcome = server.RunWorkflow(w.graph).recovery;
    EXPECT_TRUE(outcome.status.ok()) << outcome.status;
    return outcome.total_execution_seconds;
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

// ----------------------------------------------- engine model monotonicity
struct EngineCase {
  const char* engine;
  const char* algorithm;
  double max_gb;  // keep inside the engine's feasibility envelope
};

class EngineMonotonicityTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineMonotonicityTest, RuntimeNonDecreasingInInputSize) {
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* engine = registry->Find(GetParam().engine);
  ASSERT_NE(engine, nullptr);
  double previous = 0.0;
  for (int i = 1; i <= 10; ++i) {
    OperatorRunRequest r;
    r.algorithm = GetParam().algorithm;
    r.input_bytes = GetParam().max_gb * 1e9 * i / 10.0;
    r.resources = engine->default_resources();
    auto est = engine->Estimate(r);
    ASSERT_TRUE(est.ok()) << GetParam().engine << " @" << r.input_bytes;
    EXPECT_GE(est.value().exec_seconds, previous);
    EXPECT_GT(est.value().exec_seconds, 0.0);
    EXPECT_GE(est.value().output_bytes, 0.0);
    previous = est.value().exec_seconds;
  }
}

TEST_P(EngineMonotonicityTest, CostConsistentWithDuration) {
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* engine = registry->Find(GetParam().engine);
  OperatorRunRequest r;
  r.algorithm = GetParam().algorithm;
  r.input_bytes = GetParam().max_gb * 1e9 / 2;
  r.resources = engine->default_resources();
  auto est = engine->Estimate(r);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().cost,
              r.resources.CostForDuration(est.value().exec_seconds),
              est.value().cost * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineMonotonicityTest,
    ::testing::Values(EngineCase{"Java", "Pagerank", 0.5},
                      EngineCase{"Java", "Wordcount", 1.4},
                      EngineCase{"Python", "HelloWorld", 0.9},
                      EngineCase{"scikit", "TF_IDF", 2.0},
                      EngineCase{"scikit", "kmeans", 1.8},
                      EngineCase{"Cilk", "TF_IDF", 2.8},
                      EngineCase{"Spark", "Pagerank", 50.0},
                      EngineCase{"Spark", "TF_IDF", 50.0},
                      EngineCase{"MLLib", "kmeans", 20.0},
                      EngineCase{"Hama", "Pagerank", 1.7},
                      EngineCase{"MapReduce", "Wordcount", 50.0},
                      EngineCase{"PostgreSQL", "SPJQuery", 50.0},
                      EngineCase{"MemSQL", "SPJQuery", 7.0},
                      EngineCase{"Hive", "SPJQuery", 50.0}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(info.param.engine) + "_" + info.param.algorithm;
    });

// ------------------------------------------------ metadata match algebra
MetadataTree RandomTree(Rng* rng, int leaves) {
  MetadataTree tree;
  static const char* kSegments[] = {"Constraints", "Engine", "Input0",
                                    "type",        "FS",     "Algorithm",
                                    "Execution",   "path",   "extra"};
  for (int i = 0; i < leaves; ++i) {
    std::string path;
    const int depth = static_cast<int>(rng->UniformInt(1, 4));
    for (int d = 0; d < depth; ++d) {
      if (d > 0) path += ".";
      path += kSegments[rng->UniformInt(0, 8)];
      path += std::to_string(rng->UniformInt(0, 3));
    }
    tree.Set(path, "v" + std::to_string(rng->UniformInt(0, 5)));
  }
  return tree;
}

class MetadataAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(MetadataAlgebraTest, MatchingIsReflexive) {
  Rng rng(GetParam() * 131 + 7);
  const MetadataTree tree = RandomTree(&rng, 12);
  EXPECT_TRUE(MatchTrees(tree, tree).matched);
}

TEST_P(MetadataAlgebraTest, SupersetStillMatchesAndPrunedPatternToo) {
  Rng rng(GetParam() * 131 + 8);
  MetadataTree pattern = RandomTree(&rng, 8);
  // Concrete = pattern + extra fields: must match.
  MetadataTree concrete = pattern;
  concrete.Set("zzz.added.field", "x");
  concrete.Set("aaa.added", "y");
  EXPECT_TRUE(MatchTrees(pattern, concrete).matched);
  // Removing a random pattern leaf keeps the (smaller) pattern matching.
  auto flat = pattern.Flatten();
  if (!flat.empty()) {
    pattern.Erase(flat[rng.UniformInt(0, flat.size() - 1)].first);
    EXPECT_TRUE(MatchTrees(pattern, concrete).matched);
  }
}

TEST_P(MetadataAlgebraTest, ChangedLeafValueBreaksMatch) {
  Rng rng(GetParam() * 131 + 9);
  const MetadataTree pattern = RandomTree(&rng, 10);
  MetadataTree concrete = pattern;
  auto flat = pattern.Flatten();
  ASSERT_FALSE(flat.empty());
  const auto& [path, value] = flat[rng.UniformInt(0, flat.size() - 1)];
  concrete.Set(path, value + "_changed");
  MatchResult r = MatchTrees(pattern, concrete);
  EXPECT_FALSE(r.matched);
  EXPECT_EQ(r.mismatch_path, path);
}

TEST_P(MetadataAlgebraTest, WildcardedPatternMatchesAnyValues) {
  Rng rng(GetParam() * 131 + 10);
  const MetadataTree concrete = RandomTree(&rng, 10);
  MetadataTree pattern = concrete;
  for (const auto& [path, value] : pattern.Flatten()) {
    pattern.Set(path, "*");
  }
  EXPECT_TRUE(MatchTrees(pattern, concrete).matched);
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, MetadataAlgebraTest,
                         ::testing::Range(0, 10));

// -------------------------------------------------------- policy algebra
TEST(PolicyTest, MetricFormulas) {
  EXPECT_DOUBLE_EQ(OptimizationPolicy::MinimizeTime().Metric(7, 100), 7);
  EXPECT_DOUBLE_EQ(OptimizationPolicy::MinimizeCost().Metric(7, 100), 100);
  EXPECT_DOUBLE_EQ(OptimizationPolicy::Weighted(2, 0.5).Metric(7, 100),
                   2 * 7 + 0.5 * 100);
}

TEST(PolicyTest, ToStringNamesObjective) {
  EXPECT_EQ(OptimizationPolicy::MinimizeTime().ToString(), "min-time");
  EXPECT_EQ(OptimizationPolicy::MinimizeCost().ToString(), "min-cost");
  EXPECT_NE(OptimizationPolicy::Weighted(1, 2).ToString().find("weighted"),
            std::string::npos);
}

}  // namespace
}  // namespace ires
