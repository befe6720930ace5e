// PlannerContext: memoized candidate resolution, invalidation on library /
// engine-registry version bumps, snapshot safety across RemoveByEngine,
// concurrency (exercised under TSan in CI) and the deep-chain
// reconstruction regression.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "planner/dp_planner.h"
#include "planner/pareto_planner.h"
#include "planner/planner_context.h"
#include "workloadgen/pegasus.h"

namespace ires {
namespace {

GeneratedWorkload MakeWorkload(int operators = 24, int m = 4) {
  PegasusGenerator gen(99);
  return gen.Generate(PegasusType::kEpigenomics, operators, m);
}

MaterializedOperator MakeImpl(const std::string& name,
                              const std::string& algorithm,
                              const std::string& engine,
                              const std::string& store) {
  MetadataTree meta;
  meta.Set("Constraints.Engine", engine);
  meta.Set("Constraints.OpSpecification.Algorithm.name", algorithm);
  meta.Set("Constraints.Input0.Engine.FS", store);
  meta.Set("Constraints.Output0.Engine.FS", store);
  meta.Set("Constraints.Output0.type", "bin");
  return MaterializedOperator(name, std::move(meta));
}

// ---- Memoization and counters. ---------------------------------------------

TEST(PlannerContextTest, RepeatedResolveHitsTheCache) {
  GeneratedWorkload w = MakeWorkload();
  EngineRegistry registry;
  PegasusGenerator::RegisterSyntheticEngines(&registry, 4);
  PlannerContext context(&w.library, &registry);

  // Every abstract node in the workload resolves through the index; the
  // second pass must be all hits.
  const CandidateSnapshot first = context.Resolve("fastQSplit_0");
  EXPECT_GT(first.size(), 0u);
  const PlannerContext::Stats after_miss = context.stats();
  EXPECT_EQ(after_miss.misses, 1u);
  EXPECT_EQ(after_miss.hits, 0u);

  const CandidateSnapshot second = context.Resolve("fastQSplit_0");
  const PlannerContext::Stats after_hit = context.stats();
  EXPECT_EQ(after_hit.misses, 1u);
  EXPECT_EQ(after_hit.hits, 1u);
  ASSERT_EQ(second.size(), first.size());
  // Hit returns the identical shared set, not a rebuilt copy.
  EXPECT_EQ(&first[0], &second[0]);
}

TEST(PlannerContextTest, SynthesizesAbstractForInlineOperators) {
  OperatorLibrary library;
  ASSERT_TRUE(
      library.AddMaterialized(MakeImpl("Grep_Eng0", "Grep", "Eng0", "Store0"))
          .ok());
  EngineRegistry registry;
  PegasusGenerator::RegisterSyntheticEngines(&registry, 1);
  PlannerContext context(&library, &registry);

  // "Grep" has no registered abstract; the context synthesizes one whose
  // algorithm is the node name (the planners' shared fallback).
  const CandidateSnapshot snapshot = context.Resolve("Grep");
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].op.name(), "Grep_Eng0");
  EXPECT_EQ(snapshot[0].engine_name, "Eng0");
  EXPECT_TRUE(snapshot[0].engine_available);
  EXPECT_EQ(snapshot[0].InputReq(0).store, "Store0");
  // Ports beyond the constrained ones are unconstrained.
  EXPECT_TRUE(snapshot[0].InputReq(7).store.empty());
}

// ---- Invalidation. ---------------------------------------------------------

TEST(PlannerContextTest, LibraryRegistrationEvictsStaleEntries) {
  OperatorLibrary library;
  ASSERT_TRUE(
      library.AddMaterialized(MakeImpl("Grep_Eng0", "Grep", "Eng0", "Store0"))
          .ok());
  EngineRegistry registry;
  PegasusGenerator::RegisterSyntheticEngines(&registry, 2);
  PlannerContext context(&library, &registry);

  EXPECT_EQ(context.Resolve("Grep").size(), 1u);
  const uint64_t stamped = context.Resolve("Grep").library_version();
  EXPECT_EQ(stamped, library.version());

  // A registration bumps the library version: the cached entry is stale and
  // must be rebuilt (a miss), now seeing both implementations.
  ASSERT_TRUE(
      library.AddMaterialized(MakeImpl("Grep_Eng1", "Grep", "Eng1", "Store1"))
          .ok());
  const PlannerContext::Stats before = context.stats();
  const CandidateSnapshot rebuilt = context.Resolve("Grep");
  EXPECT_EQ(context.stats().misses, before.misses + 1);
  EXPECT_EQ(rebuilt.size(), 2u);
  EXPECT_EQ(rebuilt.library_version(), library.version());
}

TEST(PlannerContextTest, EngineAvailabilityFlipEvictsStaleEntries) {
  OperatorLibrary library;
  ASSERT_TRUE(
      library.AddMaterialized(MakeImpl("Grep_Eng0", "Grep", "Eng0", "Store0"))
          .ok());
  EngineRegistry registry;
  PegasusGenerator::RegisterSyntheticEngines(&registry, 1);
  PlannerContext context(&library, &registry);

  EXPECT_TRUE(context.Resolve("Grep")[0].engine_available);

  ASSERT_TRUE(registry.SetAvailable("Eng0", false).ok());
  const PlannerContext::Stats before = context.stats();
  EXPECT_FALSE(context.Resolve("Grep")[0].engine_available);
  EXPECT_EQ(context.stats().misses, before.misses + 1);

  ASSERT_TRUE(registry.SetAvailable("Eng0", true).ok());
  EXPECT_TRUE(context.Resolve("Grep")[0].engine_available);
}

// ---- Snapshot safety across RemoveByEngine (the dangling-pointer fix). -----

TEST(PlannerContextTest, SnapshotOutlivesRemoveByEngine) {
  OperatorLibrary library;
  ASSERT_TRUE(
      library.AddMaterialized(MakeImpl("Grep_Eng0", "Grep", "Eng0", "Store0"))
          .ok());
  ASSERT_TRUE(
      library.AddMaterialized(MakeImpl("Grep_Eng1", "Grep", "Eng1", "Store1"))
          .ok());
  EngineRegistry registry;
  PegasusGenerator::RegisterSyntheticEngines(&registry, 2);
  PlannerContext context(&library, &registry);

  const CandidateSnapshot held = context.Resolve("Grep");
  ASSERT_EQ(held.size(), 2u);

  // Erase one engine's operators. The held snapshot owns copies, so its
  // candidates stay fully readable; a fresh resolve reflects the removal.
  EXPECT_EQ(library.RemoveByEngine("Eng1"), 1);
  EXPECT_EQ(held.size(), 2u);
  EXPECT_EQ(held[1].op.name(), "Grep_Eng1");
  EXPECT_EQ(held[1].op.algorithm(), "Grep");
  EXPECT_EQ(held[1].InputReq(0).store, "Store1");

  const CandidateSnapshot fresh = context.Resolve("Grep");
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].op.name(), "Grep_Eng0");
}

TEST(PlannerContextTest, MatchSnapshotIsVersionStamped) {
  OperatorLibrary library;
  ASSERT_TRUE(
      library.AddMaterialized(MakeImpl("Grep_Eng0", "Grep", "Eng0", "Store0"))
          .ok());
  MetadataTree meta;
  meta.Set("Constraints.OpSpecification.Algorithm.name", "Grep");
  const AbstractOperator abstract("Grep", std::move(meta));

  const OperatorLibrary::MatchSnapshot snapshot =
      library.FindMaterializedSnapshot(abstract);
  EXPECT_EQ(snapshot.version, library.version());
  ASSERT_EQ(snapshot.operators.size(), 1u);
  EXPECT_EQ(snapshot.operators[0].name(), "Grep_Eng0");
}

// ---- Concurrency: planners race registrations and availability flips. ------
// The interesting assertions here are TSan's (the CI tsan job builds this
// test): the sharded cache, the owning snapshots and the library's locking
// must keep concurrent register/remove/plan free of data races.

TEST(PlannerContextTest, ConcurrentRegisterAndPlanStaysConsistent) {
  GeneratedWorkload w = MakeWorkload(16, 3);
  EngineRegistry registry;
  // One engine more than the workload uses: the mutator thread churns
  // Eng3-bound operators without ever making the workflow infeasible.
  PegasusGenerator::RegisterSyntheticEngines(&registry, 4);
  PlannerContext context(&w.library, &registry);

  std::atomic<bool> stop{false};
  std::atomic<int> planned{0};
  std::vector<std::thread> planners;
  for (int t = 0; t < 3; ++t) {
    planners.emplace_back([&] {
      DpPlanner planner(&w.library, &registry, &context);
      while (!stop.load(std::memory_order_relaxed)) {
        auto plan = planner.Plan(w.graph, {});
        ASSERT_TRUE(plan.ok()) << plan.status();
        planned.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread mutator([&] {
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(w.library
                      .AddMaterialized(MakeImpl(
                          "Churn_" + std::to_string(i), "ChurnAlgo", "Eng3",
                          "Store3"))
                      .ok());
      if (i % 8 == 7) {
        EXPECT_GT(w.library.RemoveByEngine("Eng3"), 0);
      }
      ASSERT_TRUE(registry.SetAvailable("Eng3", i % 2 == 0).ok());
      (void)context.Resolve("ChurnAlgo");
    }
    stop.store(true, std::memory_order_relaxed);
  });
  mutator.join();
  for (std::thread& t : planners) t.join();
  EXPECT_GT(planned.load(), 0);
}

// ---- Deep-chain regression: reconstruction must not recurse. ---------------

TEST(PlannerContextTest, DeepChainDoesNotOverflowTheStack) {
  constexpr int kDepth = 4000;
  GeneratedWorkload w;
  {
    MetadataTree meta;
    meta.Set("Constraints.Engine.FS", "Store0");
    meta.Set("Constraints.type", "bin");
    meta.Set("Execution.path", "sim://chain_src");
    meta.Set("Optimization.size", "1e8");
    meta.Set("Optimization.documents", "1e5");
    ASSERT_TRUE(w.library.AddDataset(Dataset("chain_src", meta)).ok());
  }
  ASSERT_TRUE(
      w.library.AddMaterialized(MakeImpl("Step_Eng0", "Step", "Eng0", "Store0"))
          .ok());
  w.graph.AddDataset("chain_src");
  std::string prev = "chain_src";
  for (int i = 0; i < kDepth; ++i) {
    const std::string op = "op" + std::to_string(i);
    const std::string out = op + "_out";
    MetadataTree meta;
    meta.Set("Constraints.OpSpecification.Algorithm.name", "Step");
    ASSERT_TRUE(w.library.AddAbstract(AbstractOperator(op, meta)).ok());
    w.graph.AddOperator(op);
    w.graph.AddDataset(out);
    ASSERT_TRUE(w.graph.Connect(prev, op).ok());
    ASSERT_TRUE(w.graph.Connect(op, out).ok());
    prev = out;
  }
  ASSERT_TRUE(w.graph.SetTarget(prev).ok());

  EngineRegistry registry;
  PegasusGenerator::RegisterSyntheticEngines(&registry, 1);

  DpPlanner planner(&w.library, &registry);
  auto plan = planner.Plan(w.graph, {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().steps.size(), static_cast<size_t>(kDepth));

  ParetoPlanner pareto(&w.library, &registry);
  auto frontier = pareto.PlanFrontier(w.graph, {});
  ASSERT_TRUE(frontier.ok()) << frontier.status();
  ASSERT_FALSE(frontier.value().empty());
  EXPECT_EQ(frontier.value()[0].plan.steps.size(),
            static_cast<size_t>(kDepth));
}

}  // namespace
}  // namespace ires
