// Google-benchmark micro-benchmarks for the IReS hot paths: metadata tree
// matching, operator-library lookup, DP planning at several scales, NSGA-II
// provisioning and MuSQLE join enumeration. These complement the
// figure-reproduction binaries with statistically robust latency numbers.

#include <benchmark/benchmark.h>

#include "engines/standard_engines.h"
#include "planner/dp_planner.h"
#include "provisioning/resource_provisioner.h"
#include "sql/musqle_optimizer.h"
#include "workloadgen/asap_workflows.h"
#include "workloadgen/pegasus.h"

namespace {

using namespace ires;

void BM_TreeMatch(benchmark::State& state) {
  const int leaves = static_cast<int>(state.range(0));
  MetadataTree pattern, concrete;
  for (int i = 0; i < leaves; ++i) {
    const std::string path =
        "Constraints.field" + std::to_string(i) + ".sub";
    pattern.Set(path, "v" + std::to_string(i));
    concrete.Set(path, "v" + std::to_string(i));
    concrete.Set("Constraints.extra" + std::to_string(i), "x");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchTrees(pattern, concrete).matched);
  }
  state.SetComplexityN(leaves);
}
BENCHMARK(BM_TreeMatch)->Range(4, 256)->Complexity(benchmark::oN);

void BM_LibraryLookup(benchmark::State& state) {
  OperatorLibrary library;
  for (int i = 0; i < 200; ++i) {
    MetadataTree meta;
    meta.Set("Constraints.Engine", "Eng" + std::to_string(i % 8));
    meta.Set("Constraints.OpSpecification.Algorithm.name",
             "algo" + std::to_string(i % 40));
    (void)library.AddMaterialized(
        MaterializedOperator("op" + std::to_string(i), meta));
  }
  MetadataTree abstract_meta;
  abstract_meta.Set("Constraints.OpSpecification.Algorithm.name", "algo7");
  AbstractOperator abstract("probe", abstract_meta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(library.FindMaterializedOperators(abstract));
  }
}
BENCHMARK(BM_LibraryLookup);

void BM_PlanPegasus(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int engines = static_cast<int>(state.range(1));
  PegasusGenerator generator;
  GeneratedWorkload w =
      generator.Generate(PegasusType::kMontage, nodes, engines);
  EngineRegistry registry;
  PegasusGenerator::RegisterSyntheticEngines(&registry, engines);
  DpPlanner planner(&w.library, &registry);
  for (auto _ : state) {
    auto plan = planner.Plan(w.graph, {});
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanPegasus)
    ->Args({30, 4})
    ->Args({100, 4})
    ->Args({300, 4})
    ->Args({100, 8});

void BM_PlanTextAnalytics(benchmark::State& state) {
  auto registry = MakeStandardEngineRegistry();
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  DpPlanner planner(&w.library, registry.get());
  for (auto _ : state) {
    auto plan = planner.Plan(w.graph, {});
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanTextAnalytics);

// One GA run per iteration: every request has new input bytes, so the
// provisioner's front memo never hits.
void BM_Nsga2Provisioning(benchmark::State& state) {
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");
  NsgaResourceProvisioner::Limits limits;
  Nsga2::Options ga;
  ga.population = 24;
  ga.generations = 20;
  NsgaResourceProvisioner provisioner(limits, ga);
  OperatorRunRequest request;
  request.algorithm = "TF_IDF";
  request.input_bytes = 1e9;
  request.resources = spark->default_resources();
  for (auto _ : state) {
    request.input_bytes += 1.0;
    benchmark::DoNotOptimize(provisioner.Advise(
        *spark, request, OptimizationPolicy::MinimizeTime()));
  }
}
BENCHMARK(BM_Nsga2Provisioning);

// A repeated request: after the first iteration every Advise is a memo hit
// plus the policy's selection over the front.
void BM_Nsga2ProvisioningMemoHit(benchmark::State& state) {
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");
  NsgaResourceProvisioner::Limits limits;
  Nsga2::Options ga;
  ga.population = 24;
  ga.generations = 20;
  NsgaResourceProvisioner provisioner(limits, ga);
  OperatorRunRequest request;
  request.algorithm = "TF_IDF";
  request.input_bytes = 1e9;
  request.resources = spark->default_resources();
  for (auto _ : state) {
    benchmark::DoNotOptimize(provisioner.Advise(
        *spark, request, OptimizationPolicy::MinimizeTime()));
  }
}
BENCHMARK(BM_Nsga2ProvisioningMemoHit);

void BM_MusqleOptimize(benchmark::State& state) {
  using namespace ires::sql;
  Catalog catalog = MakeTpchCatalog(5.0, "PostgreSQL", "MemSQL", "SparkSQL");
  auto engines = MakeStandardSqlEngines();
  MusqleOptimizer optimizer(&catalog, &engines);
  auto query = SqlParser::Parse(
      "SELECT c_name, o_orderdate FROM part, partsupp, lineitem, orders, "
      "customer, nation WHERE p_partkey = ps_partkey AND "
      "c_nationkey = n_nationkey AND l_partkey = p_partkey AND "
      "o_custkey = c_custkey AND o_orderkey = l_orderkey AND "
      "p_retailprice > 2090 AND n_name = 'GERMANY'");
  for (auto _ : state) {
    auto plan = optimizer.Optimize(query.value());
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_MusqleOptimize);

}  // namespace

BENCHMARK_MAIN();
