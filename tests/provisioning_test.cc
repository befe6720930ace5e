#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engines/standard_engines.h"
#include "provisioning/resource_provisioner.h"

namespace ires {
namespace {

// ------------------------------------------------------------- NSGA-II core
TEST(Nsga2Test, DominationRules) {
  EXPECT_TRUE(Nsga2::Dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(Nsga2::Dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(Nsga2::Dominates({1, 3}, {2, 2}));  // trade-off
  EXPECT_FALSE(Nsga2::Dominates({2, 2}, {2, 2}));  // equal
}

TEST(Nsga2Test, NonDominatedSortRanks) {
  std::vector<Nsga2::Individual> pop(4);
  pop[0].objectives = {1, 1};  // front 0
  pop[1].objectives = {2, 2};  // dominated by 0
  pop[2].objectives = {0, 3};  // front 0 (trade-off with 0)
  pop[3].objectives = {3, 3};  // dominated by all
  auto fronts = Nsga2::NonDominatedSort(&pop);
  ASSERT_GE(fronts.size(), 2u);
  EXPECT_EQ(pop[0].rank, 0);
  EXPECT_EQ(pop[2].rank, 0);
  EXPECT_EQ(pop[1].rank, 1);
  EXPECT_GT(pop[3].rank, pop[1].rank - 1);
}

TEST(Nsga2Test, CrowdingBoundariesInfinite) {
  std::vector<Nsga2::Individual> pop(3);
  pop[0].objectives = {0, 2};
  pop[1].objectives = {1, 1};
  pop[2].objectives = {2, 0};
  std::vector<int> front = {0, 1, 2};
  Nsga2::AssignCrowding(&pop, front);
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[2].crowding));
  EXPECT_FALSE(std::isinf(pop[1].crowding));
}

TEST(Nsga2Test, FindsParetoFrontOfConvexProblem) {
  // Schaffer's problem: f1 = x^2, f2 = (x-2)^2; Pareto set is x in [0, 2].
  Nsga2::Options options;
  options.population = 40;
  options.generations = 60;
  Nsga2 ga(options);
  auto front = ga.Optimize({{-5.0, 5.0}}, [](const Vector& genes) -> Vector {
    const double x = genes[0];
    return {x * x, (x - 2) * (x - 2)};
  });
  ASSERT_GE(front.size(), 10u);
  for (const auto& ind : front) {
    EXPECT_GT(ind.genes[0], -0.25);
    EXPECT_LT(ind.genes[0], 2.25);
  }
  // Front spans the trade-off: some solutions near each extreme.
  EXPECT_LT(front.front().objectives[0], 0.2);
  EXPECT_LT(front.back().objectives[1], 0.2);
}

TEST(Nsga2Test, DeterministicForFixedSeed) {
  Nsga2::Options options;
  options.seed = 42;
  options.population = 20;
  options.generations = 20;
  auto evaluate = [](const Vector& g) -> Vector {
    return {g[0] * g[0], (g[0] - 1) * (g[0] - 1)};
  };
  Nsga2 ga1(options), ga2(options);
  auto f1 = ga1.Optimize({{-2, 2}}, evaluate);
  auto f2 = ga2.Optimize({{-2, 2}}, evaluate);
  ASSERT_EQ(f1.size(), f2.size());
  for (size_t i = 0; i < f1.size(); ++i) {
    EXPECT_DOUBLE_EQ(f1[i].genes[0], f2[i].genes[0]);
  }
}

// ------------------------------------------------------ resource provisioner
class ProvisionerTest : public ::testing::Test {
 protected:
  ProvisionerTest() : registry_(MakeStandardEngineRegistry()) {
    NsgaResourceProvisioner::Limits limits;
    limits.max_containers = 8;
    limits.max_cores_per_container = 4;
    limits.max_memory_gb_per_container = 6.75;
    Nsga2::Options ga;
    ga.population = 30;
    ga.generations = 40;
    provisioner_ = std::make_unique<NsgaResourceProvisioner>(limits, ga);
  }

  OperatorRunRequest TfIdfRequest(double docs) {
    OperatorRunRequest r;
    r.algorithm = "TF_IDF";
    r.input_bytes = docs * kBytesPerDocument;
    r.input_records = docs;
    r.resources = registry_->Find("Spark")->default_resources();
    return r;
  }

  std::unique_ptr<EngineRegistry> registry_;
  std::unique_ptr<NsgaResourceProvisioner> provisioner_;
};

TEST_F(ProvisionerTest, MinTimePolicyMatchesMaxResourceSpeed) {
  const SimulatedEngine* spark = registry_->Find("Spark");
  OperatorRunRequest request = TfIdfRequest(1e6);
  Resources chosen = provisioner_->Advise(*spark, request,
                                          OptimizationPolicy::MinimizeTime());
  // The advised allocation must be within 5% of the max-resources runtime.
  OperatorRunRequest max_request = request;
  max_request.resources = {8, 4, 6.75};
  OperatorRunRequest advised = request;
  advised.resources = chosen;
  const double max_time = spark->Estimate(max_request).value().exec_seconds;
  const double advised_time = spark->Estimate(advised).value().exec_seconds;
  EXPECT_LE(advised_time, max_time * 1.06);
}

TEST_F(ProvisionerTest, MinTimeCostsLessThanMaxResources) {
  const SimulatedEngine* spark = registry_->Find("Spark");
  OperatorRunRequest request = TfIdfRequest(100e3);
  Resources chosen = provisioner_->Advise(*spark, request,
                                          OptimizationPolicy::MinimizeTime());
  OperatorRunRequest max_request = request;
  max_request.resources = {8, 4, 6.75};
  OperatorRunRequest advised = request;
  advised.resources = chosen;
  EXPECT_LT(spark->Estimate(advised).value().cost,
            spark->Estimate(max_request).value().cost);
}

TEST_F(ProvisionerTest, MinCostPolicyPicksSmallAllocations) {
  const SimulatedEngine* spark = registry_->Find("Spark");
  OperatorRunRequest request = TfIdfRequest(100e3);
  Resources cheap = provisioner_->Advise(*spark, request,
                                         OptimizationPolicy::MinimizeCost());
  Resources fast = provisioner_->Advise(*spark, request,
                                        OptimizationPolicy::MinimizeTime());
  EXPECT_LE(cheap.total_cores(), fast.total_cores());
  OperatorRunRequest cheap_req = request;
  cheap_req.resources = cheap;
  OperatorRunRequest fast_req = request;
  fast_req.resources = fast;
  EXPECT_LE(spark->Estimate(cheap_req).value().cost,
            spark->Estimate(fast_req).value().cost + 1e-9);
}

TEST_F(ProvisionerTest, CentralizedEnginesGetOneContainer) {
  const SimulatedEngine* java = registry_->Find("Java");
  OperatorRunRequest request;
  request.algorithm = "Pagerank";
  request.input_bytes = 1e6 * kBytesPerEdge;
  request.resources = java->default_resources();
  Resources chosen = provisioner_->Advise(*java, request,
                                          OptimizationPolicy::MinimizeTime());
  EXPECT_EQ(chosen.containers, 1);
}

TEST_F(ProvisionerTest, GrowingInputGetsMoreResources) {
  const SimulatedEngine* spark = registry_->Find("Spark");
  Resources small = provisioner_->Advise(*spark, TfIdfRequest(1e3),
                                         OptimizationPolicy::MinimizeTime());
  Resources large = provisioner_->Advise(*spark, TfIdfRequest(10e6),
                                         OptimizationPolicy::MinimizeTime());
  EXPECT_LE(small.total_cores(), large.total_cores());
  EXPECT_LT(small.CostForDuration(1.0), large.CostForDuration(1.0) + 1e-9);
}

TEST_F(ProvisionerTest, ParetoFrontExposedAndSorted) {
  const SimulatedEngine* spark = registry_->Find("Spark");
  const auto front = provisioner_->Front(*spark, TfIdfRequest(1e6));
  ASSERT_FALSE(front->empty());
  for (size_t i = 1; i < front->size(); ++i) {
    EXPECT_GE((*front)[i].seconds, (*front)[i - 1].seconds);
  }
}

// ------------------------------------------------------------ front memo

void ExpectSameResources(const Resources& a, const Resources& b) {
  EXPECT_EQ(a.containers, b.containers);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.memory_gb, b.memory_gb);
}

void ExpectSameFront(const NsgaResourceProvisioner::ParetoFront& a,
                     const NsgaResourceProvisioner::ParetoFront& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectSameResources(a[i].resources, b[i].resources);
    EXPECT_EQ(a[i].seconds, b[i].seconds);
    EXPECT_EQ(a[i].cost, b[i].cost);
  }
}

struct GridCase {
  std::string engine;
  OperatorRunRequest request;
};

/// Spark (distributed-disk), Hama (distributed-memory; Pagerank over 3 GB
/// needs 13.5 GB of its 8 GB budget under any allocation) and Java
/// (centralized), each at two sizes and two fallback allocations.
std::vector<GridCase> MemoGrid() {
  const Resources fallbacks[] = {{8, 2, 2.0}, {1, 1, 1.0}};
  const std::pair<std::string, std::vector<double>> sizes[] = {
      {"Spark", {2e8, 5e9}}, {"Hama", {4e8, 3e9}}, {"Java", {5e7, 2e8}}};
  std::vector<GridCase> grid;
  for (const auto& [engine, bytes_list] : sizes) {
    for (double bytes : bytes_list) {
      for (const Resources& fallback : fallbacks) {
        GridCase c;
        c.engine = engine;
        c.request.algorithm = engine == "Spark" ? "TF_IDF" : "Pagerank";
        c.request.input_bytes = bytes;
        c.request.input_records = bytes / 100.0;
        c.request.params = {{"iterations", 3}};
        c.request.resources = fallback;
        grid.push_back(c);
      }
    }
  }
  return grid;
}

const OptimizationPolicy kPolicies[] = {
    OptimizationPolicy::MinimizeTime(), OptimizationPolicy::MinimizeCost(),
    OptimizationPolicy::Weighted(1.0, 0.001)};

// The memo is exact only because a front is a pure function of its key:
// a warm provisioner must answer every call exactly as a fresh one does.
TEST_F(ProvisionerTest, WarmMemoMatchesFreshProvisionerExactly) {
  const std::vector<GridCase> grid = MemoGrid();
  for (const GridCase& c : grid) {  // warm every key, all policies
    for (const OptimizationPolicy& policy : kPolicies) {
      (void)provisioner_->Advise(*registry_->Find(c.engine), c.request,
                                 policy);
    }
  }
  bool saw_infeasible = false;
  for (const GridCase& c : grid) {
    const SimulatedEngine& engine = *registry_->Find(c.engine);
    for (const OptimizationPolicy& policy : kPolicies) {
      SCOPED_TRACE(c.engine + " " + std::to_string(c.request.input_bytes) +
                   " " + c.request.resources.ToString() + " " +
                   policy.ToString());
      NsgaResourceProvisioner::Limits limits;
      Nsga2::Options ga;
      ga.population = 30;
      ga.generations = 40;
      NsgaResourceProvisioner fresh(limits, ga);
      ExpectSameResources(provisioner_->Advise(engine, c.request, policy),
                          fresh.Advise(engine, c.request, policy));
      const auto warm_front = provisioner_->Front(engine, c.request);
      ExpectSameFront(*warm_front, *fresh.Front(engine, c.request));
      if (warm_front->empty()) {
        saw_infeasible = true;
        ExpectSameResources(provisioner_->Advise(engine, c.request, policy),
                            c.request.resources);
      }
    }
  }
  EXPECT_TRUE(saw_infeasible) << "the grid must cover an empty front";
}

TEST(ProvisionerMemoTest, OneFrontPerKeyWhateverThePolicyOrFallback) {
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");
  MetricsRegistry metrics;
  NsgaResourceProvisioner provisioner({}, {}, &metrics);
  auto count = [&](const char* outcome) {
    return metrics
        .GetCounter("ires_provisioner_fronts_total", "",
                    {{"outcome", outcome}})
        ->Value();
  };
  OperatorRunRequest request;
  request.algorithm = "TF_IDF";
  request.input_bytes = 1e9;
  request.input_records = 1e6;
  const auto first = provisioner.Front(*spark, request);
  const Resources fallbacks[] = {{1, 1, 1.0}, {8, 4, 6.0}, {2, 2, 2.0}};
  for (int i = 0; i < 3; ++i) {
    request.resources = fallbacks[i];
    (void)provisioner.Advise(*spark, request, kPolicies[i]);
  }
  EXPECT_EQ(count("computed"), 1u);
  EXPECT_EQ(count("hit"), 3u);
  // A hit hands out the memoized front itself, not a copy.
  EXPECT_EQ(provisioner.Front(*spark, request).get(), first.get());

  request.input_bytes *= 1.01;  // a new key
  EXPECT_NE(provisioner.Front(*spark, request).get(), first.get());
  EXPECT_EQ(count("computed"), 2u);
}

TEST(ProvisionerMemoTest, CalibrationChangeRecomputesTheFront) {
  auto registry = MakeStandardEngineRegistry();
  SimulatedEngine* spark = registry->Find("Spark");
  NsgaResourceProvisioner provisioner;
  OperatorRunRequest request;
  request.algorithm = "TF_IDF";
  request.input_bytes = 1e9;
  const auto before = provisioner.Front(*spark, request);
  ASSERT_FALSE(before->empty());

  spark->set_infrastructure_factor(0.5);
  const auto faster = provisioner.Front(*spark, request);
  ASSERT_FALSE(faster->empty());
  EXPECT_LT(faster->front().seconds, before->front().seconds);

  // Back at 1.0 the front is recomputed under a new token, and equals the
  // original: the token names the calibration, the front is pure.
  spark->set_infrastructure_factor(1.0);
  const auto again = provisioner.Front(*spark, request);
  EXPECT_NE(again.get(), before.get());
  ExpectSameFront(*again, *before);
}

// Concurrent calls over overlapping keys (run under TSan in CI): every
// thread must see exactly the front a serial provisioner computes.
TEST(ProvisionerMemoTest, ConcurrentCallsOnOverlappingKeysMatchSerial) {
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");
  Nsga2::Options ga;
  ga.population = 12;
  ga.generations = 6;
  NsgaResourceProvisioner shared({}, ga);
  NsgaResourceProvisioner serial({}, ga);

  constexpr int kKeys = 5;
  auto request_for = [](int k) {
    OperatorRunRequest r;
    r.algorithm = "TF_IDF";
    r.input_bytes = 1e8 * (k + 1);
    return r;
  };
  std::vector<std::thread> threads;
  std::vector<std::vector<std::shared_ptr<
      const NsgaResourceProvisioner::ParetoFront>>>
      seen(4, std::vector<std::shared_ptr<
                  const NsgaResourceProvisioner::ParetoFront>>(kKeys));
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 3 * kKeys; ++i) {
        const int k = (i + t) % kKeys;  // threads start on different keys
        seen[t][k] = shared.Front(*spark, request_for(k));
        (void)shared.Advise(*spark, request_for(k),
                            OptimizationPolicy::MinimizeTime());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int k = 0; k < kKeys; ++k) {
    const auto expected = serial.Front(*spark, request_for(k));
    for (int t = 0; t < 4; ++t) ExpectSameFront(*seen[t][k], *expected);
  }
}

}  // namespace
}  // namespace ires
