// Elastic resource provisioning (deliverable §2.2.4 / §4.4): NSGA-II
// searches the (#containers, cores, memory) space over the trained models
// of the Spark tf-idf operator, producing a Pareto front of (time, cost)
// and picking "just the right amount" of resources per policy.
//
//   $ ./resource_elasticity [documents]

#include <cstdio>
#include <cstdlib>

#include "engines/standard_engines.h"
#include "provisioning/resource_provisioner.h"

int main(int argc, char** argv) {
  using namespace ires;

  const double docs = argc > 1 ? std::atof(argv[1]) : 500e3;
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");

  OperatorRunRequest request;
  request.algorithm = "TF_IDF";
  request.input_bytes = docs * kBytesPerDocument;
  request.input_records = docs;
  request.resources = spark->default_resources();

  NsgaResourceProvisioner::Limits limits;
  limits.max_containers = 8;
  limits.max_cores_per_container = 4;
  limits.max_memory_gb_per_container = 6.75;
  Nsga2::Options ga;
  ga.population = 40;
  ga.generations = 60;
  NsgaResourceProvisioner provisioner(limits, ga);

  std::printf("provisioning Spark tf-idf over %.0f documents "
              "(cluster cap: 8x4c x 6.75GB)\n\n",
              docs);
  for (const auto& [label, policy] :
       {std::pair<const char*, OptimizationPolicy>{
            "minimize time", OptimizationPolicy::MinimizeTime()},
        {"minimize cost", OptimizationPolicy::MinimizeCost()},
        {"weighted t+0.001c", OptimizationPolicy::Weighted(1.0, 0.001)}}) {
    const Resources chosen = provisioner.Advise(*spark, request, policy);
    OperatorRunRequest probe = request;
    probe.resources = chosen;
    auto estimate = spark->Estimate(probe);
    std::printf("policy %-18s -> %-14s est %8.1f s, cost %10.0f\n", label,
                chosen.ToString().c_str(), estimate.value().exec_seconds,
                estimate.value().cost);
  }

  // All three policies selected from this one front: it was computed once.
  std::printf("\nPareto front of the last run (time [s] vs cost):\n");
  for (const auto& point : *provisioner.Front(*spark, request)) {
    std::printf("  %-14s t=%8.1f  c=%10.0f\n",
                point.resources.ToString().c_str(), point.seconds,
                point.cost);
  }
  return 0;
}
