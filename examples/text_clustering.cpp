// Text clustering (deliverable §3.4 / §4.1): a tf-idf -> k-means workflow
// whose two operators each have a centralized (scikit-learn) and a
// distributed (Spark/MLlib) implementation. Running it across corpus sizes
// shows the planner's three regimes:
//   small corpus  -> everything centralized;
//   medium corpus -> the hybrid "mix 'n' match" plan (tf-idf on scikit,
//                    k-means on Spark, move/transform inserted in between)
//                    that beats every single-engine plan;
//   large corpus  -> everything on Spark.
//
//   $ ./text_clustering [documents...]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/ires_server.h"
#include "workloadgen/asap_workflows.h"

namespace {

// Plans with only `engine` available and returns its estimated seconds
// (negative when infeasible).
double SingleEngineEstimate(const ires::GeneratedWorkload& w,
                            const std::string& engine) {
  using namespace ires;
  IresServer server;
  (void)server.ImportLibrary(w.library);
  for (const std::string& name : server.engines().Names()) {
    if (name != engine) (void)server.engines().SetAvailable(name, false);
  }
  auto plan = server.MaterializeWorkflow(w.graph);
  return plan.ok() ? plan.value().estimated_seconds : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ires;

  std::vector<double> sizes = {2e3, 20e3, 200e3};
  if (argc > 1) {
    sizes.clear();
    for (int i = 1; i < argc; ++i) sizes.push_back(std::atof(argv[i]));
  }

  for (double docs : sizes) {
    const GeneratedWorkload w = MakeTextAnalyticsWorkflow(docs);
    IresServer server;
    if (!server.ImportLibrary(w.library).ok()) return 1;

    auto plan = server.MaterializeWorkflow(w.graph);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning failed: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    std::printf("=== %.0f documents ===\n%s", docs,
                plan.value().ToString().c_str());
    std::printf("single-engine estimates: scikit=%.1fs Spark=%.1fs\n",
                SingleEngineEstimate(w, "scikit"),
                SingleEngineEstimate(w, "Spark"));

    const RecoveryOutcome outcome = server.RunWorkflow(w.graph).recovery;
    if (!outcome.status.ok()) {
      std::fprintf(stderr, "execution failed: %s\n",
                   outcome.status.ToString().c_str());
      return 1;
    }
    std::printf("executed in %.1f simulated seconds\n\n",
                outcome.total_execution_seconds);
  }
  return 0;
}
