// Chaos suite: deterministic fault injection end to end. A soak drives
// hundreds of jobs through the full server pipeline under seeded chaos and
// reconciles every injected fault against the retry/replan/breaker
// telemetry; a concurrent variant runs the same storm through the job
// service's worker pool (CI runs this binary under ThreadSanitizer); and
// targeted tests pin down the invariants one at a time — replayability,
// node flaps never indicting engines, and IResReplan never recomputing a
// materialized intermediate.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos_scheduler.h"
#include "core/ires_server.h"
#include "engines/standard_engines.h"
#include "executor/recovering_executor.h"
#include "planner/dp_planner.h"
#include "service/job_service.h"
#include "workloadgen/asap_workflows.h"

namespace ires {
namespace {

// ------------------------------------------------------------- scheduler

PlanStep OperatorStep(const std::string& algorithm,
                      const std::string& engine) {
  PlanStep step;
  step.kind = PlanStep::Kind::kOperator;
  step.name = algorithm;
  step.algorithm = algorithm;
  step.engine = engine;
  return step;
}

TEST(ChaosSchedulerTest, DisabledConfigInjectsNothing) {
  ChaosConfig config;  // seed 0 = disabled
  config.transient_probability = 1.0;
  EXPECT_FALSE(config.enabled());
  ChaosScheduler chaos(config);
  // Decide still functions (the oracle is simply never installed by Arm),
  // and an armed-less scheduler reports zero injections.
  EXPECT_EQ(chaos.counts().total(), 0u);
}

TEST(ChaosSchedulerTest, SameSeedSameDecisionStream) {
  ChaosConfig config;
  config.seed = 4242;
  config.transient_probability = 0.2;
  config.timeout_probability = 0.1;
  config.engine_crash_probability = 0.1;
  ChaosScheduler a(config);
  ChaosScheduler b(config);
  const PlanStep step = OperatorStep("TF_IDF", "Spark");
  for (int i = 0; i < 200; ++i) {
    const auto da = a.Decide(step, i * 0.5, 1 + i % 3);
    const auto db = b.Decide(step, i * 0.5, 1 + i % 3);
    ASSERT_EQ(da.fail, db.fail) << "draw " << i;
    ASSERT_EQ(da.kind, db.kind) << "draw " << i;
  }
  EXPECT_EQ(a.counts().transient, b.counts().transient);
  EXPECT_EQ(a.counts().timeout, b.counts().timeout);
  EXPECT_EQ(a.counts().engine_crash, b.counts().engine_crash);
  EXPECT_GT(a.counts().total(), 0u);
}

TEST(ChaosSchedulerTest, CrashEngineFilterSparesOtherEngines) {
  ChaosConfig config;
  config.seed = 7;
  config.engine_crash_probability = 1.0;
  config.crash_engine = "Spark";
  ChaosScheduler chaos(config);
  const auto hit = chaos.Decide(OperatorStep("kmeans", "Spark"), 0.0, 1);
  EXPECT_TRUE(hit.fail);
  EXPECT_EQ(hit.kind, FailureKind::kEngineCrash);
  const auto miss = chaos.Decide(OperatorStep("kmeans", "scikit"), 0.0, 1);
  EXPECT_FALSE(miss.fail);
  EXPECT_EQ(chaos.counts().engine_crash, 1u);
}

// ------------------------------------------------------------------ soak

/// Per-soak accumulator reconciled against the server's metric registry.
struct SoakTotals {
  uint64_t injected_transient = 0;
  uint64_t injected_timeout = 0;
  uint64_t injected_crash = 0;
  uint64_t step_retries = 0;
  uint64_t replans = 0;
  std::map<std::string, uint64_t> failures_by_kind;
  int succeeded = 0;
  int failed = 0;
};

IresServer::ExecutionOptions SoakOptions(uint64_t seed) {
  IresServer::ExecutionOptions exec;
  exec.strategy = ReplanStrategy::kIresReplan;
  exec.max_replans = 3;
  exec.retry.max_attempts = 3;
  exec.retry.base_backoff_seconds = 0.5;
  exec.chaos.seed = seed;
  exec.chaos.transient_probability = 0.10;
  exec.chaos.timeout_probability = 0.05;
  exec.chaos.engine_crash_probability = 0.06;
  return exec;
}

/// Runs `jobs` sequential chaos jobs on a fresh server, checking the
/// per-job failure-accounting invariants, and returns the totals. The
/// breaker is configured to never turn an engine permanently OFF, so the
/// soak also proves no engine is ever wrongly amputated.
SoakTotals RunSequentialSoak(IresServer* server, int jobs,
                             uint64_t seed_base) {
  EngineRegistry::BreakerConfig breaker;
  breaker.base_suspension_seconds = 5.0;
  breaker.suspension_multiplier = 2.0;
  breaker.max_suspension_seconds = 60.0;
  breaker.off_after_consecutive_trips = 0;  // chaos must never amputate
  server->engines().set_breaker_config(breaker);

  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  EXPECT_TRUE(server->ImportLibrary(w.library).ok());

  SoakTotals totals;
  for (int i = 0; i < jobs; ++i) {
    const auto result = server->RunWorkflow(
        w.graph, OptimizationPolicy::MinimizeTime(), nullptr,
        SoakOptions(seed_base + static_cast<uint64_t>(i)));
    const RecoveryOutcome& out = result.recovery;

    // Terminal either way; a failed job carries its cause.
    if (out.status.ok()) {
      ++totals.succeeded;
      // Every recorded failure was followed by the replan that fixed it.
      EXPECT_EQ(out.failures.size(), static_cast<size_t>(out.replans))
          << "job " << i;
      // IResReplan never grows the plan: after reusing materialized
      // intermediates the final plan covers at most the original steps.
      EXPECT_LE(out.final_plan.steps.size(), result.plan.steps.size())
          << "job " << i;
    } else {
      ++totals.failed;
      EXPECT_FALSE(out.status.message().empty()) << "job " << i;
      EXPECT_GE(out.failures.size(), static_cast<size_t>(out.replans))
          << "job " << i;
    }
    EXPECT_LE(out.replans, 3) << "job " << i;

    // Reconcile this job's injections against its recovery accounting:
    // every retryable injection either became an in-place retry or
    // exhausted a step's budget (one retryable workflow failure); every
    // injected engine crash aborted exactly one attempt.
    uint64_t retryable_failures = 0;
    uint64_t crash_failures = 0;
    for (const FailureEvent& failure : out.failures) {
      ++totals.failures_by_kind[FailureKindName(failure.kind)];
      if (IsRetryable(failure.kind)) ++retryable_failures;
      if (failure.kind == FailureKind::kEngineCrash) ++crash_failures;
      // Chaos injects step-attributable faults only, so the failed step
      // and its engine are always known.
      EXPECT_GE(failure.failed_step, 0) << "job " << i;
      EXPECT_FALSE(failure.engine.empty()) << "job " << i;
    }
    EXPECT_EQ(result.chaos_injected.transient + result.chaos_injected.timeout,
              static_cast<uint64_t>(out.step_retries) + retryable_failures)
        << "job " << i;
    EXPECT_EQ(result.chaos_injected.engine_crash, crash_failures)
        << "job " << i;

    totals.injected_transient += result.chaos_injected.transient;
    totals.injected_timeout += result.chaos_injected.timeout;
    totals.injected_crash += result.chaos_injected.engine_crash;
    totals.step_retries += static_cast<uint64_t>(out.step_retries);
    totals.replans += static_cast<uint64_t>(out.replans);
  }
  return totals;
}

void CheckSoakTelemetry(IresServer* server, const SoakTotals& totals) {
  // The soak injected real faults and the platform survived them.
  EXPECT_GT(totals.injected_transient + totals.injected_timeout +
                totals.injected_crash,
            0u);
  EXPECT_GT(totals.succeeded, 0);

  // No engine was wrongly lost: with the trip limit disabled every engine
  // is ON, SUSPENDED or HALF_OPEN — and a long quiet period heals them all.
  uint64_t trips_total = 0;
  for (const std::string& name : server->engines().Names()) {
    const auto health = server->engines().HealthOf(name);
    ASSERT_TRUE(health.ok()) << name;
    EXPECT_NE(health.value().health, EngineHealth::kOff) << name;
    trips_total += health.value().trips_total;
  }
  server->engines().AdvanceSimClock(
      server->engines().breaker_config().max_suspension_seconds + 1.0);
  for (const std::string& name : server->engines().Names()) {
    EXPECT_TRUE(server->engines().IsAvailable(name)) << name;
  }

  // Breaker trips reconcile: every workflow failure recorded by the soak
  // indicts its step's engine (chaos injects no node crashes here).
  uint64_t indicting_failures = 0;
  for (const auto& [kind, count] : totals.failures_by_kind) {
    indicting_failures += count;
    EXPECT_NE(kind, FailureKindName(FailureKind::kNodeCrash));
  }
  EXPECT_EQ(trips_total, indicting_failures);

  // The metric registry agrees with the per-job accounting.
  MetricsRegistry& metrics = server->metrics();
  EXPECT_EQ(metrics.GetCounter("ires_step_retries_total", "")->Value(),
            totals.step_retries);
  EXPECT_EQ(metrics
                .GetCounter("ires_replans_total", "",
                            {{"strategy", "ires_replan"}})
                ->Value(),
            totals.replans);
  EXPECT_EQ(metrics
                .GetCounter("ires_chaos_injected_total", "",
                            {{"kind", "transient"}})
                ->Value(),
            totals.injected_transient);
  EXPECT_EQ(metrics
                .GetCounter("ires_chaos_injected_total", "",
                            {{"kind", "timeout"}})
                ->Value(),
            totals.injected_timeout);
  EXPECT_EQ(metrics
                .GetCounter("ires_chaos_injected_total", "",
                            {{"kind", "engine_crash"}})
                ->Value(),
            totals.injected_crash);
  for (const auto& [kind, count] : totals.failures_by_kind) {
    EXPECT_EQ(metrics
                  .GetCounter("ires_workflow_failures_total", "",
                              {{"kind", kind}})
                  ->Value(),
              count)
        << kind;
  }
  // And the exposition renders it all without falling over.
  const std::string rendered = metrics.RenderPrometheus();
  EXPECT_NE(rendered.find("ires_chaos_injected_total"), std::string::npos);
  EXPECT_NE(rendered.find("ires_engine_state"), std::string::npos);
}

TEST(ChaosSoakTest, SequentialSoakAllTerminalAndReconciled) {
  IresServer server;
  const SoakTotals totals = RunSequentialSoak(&server, 150, 1000);
  EXPECT_EQ(totals.succeeded + totals.failed, 150);
  CheckSoakTelemetry(&server, totals);
}

// The same storm, replayed on a fresh server, produces bitwise-identical
// outcomes: chaos runs are reproducible bug reports, not flaky ones.
TEST(ChaosSoakTest, SoakIsDeterministicUnderAFixedSeed) {
  auto fingerprint = [](int jobs, uint64_t seed_base) {
    IresServer server;
    const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
    EXPECT_TRUE(server.ImportLibrary(w.library).ok());
    EngineRegistry::BreakerConfig breaker;
    breaker.base_suspension_seconds = 5.0;
    breaker.off_after_consecutive_trips = 0;
    server.engines().set_breaker_config(breaker);

    std::string print;
    char buffer[256];
    for (int i = 0; i < jobs; ++i) {
      const auto result = server.RunWorkflow(
          w.graph, OptimizationPolicy::MinimizeTime(), nullptr,
          SoakOptions(seed_base + static_cast<uint64_t>(i)));
      const RecoveryOutcome& out = result.recovery;
      // %a is exact: any drift in the simulated timeline shows up.
      std::snprintf(buffer, sizeof(buffer), "job %d ok=%d r=%d sr=%d t=%a;",
                    i, out.status.ok() ? 1 : 0, out.replans,
                    out.step_retries, out.total_execution_seconds);
      print += buffer;
      for (const FailureEvent& failure : out.failures) {
        std::snprintf(buffer, sizeof(buffer), "f(%d,%d,%s,%s);",
                      failure.attempt, failure.failed_step,
                      FailureKindName(failure.kind), failure.engine.c_str());
        print += buffer;
      }
      std::snprintf(buffer, sizeof(buffer), "c(%llu,%llu,%llu);",
                    static_cast<unsigned long long>(
                        result.chaos_injected.transient),
                    static_cast<unsigned long long>(
                        result.chaos_injected.timeout),
                    static_cast<unsigned long long>(
                        result.chaos_injected.engine_crash));
      print += buffer;
    }
    return print;
  };
  const std::string first = fingerprint(40, 5000);
  const std::string second = fingerprint(40, 5000);
  EXPECT_EQ(first, second);
  // The storm was not a no-op.
  EXPECT_NE(first.find("f("), std::string::npos);
}

// The concurrent variant: the same chaos storm submitted through the job
// service's worker pool. Per-job determinism no longer orders the shared
// breaker state, so the assertions are the order-free invariants: every
// job terminal, every record internally consistent, the shared registry
// still healthy, and the metric sums equal to the per-record sums. CI runs
// this under ThreadSanitizer, repeated.
TEST(ChaosSoakTest, ConcurrentChaosJobsStayConsistent) {
  constexpr int kJobs = 48;

  IresServer server;
  EngineRegistry::BreakerConfig breaker;
  breaker.base_suspension_seconds = 5.0;
  breaker.off_after_consecutive_trips = 0;
  server.engines().set_breaker_config(breaker);
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  ASSERT_TRUE(server.ImportLibrary(w.library).ok());

  JobService::Options options;
  options.workers = 4;
  options.queue_capacity = kJobs;
  // Every dispatched job parks at the plan-phase probe until all kJobs are
  // admitted. Otherwise the first jobs' injected crashes can suspend both
  // Spark and scikit mid-loop, and admission then rightly refuses the rest
  // (WF012: every bound engine suspended). A parked job still holds its
  // queue slot, which queue_capacity = kJobs leaves room for.
  std::atomic<bool> all_admitted{false};
  JobService jobs(&server, options);
  jobs.set_phase_probe([&all_admitted](const std::string&, int, char phase) {
    if (phase != 'p') return;
    while (!all_admitted.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<Status> admissions;
  for (int i = 0; i < kJobs; ++i) {
    admissions.push_back(
        jobs.Submit(w.graph, "text", OptimizationPolicy::MinimizeTime(),
                    SoakOptions(9000 + static_cast<uint64_t>(i)))
            .status());
  }
  // Open the gate before asserting, so a failed admission cannot leave
  // parked jobs for ~JobService to wait on forever.
  all_admitted.store(true, std::memory_order_release);
  for (const Status& admission : admissions) {
    ASSERT_TRUE(admission.ok()) << admission;
  }
  ASSERT_TRUE(jobs.WaitForIdle(300.0));

  uint64_t step_retries = 0;
  uint64_t replans = 0;
  uint64_t injected = 0;
  std::map<std::string, uint64_t> failures_by_kind;
  for (const JobRecord& record : jobs.List()) {
    ASSERT_TRUE(IsTerminal(record.state)) << record.id;
    ASSERT_NE(record.state, JobState::kCancelled) << record.id;
    if (record.state == JobState::kFailed) {
      EXPECT_FALSE(record.error.empty()) << record.id;
    } else {
      EXPECT_EQ(record.outcome.failures.size(),
                static_cast<size_t>(record.outcome.replans))
          << record.id;
    }
    step_retries += static_cast<uint64_t>(record.outcome.step_retries);
    replans += static_cast<uint64_t>(record.outcome.replans);
    injected += record.chaos_injected.total();
    for (const FailureEvent& failure : record.outcome.failures) {
      ++failures_by_kind[FailureKindName(failure.kind)];
    }
  }
  EXPECT_GT(injected, 0u);

  // Shared-registry invariants survive the concurrent hammering.
  uint64_t trips_total = 0;
  for (const std::string& name : server.engines().Names()) {
    const auto health = server.engines().HealthOf(name);
    ASSERT_TRUE(health.ok()) << name;
    EXPECT_NE(health.value().health, EngineHealth::kOff) << name;
    trips_total += health.value().trips_total;
  }
  // Under concurrency an attempt can also fail because a sibling job just
  // suspended its engine (an organic, uninjected engine crash), so trips
  // are bounded by — not equal to — the recorded engine-indicting
  // failures.
  uint64_t indicting = 0;
  for (const auto& [kind, count] : failures_by_kind) {
    if (kind != FailureKindName(FailureKind::kNodeCrash)) indicting += count;
  }
  EXPECT_LE(trips_total, indicting);

  MetricsRegistry& metrics = server.metrics();
  EXPECT_EQ(metrics.GetCounter("ires_step_retries_total", "")->Value(),
            step_retries);
  EXPECT_EQ(metrics
                .GetCounter("ires_replans_total", "",
                            {{"strategy", "ires_replan"}})
                ->Value(),
            replans);
  for (const auto& [kind, count] : failures_by_kind) {
    EXPECT_EQ(metrics
                  .GetCounter("ires_workflow_failures_total", "",
                              {{"kind", kind}})
                  ->Value(),
              count)
        << kind;
  }
}

// Long-haul variant for the nightly profile only (ctest -L nightly with
// IRES_NIGHTLY=1): the full invariant sweep at several times the load.
TEST(ChaosSoakTest, NightlyLongSoak) {
  if (std::getenv("IRES_NIGHTLY") == nullptr) {
    GTEST_SKIP() << "set IRES_NIGHTLY=1 to run the long soak";
  }
  IresServer server;
  const SoakTotals totals = RunSequentialSoak(&server, 600, 77000);
  EXPECT_EQ(totals.succeeded + totals.failed, 600);
  CheckSoakTelemetry(&server, totals);
}

// ------------------------------------------------------- targeted chaos

// A chaos node flap flows through the per-run enforcer: the job survives
// or fails with a node-crash cause, and — the failure-domain contract — no
// engine is ever indicted for a dead node.
TEST(ChaosNodeFlapTest, NodeEventsNeverIndictEngines) {
  IresServer server;
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  ASSERT_TRUE(server.ImportLibrary(w.library).ok());

  IresServer::ExecutionOptions exec;
  exec.chaos.seed = 11;
  exec.chaos.node_events.push_back({0, 0.2, /*fail=*/true});
  exec.chaos.node_events.push_back({1, 0.4, /*fail=*/true});
  exec.chaos.node_events.push_back({0, 5.0, /*fail=*/false});
  ASSERT_TRUE(exec.chaos.enabled());

  const auto result = server.RunWorkflow(
      w.graph, OptimizationPolicy::MinimizeTime(), nullptr, exec);
  // Probabilistic injection is off: nothing counted.
  EXPECT_EQ(result.chaos_injected.total(), 0u);
  for (const FailureEvent& failure : result.recovery.failures) {
    EXPECT_EQ(failure.kind, FailureKind::kNodeCrash)
        << FailureKindName(failure.kind);
  }
  // Node crashes never touch engine breakers.
  for (const std::string& name : server.engines().Names()) {
    const auto health = server.engines().HealthOf(name);
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health.value().health, EngineHealth::kOn) << name;
    EXPECT_EQ(health.value().trips_total, 0u) << name;
  }
}

// Execution-level proof of the IResReplan contract: an operator whose
// output was materialized before the failure never *starts* again — not
// merely "is absent from the final plan". The trivial strategy, by
// contrast, redoes the work.
class ReplanRecomputeTest : public ::testing::Test {
 protected:
  // Runs HelloWorld killing `fail_algorithm`'s engine on its first start,
  // returning how many times each algorithm started across all attempts.
  std::map<std::string, int> CountStarts(const std::string& fail_algorithm,
                                         ReplanStrategy strategy) {
    auto registry = MakeStandardEngineRegistry();
    ClusterSimulator cluster(16, 4, 8.0);
    GeneratedWorkload workload = MakeHelloWorldWorkflow(0.5);
    DpPlanner planner(&workload.library, registry.get());
    Enforcer enforcer(registry.get(), &cluster, 7);

    std::map<std::string, int> starts;
    bool fired = false;
    enforcer.set_fault_oracle(
        [&starts, &fired, fail_algorithm](const PlanStep& step, double,
                                          int) {
          Enforcer::FaultDecision decision;
          if (step.kind == PlanStep::Kind::kOperator) {
            ++starts[step.algorithm];
            if (!fired && step.algorithm == fail_algorithm) {
              fired = true;
              decision.fail = true;
              decision.kind = FailureKind::kEngineCrash;
            }
          }
          return decision;
        });
    RecoveringExecutor recovering(&planner, &enforcer, registry.get());
    auto outcome = recovering.Run(workload.graph, {}, strategy);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    if (outcome.ok()) {
      EXPECT_TRUE(outcome.value().status.ok());
      EXPECT_EQ(outcome.value().replans, 1);
    }
    return starts;
  }
};

TEST_F(ReplanRecomputeTest, IresReplanNeverRestartsMaterializedWork) {
  const auto starts =
      CountStarts("HelloWorld2", ReplanStrategy::kIresReplan);
  // The upstream operator completed before the failure; its output seeded
  // the replan and it never ran again.
  EXPECT_EQ(starts.at("HelloWorld1"), 1);
  // The victim started twice: the killed attempt plus the replanned one.
  EXPECT_EQ(starts.at("HelloWorld2"), 2);
}

TEST_F(ReplanRecomputeTest, TrivialReplanRedoesMaterializedWork) {
  const auto starts =
      CountStarts("HelloWorld2", ReplanStrategy::kTrivialReplan);
  EXPECT_EQ(starts.at("HelloWorld1"), 2);
  EXPECT_EQ(starts.at("HelloWorld2"), 2);
}

}  // namespace
}  // namespace ires
