#include <gtest/gtest.h>

#include "engines/standard_engines.h"
#include "executor/execution_monitor.h"
#include "executor/recovering_executor.h"
#include "executor/trace.h"
#include "workloadgen/asap_workflows.h"

namespace ires {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : registry_(MakeStandardEngineRegistry()), cluster_(16, 4, 8.0) {}

  Result<ExecutionPlan> Plan(const GeneratedWorkload& w) {
    DpPlanner planner(&w.library, registry_.get());
    return planner.Plan(w.graph, {});
  }

  std::unique_ptr<EngineRegistry> registry_;
  ClusterSimulator cluster_;
};

TEST_F(ExecutorTest, ExecutesPlanToCompletion) {
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 1);
  ExecutionReport report = enforcer.Execute(plan.value());
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_GT(report.total_cost, 0.0);
  // Every step finished after it started.
  for (const StepResult& r : report.steps) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_GE(r.finish_seconds, r.start_seconds);
  }
  // All intermediates and the target materialized.
  EXPECT_TRUE(report.materialized.count("vectors") > 0);
  EXPECT_TRUE(report.materialized.count("clusters") > 0);
  // All allocations returned.
  EXPECT_EQ(cluster_.active_allocations(), 0);
}

TEST_F(ExecutorTest, ActualTimesTrackEstimatesWithNoise) {
  const GeneratedWorkload w = MakeGraphAnalyticsWorkflow(10e6);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 2);
  ExecutionReport report = enforcer.Execute(plan.value());
  ASSERT_TRUE(report.status.ok());
  EXPECT_NEAR(report.makespan_seconds, plan.value().estimated_seconds,
              plan.value().estimated_seconds * 0.3);
}

TEST_F(ExecutorTest, RespectsDependencies) {
  const GeneratedWorkload w = MakeRelationalWorkflow(5.0);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 3);
  ExecutionReport report = enforcer.Execute(plan.value());
  ASSERT_TRUE(report.status.ok());
  for (const PlanStep& step : plan.value().steps) {
    for (int dep : step.deps) {
      EXPECT_GE(report.steps[step.id].start_seconds,
                report.steps[dep].finish_seconds - 1e-9);
    }
  }
}

TEST_F(ExecutorTest, IndependentStepsOverlap) {
  const GeneratedWorkload w = MakeRelationalWorkflow(5.0);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 4);
  ExecutionReport report = enforcer.Execute(plan.value());
  ASSERT_TRUE(report.status.ok());
  double serialized = 0.0;
  for (const StepResult& r : report.steps) {
    serialized += r.finish_seconds - r.start_seconds;
  }
  EXPECT_LE(report.makespan_seconds, serialized + 1e-9);
}

TEST_F(ExecutorTest, EngineFailureProducesPartialReport) {
  const GeneratedWorkload w = MakeHelloWorldWorkflow(0.5);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 5);
  // Kill whatever engine hosts HelloWorld2.
  enforcer.set_fault_oracle([](const PlanStep& step, double, int) {
    return Enforcer::FaultDecision{step.algorithm == "HelloWorld2",
                                   FailureKind::kEngineCrash};
  });
  ExecutionReport report = enforcer.Execute(plan.value());
  EXPECT_FALSE(report.status.ok());
  EXPECT_GE(report.failed_step, 0);
  // Upstream outputs must be recorded as materialized.
  EXPECT_TRUE(report.materialized.count("HelloWorld1_out") > 0);
  EXPECT_EQ(report.materialized.count("HelloWorld3_out"), 0u);
  EXPECT_EQ(cluster_.active_allocations(), 0);
}

TEST_F(ExecutorTest, OffEngineFailsAtStepStart) {
  const GeneratedWorkload w = MakeGraphAnalyticsWorkflow(1e6);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  const std::string engine = plan.value().steps.back().engine;
  (void)registry_->SetAvailable(engine, false);
  Enforcer enforcer(registry_.get(), &cluster_, 6);
  ExecutionReport report = enforcer.Execute(plan.value());
  EXPECT_EQ(report.status.code(), StatusCode::kUnavailable);
}

TEST_F(ExecutorTest, NodeFailureKillsHostedSteps) {
  const GeneratedWorkload w = MakeGraphAnalyticsWorkflow(10e6);  // Hama
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 10);
  // Kill every node 1 simulated second in: the Pagerank containers are
  // running somewhere, so the step must fail.
  for (int n = 0; n < cluster_.node_count(); ++n) {
    enforcer.ScheduleNodeFailure(n, 1.0);
  }
  ExecutionReport report = enforcer.Execute(plan.value());
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kExecutionError);
  EXPECT_GE(report.failed_step, 0);
  // The abort fires at the first fatal node death; at least that node is
  // marked unhealthy (later scheduled failures never apply).
  EXPECT_LT(cluster_.healthy_node_count(), cluster_.node_count());
}

TEST_F(ExecutorTest, IdleNodeFailureDoesNotAbort) {
  const GeneratedWorkload w = MakeGraphAnalyticsWorkflow(1e6);  // Java, 1 box
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 11);
  // The single-container Java job occupies one node; kill a node late in
  // the run — with 16 nodes the odds are it is idle, but to be
  // deterministic, kill the highest-index node (first-fit placed the job on
  // the most-free = lowest-index after sorting; just assert the run result
  // is consistent with the health map).
  enforcer.ScheduleNodeFailure(cluster_.node_count() - 1, 0.5);
  ExecutionReport report = enforcer.Execute(plan.value());
  if (report.status.ok()) {
    EXPECT_EQ(cluster_.healthy_node_count(), cluster_.node_count() - 1);
  } else {
    EXPECT_EQ(report.status.code(), StatusCode::kExecutionError);
  }
}

TEST_F(ExecutorTest, NodeFailureRecoverableViaReplan) {
  // After a node failure the replanning loop retries; with the node dead
  // but the engine alive, the retry succeeds on the remaining nodes.
  GeneratedWorkload w = MakeGraphAnalyticsWorkflow(10e6);
  DpPlanner planner(&w.library, registry_.get());
  Enforcer enforcer(registry_.get(), &cluster_, 12);
  for (int n = 0; n < 4; ++n) enforcer.ScheduleNodeFailure(n, 1.0);
  RecoveringExecutor recovering(&planner, &enforcer, registry_.get());
  auto outcome = recovering.Run(w.graph, {}, ReplanStrategy::kIresReplan);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome.value().status.ok());
}

// ------------------------------------------- retries and failure domains
TEST_F(ExecutorTest, TransientFaultsRetryInPlace) {
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 30);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_seconds = 1.0;
  enforcer.set_retry_policy(policy);
  // First two start attempts of step 0 hit transient faults; the third
  // succeeds inside the retry budget, so the workflow still completes.
  enforcer.set_fault_oracle([](const PlanStep& step, double, int attempt) {
    Enforcer::FaultDecision d;
    if (step.id == 0 && attempt <= 2) {
      d.fail = true;
      d.kind = FailureKind::kTransient;
    }
    return d;
  });
  ExecutionReport report = enforcer.Execute(plan.value());
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.step_retries, 2);
  EXPECT_EQ(report.steps[0].attempts, 3);
  EXPECT_EQ(cluster_.active_allocations(), 0);
}

TEST_F(ExecutorTest, ExhaustedRetryBudgetAbortsWithTransientKind) {
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 31);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff_seconds = 1.0;
  enforcer.set_retry_policy(policy);
  enforcer.set_fault_oracle([](const PlanStep& step, double, int) {
    Enforcer::FaultDecision d;
    if (step.id == 0) {
      d.fail = true;
      d.kind = FailureKind::kTransient;
    }
    return d;
  });
  ExecutionReport report = enforcer.Execute(plan.value());
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.failed_step, 0);
  EXPECT_EQ(report.failure_kind, FailureKind::kTransient);
  EXPECT_EQ(report.steps[0].attempts, 2);
  EXPECT_EQ(report.step_retries, 1);
  EXPECT_EQ(cluster_.active_allocations(), 0);
}

TEST_F(ExecutorTest, StragglerDeadlineKillsAndRetries) {
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 32);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff_seconds = 1.0;
  policy.straggler_multiplier = 2.0;  // arm step deadlines
  enforcer.set_retry_policy(policy);
  const int target = plan.value().steps.back().id;
  // The first attempt of the last step hangs (an injected straggler); the
  // armed deadline kills it at 2x the estimate and the retry completes.
  enforcer.set_fault_oracle(
      [target](const PlanStep& step, double, int attempt) {
        Enforcer::FaultDecision d;
        if (step.id == target && attempt == 1) {
          d.fail = true;
          d.kind = FailureKind::kTimeout;
        }
        return d;
      });
  ExecutionReport report = enforcer.Execute(plan.value());
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.step_retries, 1);
  EXPECT_EQ(report.steps[target].attempts, 2);
  // The hung attempt burned (deadline + backoff) simulated time on top of
  // the successful attempt's duration.
  EXPECT_GT(report.steps[target].finish_seconds,
            plan.value().steps[target].estimated_seconds * 2.0);
  EXPECT_EQ(cluster_.active_allocations(), 0);
}

TEST_F(ExecutorTest, NodeScheduleAndHealthPersistAcrossExecutes) {
  const GeneratedWorkload w = MakeGraphAnalyticsWorkflow(10e6);  // Hama
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 33);
  for (int n = 0; n < cluster_.node_count(); ++n) {
    enforcer.ScheduleNodeFailure(n, 1.0);
  }
  ExecutionReport first = enforcer.Execute(plan.value());
  ASSERT_FALSE(first.status.ok());
  EXPECT_EQ(first.failure_kind, FailureKind::kNodeCrash);
  const int dead_after_first =
      cluster_.node_count() - cluster_.healthy_node_count();
  ASSERT_GT(dead_after_first, 0);

  // A replan attempt on the same enforcer: nodes that already died stay
  // dead (their events do not re-fire), while not-yet-fired failures still
  // apply — the node-failure state machine survives RunFrom attempts.
  ExecutionReport second = enforcer.Execute(plan.value());
  const int dead_after_second =
      cluster_.node_count() - cluster_.healthy_node_count();
  EXPECT_GE(dead_after_second, dead_after_first);
  if (!second.status.ok()) {
    EXPECT_EQ(second.failure_kind, FailureKind::kNodeCrash);
  }
}

TEST_F(ExecutorTest, NodeRecoveryScheduleHealsTheCluster) {
  const GeneratedWorkload w = MakeGraphAnalyticsWorkflow(10e6);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 34);
  // Node 0 is already down (say, a prior attempt's crash); a chaos flap
  // schedule brings it back two simulated seconds into the run.
  cluster_.SetNodeHealth(0, NodeHealth::kUnhealthy);
  enforcer.ScheduleNodeRecovery(0, 2.0);
  ExecutionReport report = enforcer.Execute(plan.value());
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(cluster_.healthy_node_count(), cluster_.node_count());
  // Re-running skips the already-applied recovery on the healthy node.
  ExecutionReport second = enforcer.Execute(plan.value());
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_EQ(cluster_.healthy_node_count(), cluster_.node_count());
}

TEST_F(ExecutorTest, TraceExportsTimeline) {
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  Enforcer enforcer(registry_.get(), &cluster_, 9);
  ExecutionReport report = enforcer.Execute(plan.value());
  ASSERT_TRUE(report.status.ok());

  const std::string json = ExecutionTraceJson(plan.value(), report);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"engine\":\"scikit\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"move\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);

  const std::string csv = ExecutionTraceCsv(plan.value(), report);
  // Header + one line per executed step.
  size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, plan.value().steps.size() + 1);
}

// ---------------------------------------------------------------- monitor
TEST_F(ExecutorTest, MonitorDetectsOffEngines) {
  const GeneratedWorkload w = MakeGraphAnalyticsWorkflow(10e6);
  auto plan = Plan(w);
  ASSERT_TRUE(plan.ok());
  ExecutionMonitor monitor(registry_.get(), &cluster_);
  EXPECT_TRUE(monitor.PlanIsRunnable(plan.value()));
  (void)registry_->SetAvailable("Hama", false);
  auto off = monitor.UnavailableEngines(plan.value());
  ASSERT_EQ(off.size(), 1u);
  EXPECT_EQ(off[0], "Hama");
  EXPECT_FALSE(monitor.PlanIsRunnable(plan.value()));
}

TEST_F(ExecutorTest, MonitorRunsHealthScripts) {
  ExecutionMonitor monitor(registry_.get(), &cluster_);
  EXPECT_TRUE(monitor.RunHealthChecks().empty());
  // Custom health script that flags node 3.
  monitor.set_health_script(
      [n = 0](const ClusterSimulator::NodeState&) mutable {
        return n++ == 3 ? NodeHealth::kUnhealthy : NodeHealth::kHealthy;
      });
  auto unhealthy = monitor.RunHealthChecks();
  ASSERT_EQ(unhealthy.size(), 1u);
  EXPECT_EQ(unhealthy[0], 3);
  EXPECT_EQ(cluster_.healthy_node_count(), 15);
  EXPECT_EQ(monitor.HealthSnapshot()[3], NodeHealth::kUnhealthy);
}

// ------------------------------------------------------ recovery strategies
class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : registry_(MakeStandardEngineRegistry()),
                   cluster_(16, 4, 8.0) {}

  // Runs the HelloWorld workflow killing the engine of `fail_algorithm` the
  // first time a step of that algorithm starts.
  Result<RecoveryOutcome> RunWithFailure(const std::string& fail_algorithm,
                                         ReplanStrategy strategy) {
    workload_ = MakeHelloWorldWorkflow(0.5);
    planner_ = std::make_unique<DpPlanner>(&workload_.library,
                                           registry_.get());
    enforcer_ = std::make_unique<Enforcer>(registry_.get(), &cluster_, 7);
    bool fired = false;
    enforcer_->set_fault_oracle(
        [&fired, fail_algorithm](const PlanStep& step, double, int) {
          Enforcer::FaultDecision crash;
          if (fired || step.algorithm != fail_algorithm) return crash;
          fired = crash.fail = true;
          return crash;
        });
    RecoveringExecutor recovering(planner_.get(), enforcer_.get(),
                                  registry_.get());
    return recovering.Run(workload_.graph, {}, strategy);
  }

  GeneratedWorkload workload_;
  std::unique_ptr<EngineRegistry> registry_;
  ClusterSimulator cluster_;
  std::unique_ptr<DpPlanner> planner_;
  std::unique_ptr<Enforcer> enforcer_;
};

TEST_F(RecoveryTest, NoFailureNoReplan) {
  workload_ = MakeHelloWorldWorkflow(0.5);
  DpPlanner planner(&workload_.library, registry_.get());
  Enforcer enforcer(registry_.get(), &cluster_, 8);
  RecoveringExecutor recovering(&planner, &enforcer, registry_.get());
  auto outcome = recovering.Run(workload_.graph, {},
                                ReplanStrategy::kIresReplan);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome.value().replans, 0);
  EXPECT_TRUE(outcome.value().status.ok());
}

TEST_F(RecoveryTest, IresReplanRecoversAndReusesIntermediates) {
  auto outcome = RunWithFailure("HelloWorld2", ReplanStrategy::kIresReplan);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome.value().replans, 1);
  EXPECT_TRUE(outcome.value().status.ok());
  // The replanned final plan must NOT contain the operators that completed
  // before the failure (their outputs were reused).
  int hello1_runs = 0;
  for (const PlanStep& step : outcome.value().final_plan.steps) {
    hello1_runs += step.algorithm == "HelloWorld1";
  }
  EXPECT_EQ(hello1_runs, 0);
}

TEST_F(RecoveryTest, TrivialReplanRedoesCompletedWork) {
  auto ires = RunWithFailure("HelloWorld2", ReplanStrategy::kIresReplan);
  ASSERT_TRUE(ires.ok());
  // Fresh fixtures for the second strategy (engines were marked OFF).
  registry_ = MakeStandardEngineRegistry();
  auto trivial = RunWithFailure("HelloWorld2",
                                ReplanStrategy::kTrivialReplan);
  ASSERT_TRUE(trivial.ok());
  // The trivial strategy re-executes HelloWorld and HelloWorld1, so its
  // total execution time must exceed IResReplan's.
  EXPECT_GT(trivial.value().total_execution_seconds,
            ires.value().total_execution_seconds);
  int hello1_runs = 0;
  for (const PlanStep& step : trivial.value().final_plan.steps) {
    hello1_runs += step.algorithm == "HelloWorld1";
  }
  EXPECT_EQ(hello1_runs, 1);
}

TEST_F(RecoveryTest, LaterFailuresFavorIresReplanMore) {
  // Deliverable §4.5: the further in the execution path the failure, the
  // larger the gains of IResReplan over TrivialReplan.
  double gain_early, gain_late;
  {
    auto ires = RunWithFailure("HelloWorld1", ReplanStrategy::kIresReplan);
    ASSERT_TRUE(ires.ok());
    registry_ = MakeStandardEngineRegistry();
    auto trivial =
        RunWithFailure("HelloWorld1", ReplanStrategy::kTrivialReplan);
    ASSERT_TRUE(trivial.ok());
    gain_early = trivial.value().total_execution_seconds -
                 ires.value().total_execution_seconds;
  }
  registry_ = MakeStandardEngineRegistry();
  {
    auto ires = RunWithFailure("HelloWorld3", ReplanStrategy::kIresReplan);
    ASSERT_TRUE(ires.ok());
    registry_ = MakeStandardEngineRegistry();
    auto trivial =
        RunWithFailure("HelloWorld3", ReplanStrategy::kTrivialReplan);
    ASSERT_TRUE(trivial.ok());
    gain_late = trivial.value().total_execution_seconds -
                ires.value().total_execution_seconds;
  }
  EXPECT_GT(gain_late, gain_early);
}

TEST_F(RecoveryTest, UnrecoverableWhenNoAlternativeEngine) {
  // HelloWorld (the first operator) only has a Python implementation;
  // killing Python leaves no feasible replan.
  auto outcome = RunWithFailure("HelloWorld", ReplanStrategy::kIresReplan);
  EXPECT_FALSE(outcome.ok());
}

// ------------------------------------------- RecoveryOutcome accounting
TEST_F(RecoveryTest, MaxReplansZeroFailsWithoutReplanning) {
  workload_ = MakeHelloWorldWorkflow(0.5);
  planner_ = std::make_unique<DpPlanner>(&workload_.library, registry_.get());
  enforcer_ = std::make_unique<Enforcer>(registry_.get(), &cluster_, 40);
  bool fired = false;
  enforcer_->set_fault_oracle([&fired](const PlanStep& step, double, int) {
    Enforcer::FaultDecision crash;
    if (fired || step.algorithm != "HelloWorld2") return crash;
    fired = crash.fail = true;
    return crash;
  });
  RecoveringExecutor recovering(planner_.get(), enforcer_.get(),
                                registry_.get());
  // A zero budget means the single failure is terminal even though a
  // replan would have succeeded — and the replan that never ran is not
  // counted.
  recovering.set_max_replans(0);
  RecoveryOutcome outcome = recovering.RunFrom(
      workload_.graph, {}, ReplanStrategy::kIresReplan, nullptr);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.replans, 0);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].attempt, 0);
  EXPECT_EQ(outcome.failures[0].kind, FailureKind::kEngineCrash);
  EXPECT_FALSE(outcome.failures[0].engine.empty());
}

TEST_F(RecoveryTest, MaxReplansOneRecoversTheSameFailure) {
  auto outcome = [this] {
    workload_ = MakeHelloWorldWorkflow(0.5);
    planner_ =
        std::make_unique<DpPlanner>(&workload_.library, registry_.get());
    enforcer_ = std::make_unique<Enforcer>(registry_.get(), &cluster_, 40);
    bool fired = false;
    enforcer_->set_fault_oracle([fired](const PlanStep& step, double,
                                        int) mutable {
      Enforcer::FaultDecision crash;
      if (fired || step.algorithm != "HelloWorld2") return crash;
      fired = crash.fail = true;
      return crash;
    });
    RecoveringExecutor recovering(planner_.get(), enforcer_.get(),
                                  registry_.get());
    recovering.set_max_replans(1);
    return recovering.RunFrom(workload_.graph, {},
                              ReplanStrategy::kIresReplan, nullptr);
  }();
  EXPECT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_EQ(outcome.replans, 1);
  EXPECT_EQ(outcome.failures.size(), 1u);  // == replans on eventual success
}

TEST_F(RecoveryTest, ReplanningMsExcludesTheInitialPlan) {
  workload_ = MakeHelloWorldWorkflow(0.5);
  DpPlanner planner(&workload_.library, registry_.get());
  Enforcer enforcer(registry_.get(), &cluster_, 41);
  RecoveringExecutor recovering(&planner, &enforcer, registry_.get());
  // Clean run: planning happened, replanning did not.
  RecoveryOutcome clean = recovering.RunFrom(
      workload_.graph, {}, ReplanStrategy::kIresReplan, nullptr);
  ASSERT_TRUE(clean.status.ok());
  EXPECT_GT(clean.total_planning_ms, 0.0);
  EXPECT_EQ(clean.replanning_ms, 0.0);

  // Failed-then-recovered run: the replan's planning time is counted in
  // both totals, the initial plan only in total_planning_ms.
  auto failed = RunWithFailure("HelloWorld2", ReplanStrategy::kIresReplan);
  ASSERT_TRUE(failed.ok());
  EXPECT_GT(failed.value().replanning_ms, 0.0);
  EXPECT_GT(failed.value().total_planning_ms, failed.value().replanning_ms);
}

TEST_F(RecoveryTest, ExecutionSecondsAccumulateAcrossFailedAttempts) {
  auto outcome = RunWithFailure("HelloWorld2", ReplanStrategy::kIresReplan);
  ASSERT_TRUE(outcome.ok());
  // The aborted first attempt's partial makespan is part of the total, so
  // the total strictly exceeds the successful attempt's makespan.
  EXPECT_GT(outcome.value().total_execution_seconds,
            outcome.value().final_report.makespan_seconds);
  EXPECT_EQ(outcome.value().step_retries, 0);  // nothing was retried in place
}

TEST_F(RecoveryTest, FailureSuspendsEngineInsteadOfAmputatingIt) {
  auto outcome = RunWithFailure("HelloWorld2", ReplanStrategy::kIresReplan);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().failures.size(), 1u);
  const std::string& engine = outcome.value().failures[0].engine;
  auto health = registry_->HealthOf(engine);
  ASSERT_TRUE(health.ok());
  // The breaker suspended the engine rather than turning it OFF for good;
  // once the suspension lapses on the simulated clock it probes half-open
  // and is schedulable again — no restart or manual flip required.
  EXPECT_NE(health.value().health, EngineHealth::kOff);
  registry_->AdvanceSimClock(
      registry_->breaker_config().max_suspension_seconds);
  EXPECT_TRUE(registry_->IsAvailable(engine));
}

}  // namespace
}  // namespace ires
