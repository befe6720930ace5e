// Concurrency suite for the serving layer: the job service's admission
// queue, worker pool and lifecycle, the REST jobs surface, the plan cache,
// and — crucially — that N threads hammering the API concurrently lose no
// model-refinement updates and trip no data races (CI runs this binary
// under ThreadSanitizer).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/rest_api.h"
#include "service/control_plane.h"
#include "service/job_service.h"
#include "threading/task_scheduler.h"
#include "telemetry/trace_context.h"

namespace ires {
namespace {

constexpr const char* kGraph =
    "asapServerLog,LineCount,0\n"
    "LineCount,d1,0\n"
    "d1,$$target\n";

void RegisterLineCount(RestApi* api) {
  ASSERT_EQ(api->Handle("POST", "/apiv1/datasets/asapServerLog",
                        "Constraints.Engine.FS=HDFS\n"
                        "Execution.path=hdfs:///log\n"
                        "Optimization.size=5e8\n"
                        "Optimization.documents=1000\n")
                .code,
            201);
  ASSERT_EQ(api->Handle("POST", "/apiv1/abstractOperators/LineCount",
                        "Constraints.OpSpecification.Algorithm.name="
                        "LineCount\n")
                .code,
            201);
  ASSERT_EQ(api->Handle("POST", "/apiv1/operators/LineCount_Spark",
                        "Constraints.Engine=Spark\n"
                        "Constraints.OpSpecification.Algorithm.name="
                        "LineCount\n"
                        "Constraints.Input0.Engine.FS=HDFS\n"
                        "Constraints.Output0.Engine.FS=HDFS\n")
                .code,
            201);
  ASSERT_EQ(api->Handle("POST", "/apiv1/workflows/lc", kGraph).code, 201);
}

// ------------------------------------------------------------ TaskScheduler

TEST(TaskSchedulerTest, RunsAllSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    TaskScheduler scheduler(4);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(scheduler.Submit([&ran] { ran.fetch_add(1); }));
    }
  }  // destructor drains + joins
  EXPECT_EQ(ran.load(), 100);
}

TEST(TaskSchedulerTest, RejectsAfterShutdown) {
  TaskScheduler scheduler(2);
  scheduler.Shutdown();
  EXPECT_FALSE(scheduler.Submit([] {}));
}

// --------------------------------------------------------------- JobService

TEST(JobServiceTest, SubmitRunsToSuccess) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  auto graph = server.ParseWorkflow(kGraph);
  ASSERT_TRUE(graph.ok());

  JobService jobs(&server);
  auto id = jobs.Submit(graph.value(), "lc");
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(jobs.WaitForIdle(30.0));

  auto record = jobs.Get(id.value());
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().state, JobState::kSucceeded);
  EXPECT_GT(record.value().outcome.total_execution_seconds, 0.0);
  EXPECT_EQ(record.value().plan_steps, 1);
  EXPECT_FALSE(record.value().plan_summary.empty());
  EXPECT_GT(record.value().finished_at, 0.0);
}

TEST(JobServiceTest, UnknownJobAndBadCancel) {
  IresServer server;
  JobService jobs(&server);
  EXPECT_EQ(jobs.Get("job-999999").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(jobs.Cancel("job-999999").code(), StatusCode::kNotFound);
}

TEST(JobServiceTest, QueueFullRejectsWithResourceExhausted) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  auto graph = server.ParseWorkflow(kGraph);
  ASSERT_TRUE(graph.ok());

  JobService::Options options;
  options.workers = 1;
  options.queue_capacity = 2;
  JobService jobs(&server, options);

  // Many rapid submissions against 1 worker + 2 queue slots must bounce at
  // least one (the worker may drain a few in between).
  int rejected = 0;
  for (int i = 0; i < 50; ++i) {
    auto id = jobs.Submit(graph.value(), "lc");
    if (!id.ok()) {
      EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_TRUE(jobs.WaitForIdle(60.0));
  EXPECT_EQ(jobs.stats().rejected, static_cast<uint64_t>(rejected));
}

TEST(JobServiceTest, CancelQueuedJob) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  auto graph = server.ParseWorkflow(kGraph);
  ASSERT_TRUE(graph.ok());

  // One worker, deep queue: the tail submission is still QUEUED when we
  // cancel it.
  JobService::Options options;
  options.workers = 1;
  options.queue_capacity = 64;
  JobService jobs(&server, options);
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = jobs.Submit(graph.value(), "lc");
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  const Status cancel = jobs.Cancel(ids.back());
  // Either we caught it queued (OK) or the pool already finished it.
  auto record = jobs.Get(ids.back());
  ASSERT_TRUE(record.ok());
  if (cancel.ok()) {
    EXPECT_TRUE(record.value().state == JobState::kCancelled ||
                record.value().state == JobState::kSucceeded);
  }
  ASSERT_TRUE(jobs.WaitForIdle(60.0));
  record = jobs.Get(ids.back());
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(IsTerminal(record.value().state));
}

TEST(JobServiceTest, CancelledJobsStillCarryQueueTiming) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  auto graph = server.ParseWorkflow(kGraph);
  ASSERT_TRUE(graph.ok());

  // One worker, deep queue, many jobs: the tail is still QUEUED when
  // cancelled, and its record must nonetheless carry its queue wait — a
  // cancelled job's latency is part of the serving signal.
  JobService::Options options;
  options.workers = 1;
  options.queue_capacity = 64;
  JobService jobs(&server, options);
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) {
    auto id = jobs.Submit(graph.value(), "lc");
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  const Status cancel = jobs.Cancel(ids.back());
  ASSERT_TRUE(jobs.WaitForIdle(60.0));
  for (const JobRecord& record : jobs.List()) {
    ASSERT_TRUE(IsTerminal(record.state));
    EXPECT_GT(record.finished_at, 0.0) << record.id;
    // Every terminal job measured the phases it reached.
    EXPECT_GT(record.queue_seconds, 0.0) << record.id;
    if (record.state == JobState::kSucceeded) {
      EXPECT_GT(record.plan_seconds, 0.0) << record.id;
      EXPECT_GT(record.exec_wall_seconds, 0.0) << record.id;
    }
    // The trace exists and its queue-wait span is closed.
    ASSERT_NE(record.trace, nullptr) << record.id;
    bool queue_span_closed = false;
    for (const TraceSpan& span : record.trace->Snapshot()) {
      if (span.name == "job.queue_wait" && span.finished()) {
        queue_span_closed = true;
      }
    }
    EXPECT_TRUE(queue_span_closed) << record.id;
  }
  if (cancel.ok()) {
    auto record = jobs.Get(ids.back());
    ASSERT_TRUE(record.ok());
    if (record.value().state == JobState::kCancelled) {
      // Cancelled while queued: no planning/execution phases, queue wait
      // spans its whole lifetime.
      EXPECT_EQ(record.value().started_at, 0.0);
      EXPECT_NEAR(record.value().queue_seconds,
                  record.value().finished_at - record.value().submitted_at,
                  1e-9);
    }
  }
}

TEST(JobServiceTest, ShutdownCancelsQueuedJobs) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  auto graph = server.ParseWorkflow(kGraph);
  ASSERT_TRUE(graph.ok());

  JobService::Options options;
  options.workers = 1;
  options.queue_capacity = 64;
  auto jobs = std::make_unique<JobService>(&server, options);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(jobs->Submit(graph.value(), "lc").ok());
  }
  jobs->Shutdown();
  for (const JobRecord& record : jobs->List()) {
    EXPECT_TRUE(IsTerminal(record.state))
        << record.id << " left in " << JobStateName(record.state);
  }
}

TEST(JobServiceTest, EngineRecoversAfterFailedJob) {
  // Regression for the engine-availability leak: a job whose failure
  // indicts Spark used to mark the engine OFF forever, so every later
  // LineCount submission (Spark is its only engine) failed planning. With
  // the circuit breaker the failure only suspends Spark on the simulated
  // clock, and a later job probes and reuses it.
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  auto graph = server.ParseWorkflow(kGraph);
  ASSERT_TRUE(graph.ok());

  JobService::Options options;
  options.workers = 1;
  JobService jobs(&server, options);

  // Job 1 runs under a chaos schedule that always crashes Spark; with no
  // replan budget the failure is terminal.
  IresServer::ExecutionOptions chaotic;
  chaotic.max_replans = 0;
  chaotic.chaos.seed = 21;
  chaotic.chaos.engine_crash_probability = 1.0;
  chaotic.chaos.crash_engine = "Spark";
  auto first = jobs.Submit(graph.value(), "lc",
                           OptimizationPolicy::MinimizeTime(), chaotic);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(jobs.WaitForIdle(30.0));

  auto record = jobs.Get(first.value());
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record.value().state, JobState::kFailed);
  ASSERT_FALSE(record.value().outcome.failures.empty());
  EXPECT_EQ(record.value().outcome.failures[0].engine, "Spark");
  // The breaker suspended Spark instead of amputating it.
  auto health = server.engines().HealthOf("Spark");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.value().health, EngineHealth::kOff);

  // Simulated work elapses (other tenants' jobs); the suspension expires.
  server.engines().AdvanceSimClock(
      server.engines().breaker_config().max_suspension_seconds + 1.0);

  // Job 2, no chaos: it must plan onto the recovered Spark and succeed.
  auto second = jobs.Submit(graph.value(), "lc");
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(jobs.WaitForIdle(30.0));
  record = jobs.Get(second.value());
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().state, JobState::kSucceeded)
      << record.value().error;
  // The successful probe closed the breaker back to ON.
  health = server.engines().HealthOf("Spark");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().health, EngineHealth::kOn);
}

TEST(JobServiceTest, FailedJobCarriesSloClassAndEventSnapshot) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  auto graph = server.ParseWorkflow(kGraph);
  ASSERT_TRUE(graph.ok());

  JobService::Options options;
  options.workers = 1;
  JobService jobs(&server, options);

  // A doomed job (chaos always crashes Spark, no replan budget) must carry
  // its flight-recorder snapshot into the terminal record; a caller-tagged
  // SLO class sticks.
  IresServer::ExecutionOptions chaotic;
  chaotic.max_replans = 0;
  chaotic.chaos.seed = 33;
  chaotic.chaos.engine_crash_probability = 1.0;
  chaotic.chaos.crash_engine = "Spark";
  auto failed = jobs.Submit(graph.value(), "lc",
                            OptimizationPolicy::MinimizeTime(), chaotic,
                            /*slo_class=*/"sql");
  ASSERT_TRUE(failed.ok()) << failed.status();
  ASSERT_TRUE(jobs.WaitForIdle(30.0));

  auto record = jobs.Get(failed.value());
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record.value().state, JobState::kFailed);
  EXPECT_EQ(record.value().slo_class, "sql");
  ASSERT_FALSE(record.value().event_snapshot.empty());
  // Snapshot is this job's history in order, ending at the terminal event.
  for (const JournalEvent& event : record.value().event_snapshot) {
    EXPECT_EQ(event.job, failed.value());
  }
  EXPECT_EQ(record.value().event_snapshot.back().kind, EventKind::kJobFailed);
  EXPECT_EQ(record.value().event_snapshot.front().kind,
            EventKind::kAdmissionAccept);

  // A successful job stays snapshot-free (the journal is queryable, but
  // only failures pin history into the record). Let the suspension from the
  // failure above expire first.
  server.engines().AdvanceSimClock(
      server.engines().breaker_config().max_suspension_seconds + 1.0);
  auto ok = jobs.Submit(graph.value(), "lc");
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_TRUE(jobs.WaitForIdle(30.0));
  record = jobs.Get(ok.value());
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record.value().state, JobState::kSucceeded)
      << record.value().error;
  EXPECT_EQ(record.value().slo_class, "dag");
  EXPECT_TRUE(record.value().event_snapshot.empty());
}

// ------------------------------------------------------------ REST surface

TEST(JobsRestTest, AsyncExecuteLifecycle) {
  IresServer server;
  RestApi api(&server);
  RegisterLineCount(&api);

  ApiResponse submit =
      api.Handle("POST", "/apiv1/workflows/lc/execute?mode=async");
  ASSERT_EQ(submit.code, 202) << submit.body;
  ASSERT_NE(submit.body.find("\"jobId\":\"job-"), std::string::npos);
  const size_t start = submit.body.find("job-");
  const std::string job_id =
      submit.body.substr(start, submit.body.find('"', start) - start);

  // Poll until terminal.
  ApiResponse record;
  for (int i = 0; i < 600; ++i) {
    record = api.Handle("GET", "/apiv1/jobs/" + job_id);
    ASSERT_EQ(record.code, 200) << record.body;
    if (record.body.find("\"state\":\"SUCCEEDED\"") != std::string::npos ||
        record.body.find("\"state\":\"FAILED\"") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(record.body.find("\"state\":\"SUCCEEDED\""), std::string::npos)
      << record.body;
  EXPECT_NE(record.body.find("\"plan\":\""), std::string::npos);

  ApiResponse list = api.Handle("GET", "/apiv1/jobs");
  ASSERT_EQ(list.code, 200);
  EXPECT_NE(list.body.find(job_id), std::string::npos);

  // Cancelling a finished job is a 422 with the uniform envelope.
  ApiResponse cancel =
      api.Handle("POST", "/apiv1/jobs/" + job_id + "/cancel");
  EXPECT_EQ(cancel.code, 422);
  EXPECT_NE(cancel.body.find("\"error\":{\"code\":\"FailedPrecondition\""),
            std::string::npos)
      << cancel.body;
}

TEST(JobsRestTest, QueueFullReturns429) {
  IresServer server;
  ControlPlane::Options options;
  options.replica_options.workers = 1;
  options.replica_options.queue_capacity = 1;
  ControlPlane plane(&server, options);
  RestApi api(&server, &plane);
  RegisterLineCount(&api);

  int rejected_429 = 0;
  for (int i = 0; i < 50; ++i) {
    ApiResponse r =
        api.Handle("POST", "/apiv1/workflows/lc/execute?mode=async");
    if (r.code == 429) {
      ++rejected_429;
      EXPECT_NE(r.body.find("\"error\":{\"code\":\"ResourceExhausted\""),
                std::string::npos)
          << r.body;
    } else {
      EXPECT_EQ(r.code, 202) << r.body;
    }
  }
  EXPECT_GT(rejected_429, 0);
  EXPECT_TRUE(plane.WaitForIdle(60.0));
}

TEST(JobsRestTest, StatsEndpointCountsCacheHits) {
  IresServer server;
  RestApi api(&server);
  RegisterLineCount(&api);

  // Repeated submission of the same workflow: first plan is a miss, the
  // rest hit the plan cache instead of re-running the DP.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(api.Handle("POST", "/apiv1/workflows/lc/execute").code, 200);
  }
  ApiResponse stats = api.Handle("GET", "/apiv1/stats");
  ASSERT_EQ(stats.code, 200) << stats.body;
  EXPECT_NE(stats.body.find("\"planCache\":{\"hits\":3,\"misses\":1"),
            std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"jobs\":{"), std::string::npos);
}

TEST(JobsRestTest, ErrorEnvelopeIsUniform) {
  IresServer server;
  RestApi api(&server);
  ApiResponse missing = api.Handle("GET", "/apiv1/jobs/job-000042");
  EXPECT_EQ(missing.code, 404);
  EXPECT_NE(missing.body.find("\"error\":{\"code\":\"NotFound\""),
            std::string::npos)
      << missing.body;
  ApiResponse unknown = api.Handle("GET", "/nope");
  EXPECT_EQ(unknown.code, 404);
  EXPECT_NE(unknown.body.find("\"error\":{\"code\":\"NotFound\""),
            std::string::npos);
}

// ------------------------------------------------------------- stress test

TEST(ServiceStressTest, ConcurrentSubmissionsAllTerminalNoLostUpdates) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 8;  // 64 runs total, within the model window

  IresServer server;
  ControlPlane::Options options;
  options.replica_options.workers = 4;
  options.replica_options.queue_capacity = kThreads * kPerThread;
  ControlPlane plane(&server, options);
  RestApi api(&server, &plane);
  RegisterLineCount(&api);

  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&api, &accepted] {
      for (int i = 0; i < kPerThread; ++i) {
        ApiResponse r =
            api.Handle("POST", "/apiv1/workflows/lc/execute?mode=async");
        ASSERT_EQ(r.code, 202) << r.body;  // queue sized for all submissions
        accepted.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(accepted.load(), kThreads * kPerThread);
  ASSERT_TRUE(plane.WaitForIdle(120.0));

  // Every job reached a terminal state, none failed.
  int succeeded = 0;
  for (const JobRecord& record : plane.List()) {
    EXPECT_TRUE(IsTerminal(record.state))
        << record.id << " in " << JobStateName(record.state);
    if (record.state == JobState::kSucceeded) ++succeeded;
    EXPECT_TRUE(record.error.empty()) << record.error;
  }
  EXPECT_EQ(succeeded, kThreads * kPerThread);

  // No lost model-refinement updates: the LineCount plan runs exactly one
  // operator (on Spark), so the refined sample count must equal the number
  // of executed runs.
  EXPECT_EQ(server.estimator("LineCount", "Spark")->sample_count(),
            static_cast<size_t>(kThreads * kPerThread));

  // The plan cache absorbed the repeated DP invocations.
  const PlanCache::Stats cache = server.plan_cache().stats();
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GE(cache.hits + cache.misses,
            static_cast<uint64_t>(kThreads * kPerThread));

  const JobService::Stats stats = plane.AggregateStats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.succeeded, static_cast<uint64_t>(succeeded));
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);

  // The stats above are thin reads over the metrics registry; the rendered
  // exposition must agree with them after the concurrent hammering.
  const std::string metrics = server.metrics().RenderPrometheus();
  EXPECT_NE(metrics.find("ires_jobs_total{event=\"submitted\"} 64"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("ires_jobs_total{event=\"succeeded\"} 64"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("ires_job_queue_wait_seconds_count 64"),
            std::string::npos)
      << metrics;
  // Every job ran as one scheduler task, and so did every model refit the
  // runs queued.
  uint64_t refit_tasks = 0;
  for (const char* outcome : {"installed", "superseded", "failed"}) {
    refit_tasks += server.metrics()
                       .GetCounter("ires_model_refits_total", "",
                                   {{"outcome", outcome}})
                       ->Value();
  }
  EXPECT_GT(refit_tasks, 0u);
  EXPECT_NE(metrics.find("ires_sched_task_wait_seconds_count " +
                         std::to_string(64 + refit_tasks)),
            std::string::npos)
      << metrics;
}

}  // namespace
}  // namespace ires
