// Deep-observability suite: the cost-model drift observatory (calibrated
// pairs stay quiet, mis-modeled pairs get flagged once and clear with
// hysteresis), the multi-window SLO burn-rate monitor on a fake clock, and
// the flight-recorder acceptance path — a chaos-injected failed job whose
// journal (via GET /apiv1/debug/events and the record's eventSnapshot)
// reconstructs the full decision sequence event by event.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rest_api.h"
#include "modeling/drift.h"
#include "service/control_plane.h"
#include "telemetry/event_journal.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/slo.h"

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

// ------------------------------------------------------ Drift observatory

TEST(DriftObservatoryTest, CalibratedOperatorStaysUnflagged) {
  DriftObservatory drift;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(drift.Observe("LineCount", "Spark", 10.0, 10.2, "job-ok"));
  }
  const std::vector<DriftObservatory::PairSnapshot> pairs = drift.Snapshot();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].op, "LineCount");
  EXPECT_EQ(pairs[0].engine, "Spark");
  EXPECT_EQ(pairs[0].observations, 20u);
  EXPECT_LT(pairs[0].drift_score, 0.05);  // ~2% residual: near zero
  EXPECT_FALSE(pairs[0].flagged);
  EXPECT_TRUE(drift.RefinementCandidates().empty());
}

TEST(DriftObservatoryTest, MisModeledOperatorFlagsExactlyOnce) {
  DriftObservatory drift;
  // Predicted 1s, actual 3s: relative error 0.667 > flag threshold 0.5.
  // The pair may only flag once min_observations (5) are in.
  for (uint64_t i = 1; i <= 4; ++i) {
    EXPECT_FALSE(drift.Observe("Sort", "Hama", 1.0, 3.0,
                               "job-" + std::to_string(i)));
  }
  EXPECT_TRUE(drift.Observe("Sort", "Hama", 1.0, 3.0, "job-5"));
  // Already flagged: further bad observations do not re-flag.
  EXPECT_FALSE(drift.Observe("Sort", "Hama", 1.0, 3.0, "job-6"));

  const auto candidates = drift.RefinementCandidates();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].first, "Sort");
  EXPECT_EQ(candidates[0].second, "Hama");

  const std::vector<DriftObservatory::PairSnapshot> pairs = drift.Snapshot();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].flagged);
  EXPECT_GT(pairs[0].drift_score, 0.5);
  EXPECT_LE(pairs[0].exemplar_jobs.size(),
            drift.options().max_exemplars);
  EXPECT_FALSE(pairs[0].exemplar_jobs.empty());
}

TEST(DriftObservatoryTest, HysteresisClearsOnlyBelowClearThreshold) {
  DriftObservatory drift;
  for (int i = 0; i < 6; ++i) {
    drift.Observe("Sort", "Hama", 1.0, 3.0, "job-bad");
  }
  ASSERT_EQ(drift.RefinementCandidates().size(), 1u);
  // Perfect predictions decay the EWMA; the flag must hold until the score
  // crosses the *clear* threshold (0.25), not the flag threshold.
  bool reflagged = false;
  for (int i = 0; i < 30; ++i) {
    reflagged = reflagged || drift.Observe("Sort", "Hama", 1.0, 1.0, "job");
  }
  EXPECT_FALSE(reflagged);
  const std::vector<DriftObservatory::PairSnapshot> pairs = drift.Snapshot();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(pairs[0].flagged);
  EXPECT_LT(pairs[0].drift_score, drift.options().clear_threshold);
  EXPECT_TRUE(drift.RefinementCandidates().empty());
}

TEST(DriftObservatoryTest, ResidualHistogramAndJsonCarryTheEvidence) {
  MetricsRegistry registry;
  DriftObservatory drift(DriftObservatory::Options(), &registry);
  drift.Observe("Sort", "Hama", 1.0, 2.0, "job-1");  // rel error 0.5
  drift.Observe("Sort", "Hama", 1.0, 1.0, "job-2");  // rel error 0

  const std::vector<DriftObservatory::PairSnapshot> pairs = drift.Snapshot();
  ASSERT_EQ(pairs.size(), 1u);
  uint64_t bucketed = 0;
  for (uint64_t count : pairs[0].residual_counts) bucketed += count;
  EXPECT_EQ(bucketed, 2u);

  const std::string json = drift.ToJson();
  EXPECT_NE(json.find("\"pairs\""), std::string::npos);
  EXPECT_NE(json.find("\"Sort\""), std::string::npos);
  EXPECT_NE(json.find("\"refinementCandidates\""), std::string::npos);

  const std::string metrics = registry.RenderPrometheus();
  EXPECT_NE(metrics.find("ires_model_residual_relative_error"),
            std::string::npos);
  EXPECT_NE(metrics.find("ires_model_drift_score"), std::string::npos);
}

// ------------------------------------------------------------ SLO monitor

SloMonitor::Options TwoWindowOptions() {
  SloMonitor::Options options;
  options.windows_seconds = {60.0, 600.0};
  options.min_sample_interval_seconds = 1.0;
  return options;
}

TEST(SloMonitorTest, AvailabilitySloBurnsOnServerErrors) {
  MetricsRegistry registry;
  double now = 0.0;
  SloMonitor slo(&registry, TwoWindowOptions(), [&now] { return now; });
  SloSpec spec;
  spec.name = "api-availability";
  spec.workload = "all";
  spec.objective = 0.99;
  slo.AddSlo(spec);

  Counter* bad = registry.GetCounter(
      "ires_http_requests_total", "requests",
      {{"method", "GET"}, {"route", "/apiv1/jobs"}, {"code", "500"}});
  ASSERT_TRUE(slo.Burning().empty());  // baseline sample at t=0, no traffic

  now = 30.0;
  bad->Increment(100);
  const std::vector<SloMonitor::SloStatus> statuses = slo.Evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].burning);
  ASSERT_EQ(statuses[0].windows.size(), 2u);
  // 100% bad against a 1% budget: burn rate 100 in every window.
  EXPECT_GT(statuses[0].windows[0].burn_rate, 1.0);
  EXPECT_GT(statuses[0].windows[1].burn_rate, 1.0);
  EXPECT_EQ(slo.Burning(), std::vector<std::string>{"api-availability"});
  EXPECT_NE(registry.RenderPrometheus().find("ires_slo_burn_rate"),
            std::string::npos);
}

TEST(SloMonitorTest, HealthyTrafficDoesNotBurn) {
  MetricsRegistry registry;
  double now = 0.0;
  SloMonitor slo(&registry, TwoWindowOptions(), [&now] { return now; });
  SloSpec spec;
  spec.name = "api-availability";
  spec.workload = "all";
  spec.objective = 0.99;
  slo.AddSlo(spec);

  Counter* ok = registry.GetCounter(
      "ires_http_requests_total", "requests",
      {{"method", "GET"}, {"route", "/apiv1/jobs"}, {"code", "200"}});
  (void)slo.Evaluate();
  now = 30.0;
  ok->Increment(1000);
  const std::vector<SloMonitor::SloStatus> statuses = slo.Evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_FALSE(statuses[0].burning);
  EXPECT_DOUBLE_EQ(statuses[0].compliance, 1.0);
}

TEST(SloMonitorTest, LatencySloCountsHistogramBucketsBelowThreshold) {
  MetricsRegistry registry;
  double now = 0.0;
  SloMonitor slo(&registry, TwoWindowOptions(), [&now] { return now; });
  SloSpec spec;
  spec.name = "execute-latency";
  spec.workload = "dag";
  spec.method = "POST";
  spec.route = "/apiv1/workflows/{name}/execute";
  spec.latency_threshold_seconds = 1.0;
  spec.objective = 0.99;
  slo.AddSlo(spec);

  Histogram* latency = registry.GetHistogram(
      "ires_http_request_seconds", "latency",
      {{"method", "POST"}, {"route", "/apiv1/workflows/{name}/execute"}});
  (void)slo.Evaluate();
  now = 30.0;
  for (int i = 0; i < 10; ++i) latency->Observe(0.01);  // good
  for (int i = 0; i < 10; ++i) latency->Observe(2.0);   // bad: over 1s
  const std::vector<SloMonitor::SloStatus> statuses = slo.Evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].burning);
  EXPECT_EQ(statuses[0].lifetime_total, 20u);
  EXPECT_EQ(statuses[0].lifetime_good, 10u);
  // A different route's slow traffic must not count against this SLO.
  Histogram* other = registry.GetHistogram(
      "ires_http_request_seconds", "latency",
      {{"method", "POST"}, {"route", "/apiv1/sql"}});
  other->Observe(30.0);
  EXPECT_EQ(slo.Evaluate()[0].lifetime_total, 20u);
}

TEST(SloMonitorTest, MultiWindowAndSuppressesShortBursts) {
  MetricsRegistry registry;
  double now = 0.0;
  SloMonitor slo(&registry, TwoWindowOptions(), [&now] { return now; });
  SloSpec spec;
  spec.name = "api-availability";
  spec.workload = "all";
  spec.objective = 0.99;
  slo.AddSlo(spec);

  Counter* ok = registry.GetCounter(
      "ires_http_requests_total", "requests",
      {{"method", "GET"}, {"route", "/apiv1/jobs"}, {"code", "200"}});
  Counter* bad = registry.GetCounter(
      "ires_http_requests_total", "requests",
      {{"method", "GET"}, {"route", "/apiv1/jobs"}, {"code", "503"}});

  // A long healthy history...
  (void)slo.Evaluate();
  now = 5.0;
  ok->Increment(20000);
  (void)slo.Evaluate();
  // ...then a short error burst late in the long window: the 60s window
  // burns hot, but the 600s window has budget to spare, so the multi-window
  // AND keeps the SLO from flapping into the burning state.
  now = 550.0;
  bad->Increment(100);
  const std::vector<SloMonitor::SloStatus> statuses = slo.Evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  ASSERT_EQ(statuses[0].windows.size(), 2u);
  EXPECT_GT(statuses[0].windows[0].burn_rate, 1.0);  // 60s: all bad
  EXPECT_LE(statuses[0].windows[1].burn_rate, 1.0);  // 600s: within budget
  EXPECT_FALSE(statuses[0].burning);
}

// --------------------------------------- Flight-recorder acceptance (e2e)

// The decision sequence a chaos-injected doomed job must leave behind:
// admission, plan-cache miss, chosen plan, two start attempts each drawing
// an injected transient (one in-place retry between them), the breaker
// tripping on the exhausted step, one replanning round (which dies on the
// suspended engine), and the terminal failure.
const EventKind kDoomedJobSequence[] = {
    EventKind::kAdmissionAccept, EventKind::kPlanCacheMiss,
    EventKind::kPlanChosen,      EventKind::kStepStart,
    EventKind::kChaosInject,     EventKind::kStepRetry,
    EventKind::kStepStart,       EventKind::kChaosInject,
    EventKind::kBreakerTrip,     EventKind::kReplan,
    EventKind::kJobFailed,
};

IresServer::ExecutionOptions DoomedOptions() {
  IresServer::ExecutionOptions exec;
  exec.max_replans = 1;
  exec.retry.max_attempts = 2;
  exec.retry.base_backoff_seconds = 0.0;
  exec.chaos.seed = 7;
  exec.chaos.transient_probability = 1.0;
  return exec;
}

void ExpectKinds(const std::vector<JournalEvent>& events) {
  const size_t expected =
      sizeof(kDoomedJobSequence) / sizeof(kDoomedJobSequence[0]);
  ASSERT_EQ(events.size(), expected) << EventsToJson(events);
  for (size_t i = 0; i < expected; ++i) {
    EXPECT_EQ(events[i].kind, kDoomedJobSequence[i])
        << "event " << i << ": " << EventToJson(events[i]);
  }
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

/// Submits the LineCount workflow under DoomedOptions through `plane` and
/// drains it; returns the job id.
std::string SubmitDoomedJob(IresServer* server, ControlPlane* plane) {
  auto graph = server->ParseWorkflow(kGraph);
  EXPECT_TRUE(graph.ok()) << graph.status();
  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  request.exec = DoomedOptions();
  auto id = plane->Submit(graph.value(), request);
  EXPECT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(plane->WaitForIdle(30.0));
  return id.ok() ? id.value() : "";
}

ControlPlane::Options SingleWorkerPlane() {
  ControlPlane::Options options;
  options.replica_options.workers = 1;
  return options;
}

TEST(FlightRecorderE2ETest, FailedJobJournalReconstructsDecisionSequence) {
  IresServer server;
  ControlPlane plane(&server, SingleWorkerPlane());
  RestApi api(&server, &plane);
  RegisterLineCount(&api);
  const std::string id = SubmitDoomedJob(&server, &plane);
  ASSERT_FALSE(id.empty());

  auto record = plane.Get(id);
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record.value().state, JobState::kFailed) << record.value().error;
  EXPECT_EQ(record.value().slo_class, "dag");

  // 1. The journal itself, queried by job id.
  EventJournal::Filter filter;
  filter.job = id;
  const std::vector<JournalEvent> events = server.journal().Query(filter);
  ExpectKinds(events);

  // Spot-check the payloads that make the sequence a postmortem rather
  // than a list of names.
  EXPECT_EQ(events[0].code, "dag");                 // admission: SLO class
  EXPECT_GT(events[2].value, 0.0);                  // plan cost
  EXPECT_NE(events[2].detail.find("engines="), std::string::npos);
  EXPECT_EQ(events[3].engine, "Spark");             // first attempt
  EXPECT_DOUBLE_EQ(events[3].value, 1.0);
  EXPECT_EQ(events[4].code, "transient");           // injected fault
  EXPECT_DOUBLE_EQ(events[6].value, 2.0);           // second attempt
  EXPECT_EQ(events[8].engine, "Spark");             // breaker trip
  EXPECT_EQ(events[8].code, "SUSPENDED");
  EXPECT_EQ(events[9].code, "transient");           // replan cause
  EXPECT_FALSE(events[10].detail.empty());          // terminal error

  // 2. The failure snapshot attached to the job record.
  ExpectKinds(record.value().event_snapshot);

  // 3. The REST surface: debug/events with job and kind filters.
  ApiResponse by_job = api.Handle("GET", "/apiv1/debug/events?job=" + id);
  ASSERT_EQ(by_job.code, 200) << by_job.body;
  for (EventKind kind : kDoomedJobSequence) {
    EXPECT_NE(by_job.body.find(EventKindName(kind)), std::string::npos)
        << EventKindName(kind);
  }
  EXPECT_NE(by_job.body.find("\"headSeq\":"), std::string::npos);

  ApiResponse starts = api.Handle(
      "GET", "/apiv1/debug/events?job=" + id + "&kind=step_start");
  ASSERT_EQ(starts.code, 200);
  size_t count = 0;
  for (size_t pos = starts.body.find("step_start"); pos != std::string::npos;
       pos = starts.body.find("step_start", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);

  ApiResponse bad_kind = api.Handle("GET", "/apiv1/debug/events?kind=nope");
  EXPECT_EQ(bad_kind.code, 400);
  ApiResponse bad_limit = api.Handle("GET", "/apiv1/debug/events?limit=0");
  EXPECT_EQ(bad_limit.code, 400);
  // since and limit are decimal unsigned integers: values that are not
  // (NaN, infinities, out-of-range exponents) are a 400 rather than an
  // undefined float-to-integer conversion.
  for (const char* bad : {"since=nan", "since=inf", "since=1e300",
                          "limit=nan"}) {
    EXPECT_EQ(api.Handle("GET", std::string("/apiv1/debug/events?") + bad)
                  .code,
              400)
        << bad;
  }

  // 4. The job record JSON carries sloClass and the event snapshot.
  ApiResponse job_json = api.Handle("GET", "/apiv1/jobs/" + id);
  ASSERT_EQ(job_json.code, 200);
  EXPECT_NE(job_json.body.find("\"sloClass\":\"dag\""), std::string::npos);
  EXPECT_NE(job_json.body.find("\"eventSnapshot\":["), std::string::npos);
  EXPECT_NE(job_json.body.find("breaker_trip"), std::string::npos);
}

TEST(FlightRecorderE2ETest, ProcessScopedBreakerEventsCarryNoJobId) {
  IresServer server;
  ControlPlane plane(&server, SingleWorkerPlane());
  RestApi api(&server, &plane);
  RegisterLineCount(&api);
  ASSERT_FALSE(SubmitDoomedJob(&server, &plane).empty());

  // The registry-level breaker transition (ON -> SUSPENDED) is recorded as
  // a process-scoped breaker_state event, job-attribution-free.
  EventJournal::Filter filter;
  filter.has_kind = true;
  filter.kind = EventKind::kBreakerState;
  const std::vector<JournalEvent> transitions = server.journal().Query(filter);
  ASSERT_FALSE(transitions.empty());
  EXPECT_TRUE(transitions[0].job.empty());
  EXPECT_EQ(transitions[0].engine, "Spark");
  EXPECT_EQ(transitions[0].code, "SUSPENDED");
  EXPECT_NE(transitions[0].detail.find("ON"), std::string::npos);
}

// -------------------------------------------- Drift + SLO REST surfaces

TEST(ObservabilityRestTest, DriftEndpointReportsCalibratedAndMisModeled) {
  IresServer server;
  RestApi api(&server);
  RegisterLineCount(&api);

  // A healthy executed workflow feeds near-zero residuals for the pairs it
  // ran (planner estimates are the simulator's own model).
  ASSERT_EQ(api.Handle("POST", "/apiv1/workflows/lc/execute").code, 200);
  bool saw_calibrated = false;
  for (const auto& pair : server.drift().Snapshot()) {
    EXPECT_FALSE(pair.flagged) << pair.op << "/" << pair.engine;
    saw_calibrated = true;
  }
  EXPECT_TRUE(saw_calibrated);
  EXPECT_TRUE(server.drift().RefinementCandidates().empty());

  // A deliberately mis-modeled pair (prediction 4x off) gets flagged and
  // surfaces through the endpoint.
  for (int i = 0; i < 6; ++i) {
    server.drift().Observe("Sort", "Hama", 1.0, 4.0, "job-bad");
  }
  ApiResponse drift = api.Handle("GET", "/apiv1/models/drift");
  ASSERT_EQ(drift.code, 200);
  EXPECT_NE(drift.body.find("\"refinementCandidates\":[{\"op\":\"Sort\""),
            std::string::npos)
      << drift.body;
  EXPECT_NE(drift.body.find("\"flagged\":true"), std::string::npos);
}

TEST(ObservabilityRestTest, HealthzRendersSloStateAndStaysOkWhenQuiet) {
  IresServer server;
  RestApi api(&server);
  ApiResponse health = api.Handle("GET", "/apiv1/healthz");
  ASSERT_EQ(health.code, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"slo\":{"), std::string::npos);
  // The default objectives registered by the server are visible.
  EXPECT_NE(health.body.find("dag-execute-latency"), std::string::npos);
  EXPECT_NE(health.body.find("sql-latency"), std::string::npos);
  EXPECT_NE(health.body.find("api-availability"), std::string::npos);
}

TEST(ObservabilityRestTest, MetricsExposeDriftAndSloFamilies) {
  IresServer server;
  RestApi api(&server);
  RegisterLineCount(&api);
  ASSERT_EQ(api.Handle("POST", "/apiv1/workflows/lc/execute").code, 200);
  (void)api.Handle("GET", "/apiv1/healthz");  // evaluates SLOs -> gauges
  ApiResponse metrics = api.Handle("GET", "/apiv1/metrics");
  ASSERT_EQ(metrics.code, 200);
  EXPECT_NE(metrics.body.find("ires_model_residual_relative_error"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ires_slo_burn_rate"), std::string::npos);
  EXPECT_NE(metrics.body.find("ires_slo_compliance"), std::string::npos);
}

}  // namespace
}  // namespace ires
