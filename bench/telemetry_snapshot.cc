// Telemetry + observability bench. Part 1 (legacy): exercises the full
// serving path (REST -> ControlPlane -> JobService -> cached planning ->
// simulated execution -> model refinement) with a mixed async workload and
// dumps the whole metrics registry as JSON to BENCH_telemetry.json. Part 2:
// measures the flight-recorder's cost — raw journal append throughput
// (events/sec, ns/event, enabled vs disabled) and the end-to-end serving
// overhead of always-on recording — and writes BENCH_observability.json.
// The e2e overhead number is the acceptance gate: always-on journaling
// must stay within a few percent of the disabled baseline.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/ires_server.h"
#include "core/rest_api.h"
#include "service/control_plane.h"
#include "telemetry/event_journal.h"

namespace {

using namespace ires;

constexpr const char* kLineCountGraph =
    "asapServerLog,LineCount,0\n"
    "LineCount,d1,0\n"
    "d1,$$target\n";

constexpr const char* kChainGraph =
    "asapServerLog,LineCount,0\n"
    "LineCount,d1,0\n"
    "d1,Grep,0\n"
    "Grep,d2,0\n"
    "d2,$$target\n";

void Register(RestApi* api) {
  struct Call {
    const char* path;
    const char* body;
  };
  const Call calls[] = {
      {"/apiv1/datasets/asapServerLog",
       "Constraints.Engine.FS=HDFS\n"
       "Execution.path=hdfs:///log\n"
       "Optimization.size=5e8\n"
       "Optimization.documents=1000\n"},
      {"/apiv1/abstractOperators/LineCount",
       "Constraints.OpSpecification.Algorithm.name=LineCount\n"},
      {"/apiv1/abstractOperators/Grep",
       "Constraints.OpSpecification.Algorithm.name=Grep\n"},
      {"/apiv1/operators/LineCount_Spark",
       "Constraints.Engine=Spark\n"
       "Constraints.OpSpecification.Algorithm.name=LineCount\n"
       "Constraints.Input0.Engine.FS=HDFS\n"
       "Constraints.Output0.Engine.FS=HDFS\n"},
      {"/apiv1/operators/Grep_MapReduce",
       "Constraints.Engine=MapReduce\n"
       "Constraints.OpSpecification.Algorithm.name=Grep\n"
       "Constraints.Input0.Engine.FS=HDFS\n"
       "Constraints.Output0.Engine.FS=HDFS\n"},
  };
  for (const Call& call : calls) {
    const ApiResponse r = api->Handle("POST", call.path, call.body);
    if (r.code != 201) {
      std::fprintf(stderr, "register %s failed: %d %s\n", call.path, r.code,
                   r.body.c_str());
      std::exit(1);
    }
  }
  for (const auto& [name, graph] :
       {std::pair<const char*, const char*>{"lc", kLineCountGraph},
        std::pair<const char*, const char*>{"chain", kChainGraph}}) {
    const ApiResponse r = api->Handle(
        "POST", std::string("/apiv1/workflows/") + name, graph);
    if (r.code != 201) {
      std::fprintf(stderr, "workflow %s failed: %d %s\n", name, r.code,
                   r.body.c_str());
      std::exit(1);
    }
  }
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One full serving run on a fresh server: submit `rounds` mixed async
// workflows through REST and drain. Returns the wall seconds of the
// submit+drain phase. `snapshot_to` (optional) receives the server's
// metrics JSON after the run.
double RunServingWorkload(int rounds, bool journal_enabled,
                          std::string* snapshot_to) {
  IresServer server;
  server.journal().set_enabled(journal_enabled);
  ControlPlane::Options options;
  options.replica_options.workers = 4;
  options.replica_options.queue_capacity = 256;
  ControlPlane plane(&server, options);
  RestApi api(&server, &plane);
  Register(&api);

  const double start = NowSeconds();
  for (int i = 0; i < rounds; ++i) {
    const char* wf = (i % 3 == 0) ? "chain" : "lc";
    const ApiResponse r = api.Handle(
        "POST", std::string("/apiv1/workflows/") + wf + "/execute?mode=async");
    if (r.code != 202) {
      std::fprintf(stderr, "submit %s failed: %d %s\n", wf, r.code,
                   r.body.c_str());
      std::exit(1);
    }
  }
  if (!plane.WaitForIdle(120.0)) {
    std::fprintf(stderr, "jobs did not drain\n");
    std::exit(1);
  }
  const double seconds = NowSeconds() - start;

  if (snapshot_to != nullptr) {
    // A few synchronous reads so the HTTP route histograms cover GETs too.
    (void)api.Handle("GET", "/apiv1/jobs");
    (void)api.Handle("GET", "/apiv1/stats");
    (void)api.Handle("GET", "/apiv1/healthz");
    (void)api.Handle("GET", "/apiv1/metrics");
    (void)api.Handle("GET", "/apiv1/models/drift");
    (void)api.Handle("GET", "/apiv1/debug/events?limit=16");
    *snapshot_to = server.metrics().RenderJson();
  }
  return seconds;
}

// Raw journal throughput: `threads` writers each appending `per_thread`
// events. Returns ns per event.
double JournalAppendNs(bool enabled, int threads, int per_thread) {
  EventJournal journal;
  journal.set_enabled(enabled);
  const double start = NowSeconds();
  std::vector<std::thread> writers;
  writers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&journal, t, per_thread] {
      const std::string job = "bench-" + std::to_string(t);
      for (int i = 0; i < per_thread; ++i) {
        JournalEvent event;
        event.kind = EventKind::kStepStart;
        event.job = job;
        event.step = i;
        event.engine = "Spark";
        journal.Append(std::move(event));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  const double seconds = NowSeconds() - start;
  return seconds * 1e9 /
         (static_cast<double>(threads) * static_cast<double>(per_thread));
}

bool WriteFile(const char* path, const std::string& content) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  std::fputs(content.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  // ---- Part 1: the legacy metrics snapshot (journal on, as in prod).
  std::string metrics_json;
  (void)RunServingWorkload(/*rounds=*/24, /*journal_enabled=*/true,
                           &metrics_json);
  if (!WriteFile("BENCH_telemetry.json", metrics_json)) return 1;
  std::printf("telemetry snapshot: wrote %zu bytes to BENCH_telemetry.json\n",
              metrics_json.size() + 1);

  // ---- Part 2: flight-recorder cost.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200000;
  const double ns_enabled =
      JournalAppendNs(/*enabled=*/true, kThreads, kPerThread);
  const double ns_disabled =
      JournalAppendNs(/*enabled=*/false, kThreads, kPerThread);
  const double events_per_sec = 1e9 / ns_enabled * kThreads;

  // E2E overhead: best-of-N fresh-server runs per mode, interleaved so
  // machine noise hits both modes alike. Warm up once to page everything in.
  constexpr int kRounds = 48;
  constexpr int kReps = 3;
  (void)RunServingWorkload(kRounds, true, nullptr);
  double best_enabled = 1e100;
  double best_disabled = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    const double disabled = RunServingWorkload(kRounds, false, nullptr);
    const double enabled = RunServingWorkload(kRounds, true, nullptr);
    if (disabled < best_disabled) best_disabled = disabled;
    if (enabled < best_enabled) best_enabled = enabled;
  }
  double overhead_pct =
      best_disabled > 0.0
          ? (best_enabled - best_disabled) / best_disabled * 100.0
          : 0.0;
  if (overhead_pct < 0.0) overhead_pct = 0.0;  // noise floor

  char obs[768];
  std::snprintf(
      obs, sizeof(obs),
      "{\"journal\":{\"writerThreads\":%d,\"eventsPerWriter\":%d,"
      "\"nsPerEventEnabled\":%.1f,\"nsPerEventDisabled\":%.1f,"
      "\"eventsPerSec\":%.0f},"
      "\"serving\":{\"jobsPerRun\":%d,\"repetitions\":%d,"
      "\"bestDisabledSeconds\":%.4f,\"bestEnabledSeconds\":%.4f,"
      "\"overheadPct\":%.2f}}",
      kThreads, kPerThread, ns_enabled, ns_disabled, events_per_sec, kRounds,
      kReps, best_disabled, best_enabled, overhead_pct);
  if (!WriteFile("BENCH_observability.json", obs)) return 1;
  std::printf(
      "observability: %.0f events/sec (%.0f ns/event enabled, %.0f ns "
      "disabled), e2e journal overhead %.2f%%\n",
      events_per_sec, ns_enabled, ns_disabled, overhead_pct);
  return 0;
}
