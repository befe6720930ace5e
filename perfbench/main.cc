// Steady-state serving benchmark for the IReS server.
//
//   serving_perf --workload <asap_exec|pegasus_plan|sql_mix> --seed <n>
//                --seconds <s> --trace <0|1>
//
// One in-process deployment (IresServer + single-replica ControlPlane +
// RestApi) serves one named workload. Requests arrive open-loop on a seeded
// Poisson schedule at the workload's fixed rate, and each is timed from its
// due time to its terminal state. Timing starts only after the steady-state
// gate passes. The last stdout line is one JSON object:
//   --trace 0  end-to-end metrics (setup, latency, CPU cost, plan quality)
//   --trace 1  per-layer metrics from a traced replay of the same inputs
// The exit code is non-zero when any request fails or any check does not
// hold. See README.md in this directory.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/diagnostics.h"
#include "core/ires_server.h"
#include "core/rest_api.h"
#include "profiling/profiler.h"
#include "service/control_plane.h"
#include "service/sql_service.h"
#include "spans.h"
#include "workloadgen/pegasus.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ires::ControlPlane;
using ires::IresServer;
using ires::JobRecord;
using ires::OptimizationPolicy;
using ires::WorkflowGraph;

// ------------------------------------------------------------ configuration

/// The fixed deployment and offered load of one workload. Rates were set
/// once on a 4-vCPU host, at 10-40% of closed-loop capacity (lower rates
/// queue less, which keeps run-to-run spread down; pegasus_plan misses
/// also run NSGA-II on every scheduler worker), and are never recalibrated
/// per run.
struct WorkloadConfig {
  const char* name;
  double rate_rps;   // open-loop offered rate
  bool refined;      // IresServer::Config::use_refined_models
  int warmup_block;  // closed-loop warm-up requests per gate check
};

constexpr WorkloadConfig kWorkloads[] = {
    {"asap_exec", 4.8, false, 20},
    {"pegasus_plan", 8.0, false, 60},
    {"sql_mix", 2.5, true, 20},
};

constexpr int kSetupRepeats = 3;
constexpr int kMaxWarmupBlocks = 12;
/// The generator is behind when its p95 dispatch lateness exceeds this.
constexpr double kMaxLateP95Seconds = 0.25;
constexpr double kJobTimeoutSeconds = 90.0;
/// Skew allowed between the benchmark's timestamps and the job record's.
constexpr double kClockSkewMs = 1.0;

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double SteadyNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilWall(double when) {
  for (;;) {
    const double remaining = when - WallNow();
    if (remaining <= 0.0) return;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(remaining, 0.0005)));
  }
}

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// CPU time (user + system) the process has used, over all its threads.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The string value of `"key":"..."` in a flat JSON body ("" if absent).
std::string JsonString(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  return body.substr(start, body.find('"', start) - start);
}

/// The numeric value of `"key":<number>` in a flat JSON body (NaN if absent).
double JsonNumber(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "asap_exec") return std::make_unique<AsapExecWorkload>(seed);
  if (name == "pegasus_plan") {
    return std::make_unique<PegasusPlanWorkload>(seed);
  }
  return std::make_unique<SqlMixWorkload>(seed);
}

// --------------------------------------------------------------- deployment

/// The deployment under test, identical for every workload except for
/// use_refined_models: scheduler workers = job dispatch width = nproc,
/// NSGA-II provisioning on, one control-plane replica behind RestApi.
struct Deployment {
  std::unique_ptr<IresServer> server;
  std::unique_ptr<ControlPlane> plane;
  std::unique_ptr<ires::RestApi> api;
  /// The traced path's SQL front-end: the same class RestApi serves
  /// /apiv1/sql with, called directly so Prepare can be timed.
  std::unique_ptr<ires::SqlService> sql;
  /// The traced path's copy of the stored workflows, parsed from the same
  /// text the REST store received.
  std::map<std::string, WorkflowGraph> graphs;

  ~Deployment() {
    api.reset();
    sql.reset();
    plane.reset();
    server.reset();
  }
};

/// Which front door a request goes through: the REST router (the
/// measured path), or the public functions RestApi calls, one at a time,
/// so each can be wrapped in a span (the traced path).
enum class Path { kRest, kDirect };

IresServer::Config ServerConfig(const WorkloadConfig& config, int workers) {
  IresServer::Config c;
  c.scheduler_workers = workers;
  c.provision_resources = true;
  c.use_refined_models = config.refined;
  return c;
}

bool Deploy(const WorkloadConfig& config, const Inputs& inputs, int workers,
            Path path, Deployment* d, std::string* error) {
  d->server = std::make_unique<IresServer>(ServerConfig(config, workers));
  if (inputs.synthetic_engines > 0) {
    ires::PegasusGenerator::RegisterSyntheticEngines(
        &d->server->engines(), inputs.synthetic_engines);
  }
  const ires::Status imported = d->server->ImportLibrary(inputs.library);
  if (!imported.ok()) {
    *error = "library import: " + imported.ToString();
    return false;
  }
  ControlPlane::Options options;
  options.replicas = 1;
  options.replica_options.workers = workers;
  options.replica_options.queue_capacity = 4096;
  d->plane = std::make_unique<ControlPlane>(d->server.get(), options);
  d->api = std::make_unique<ires::RestApi>(d->server.get(), d->plane.get());
  if (path == Path::kDirect) {
    d->sql = std::make_unique<ires::SqlService>(d->server.get());
  }
  for (const StoredWorkflow& w : inputs.workflows) {
    const ires::ApiResponse stored =
        d->api->Handle("POST", "/apiv1/workflows/" + w.name, w.graph_text);
    if (stored.code != 201) {
      *error = "store " + w.name + ": " + stored.body;
      return false;
    }
    auto graph = d->server->ParseWorkflow(w.graph_text);
    if (!graph.ok()) {
      *error = "parse " + w.name + ": " + graph.status().ToString();
      return false;
    }
    d->graphs.emplace(w.name, std::move(graph).value());
  }
  return true;
}

// ------------------------------------------------------------ one request

struct Outcome {
  Request request;
  double due = 0.0;         // wall seconds
  double dispatched = 0.0;  // handed to a handler (open loop)
  double start = 0.0;       // a handler started issuing it
  double returned = 0.0;    // the submitting call returned
  double finished = 0.0;    // terminal: job finished_at, or `returned`
  std::string job_id;
  /// Failed, rejected, timed-out or wrong-output; empty when good.
  std::string error;
  bool rejected = false;
  bool shape_hit = false;
  bool plan_hit = false;
  double est_seconds = 0.0;
  double est_cost = 0.0;
  double actual_seconds = 0.0;  // simulated execution time of the job
  double queue_s = 0.0;
  double submitted_at = 0.0;
  int steps = 0;
  int retries = 0;
  /// Traced path: this request's spans, local ids (0 = the request root).
  std::vector<Span> spans;
  /// The job's executed plan.
  ires::ExecutionPlan plan;
};

int LocalSpan(Outcome* o, int parent, const std::string& name, bool wait,
              double start, double end) {
  Span s;
  s.id = static_cast<int>(o->spans.size());
  s.parent = parent;
  s.name = name;
  s.wait = wait;
  s.start = start;
  s.end = end;
  o->spans.push_back(std::move(s));
  return o->spans.back().id;
}

/// What recording costs a traced request: `spans` spans, each stamped with
/// WallNow(), timed over many repetitions (ms per request).
double BookkeepingMsPerRequest(size_t spans) {
  constexpr int kRepetitions = 1000;
  const double t0 = SteadyNow();
  for (int r = 0; r < kRepetitions; ++r) {
    Outcome o;
    for (size_t i = 0; i < spans; ++i) {
      LocalSpan(&o, 0, "core.submit", false, WallNow(), WallNow());
    }
  }
  return (SteadyNow() - t0) / kRepetitions * 1e3;
}

void IssueRest(Deployment* d, Outcome* o) {
  const Request& r = o->request;
  ires::ApiResponse resp;
  int want = 202;
  switch (r.kind) {
    case RequestKind::kExecute:
      resp = d->api->Handle(
          "POST", "/apiv1/workflows/" + r.target + "/execute?mode=async");
      break;
    case RequestKind::kMaterialize:
      want = 200;
      resp = d->api->Handle("POST",
                            "/apiv1/workflows/" + r.target + "/materialize");
      break;
    case RequestKind::kSql:
      resp = d->api->Handle("POST", "/apiv1/sql?mode=async", r.target);
      break;
  }
  o->returned = WallNow();
  if (resp.code != want) {
    o->rejected = resp.code == 429 || resp.code == 503;
    o->error = "HTTP " + std::to_string(resp.code) + ": " + resp.body;
    return;
  }
  if (r.kind == RequestKind::kMaterialize) {
    o->est_seconds = JsonNumber(resp.body, "estimatedSeconds");
    o->est_cost = JsonNumber(resp.body, "estimatedCost");
    if (!(JsonNumber(resp.body, "steps") > 0)) o->error = "empty plan";
    o->finished = o->returned;
    return;
  }
  o->job_id = JsonString(resp.body, "jobId");
  if (o->job_id.empty()) o->error = "no jobId";
  if (r.kind == RequestKind::kSql) {
    o->shape_hit = resp.body.find("\"shapeCacheHit\":true") !=
                   std::string::npos;
    if (JsonString(resp.body, "shapeId").empty() ||
        JsonString(resp.body, "resultEngine").empty()) {
      o->error = "sql response without shapeId/resultEngine";
    }
  }
}

/// Maps a job TraceContext span name onto the benchmark's layer names.
std::string LayerSpanName(const std::string& job_span) {
  if (job_span == "job.queue_wait") return "service.queue_wait";
  if (job_span == "job.plan") return "planner.plan";
  if (job_span == "plan.cache_lookup") return "planner.cache_lookup";
  if (job_span == "plan.dp") return "planner.dp";
  if (job_span == "job.execute") return "executor.exec";
  if (job_span == "model.refine") return "modeling.refine";
  return "service." + job_span.substr(job_span.find('.') + 1);
}

/// Copies a TraceContext's wall-clock spans (epoch at wall time `epoch`)
/// into the outcome; planner.cache_lookup / planner.dp hang under the
/// enclosing planner.plan span, every other span under `parent`.
void CopyJobSpans(const std::vector<ires::TraceSpan>& job_spans,
                  double epoch, int parent, Outcome* o) {
  int plan_parent = parent;
  std::vector<const ires::TraceSpan*> ordered;
  for (const ires::TraceSpan& s : job_spans) {
    if (s.timeline == ires::TraceContext::kWallTimeline && s.finished()) {
      ordered.push_back(&s);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const ires::TraceSpan* a, const ires::TraceSpan* b) {
              return a->start_us < b->start_us;
            });
  for (const ires::TraceSpan* s : ordered) {
    const std::string name = LayerSpanName(s->name);
    const double start = epoch + s->start_us / 1e6;
    const double end = start + s->duration_us / 1e6;
    const bool nested =
        name == "planner.cache_lookup" || name == "planner.dp";
    const int id = LocalSpan(o, nested ? plan_parent : parent, name,
                             name == "service.queue_wait", start, end);
    if (name == "planner.plan") plan_parent = id;
  }
}

void IssueDirect(Deployment* d, Outcome* o, bool record) {
  const Request& r = o->request;
  const int submit = record ? LocalSpan(o, 0, "core.submit", false, 0, 0) : -1;
  auto span = [&](const char* name, double start) {
    if (record) LocalSpan(o, submit, name, false, start, WallNow());
  };
  const WorkflowGraph* graph = nullptr;
  ires::SqlService::PreparedQuery prepared;
  std::string workflow_name = r.target;
  if (r.kind == RequestKind::kSql) {
    const double t = WallNow();
    std::vector<ires::Diagnostic> diagnostics;
    auto result = d->sql->Prepare(r.target, &diagnostics);
    span("sql.prepare", t);
    if (!result.ok()) {
      o->error = "prepare: " + result.status().ToString();
    } else {
      prepared = std::move(result).value();
      graph = &prepared.graph;
      workflow_name = prepared.shape_id;
      o->shape_hit = prepared.shape_cache_hit;
      if (prepared.shape_id.empty() || prepared.result_engine.empty()) {
        o->error = "sql response without shapeId/resultEngine";
      }
    }
  } else {
    graph = &d->graphs.at(r.target);
  }
  if (graph != nullptr) {
    const double t = WallNow();
    const std::vector<ires::Diagnostic> findings =
        d->server->ValidateWorkflow(*graph);
    span("analysis.validate", t);
    if (ires::HasErrors(findings)) {
      o->error = "validation failed";
      graph = nullptr;
    }
  }
  if (graph != nullptr && r.kind == RequestKind::kMaterialize) {
    ires::TraceContext trace("materialize");
    const double epoch = WallNow();
    auto planned = d->server->PlanWorkflowCached(
        *graph, OptimizationPolicy::MinimizeTime(), record ? &trace : nullptr);
    if (record) {
      const int plan = LocalSpan(o, submit, "planner.plan", false, epoch,
                                 WallNow());
      CopyJobSpans(trace.Snapshot(), epoch, plan, o);
    }
    if (!planned.ok()) {
      o->error = "plan: " + planned.status().ToString();
    } else {
      o->est_seconds = planned.value().plan.estimated_seconds;
      o->est_cost = planned.value().plan.estimated_cost;
      o->plan_hit = planned.value().cache_hit;
      if (planned.value().plan.steps.empty()) o->error = "empty plan";
    }
  } else if (graph != nullptr) {
    ControlPlane::SubmitRequest submit_request;
    submit_request.workflow_name = workflow_name;
    if (r.kind == RequestKind::kSql) submit_request.slo_class = "sql";
    const double t = WallNow();
    auto job = d->plane->Submit(*graph, submit_request);
    span("service.submit", t);
    if (!job.ok()) {
      o->rejected =
          job.status().code() == ires::StatusCode::kResourceExhausted ||
          job.status().code() == ires::StatusCode::kUnavailable;
      o->error = "submit: " + job.status().ToString();
    } else {
      o->job_id = job.value();
    }
  }
  o->returned = WallNow();
  if (record) {
    o->spans[submit].start = o->start;
    o->spans[submit].end = o->returned;
  }
  if (r.kind == RequestKind::kMaterialize) o->finished = o->returned;
}

void Issue(Deployment* d, Path path, bool record, Outcome* o) {
  o->start = WallNow();
  if (record) LocalSpan(o, -1, "request", false, o->due, o->due);
  if (path == Path::kRest) {
    IssueRest(d, o);
  } else {
    IssueDirect(d, o, record);
  }
}

/// Fills an async outcome from its terminal job record (after the plane is
/// idle) and runs the per-job output checks.
void Complete(Deployment* d, bool record, Outcome* o) {
  if (o->job_id.empty()) return;
  auto fetched = d->plane->Get(o->job_id);
  if (!fetched.ok()) {
    o->error = "job lost: " + fetched.status().ToString();
    return;
  }
  const JobRecord& rec = fetched.value();
  if (!ires::IsTerminal(rec.state)) {
    o->error = "timed out";
    return;
  }
  if (rec.state != ires::JobState::kSucceeded) {
    o->error = std::string("job ") + ires::JobStateName(rec.state) + ": " +
               rec.error;
  } else if (rec.plan_steps <= 0 || rec.plan_summary.empty()) {
    o->error = "empty plan";
  }
  o->finished = rec.finished_at;
  o->submitted_at = rec.submitted_at;
  o->est_seconds = rec.estimated_seconds;
  o->est_cost = rec.estimated_cost;
  o->actual_seconds = rec.outcome.total_execution_seconds;
  o->plan_hit = rec.plan_cache_hit;
  o->queue_s = rec.queue_seconds;
  o->retries = rec.outcome.step_retries;
  o->steps = 0;
  for (const ires::StepResult& step : rec.outcome.final_report.steps) {
    if (step.step_id >= 0) ++o->steps;
  }
  o->plan = rec.outcome.final_plan;
  if (record && rec.trace) {
    CopyJobSpans(rec.trace->Snapshot(), rec.submitted_at, 0, o);
  }
}

/// Closed loop: `clients` threads each issue their next request only after
/// the previous one is terminal. Returns outcomes in request order.
std::vector<Outcome> RunClosedLoop(Deployment* d, std::vector<Request> reqs,
                                   Path path, int clients) {
  std::vector<Outcome> outs(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) outs[i].request = std::move(reqs[i]);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < outs.size();
           i = next.fetch_add(1)) {
        Outcome* o = &outs[i];
        o->due = o->dispatched = WallNow();
        Issue(d, path, false, o);
        if (o->job_id.empty()) continue;
        const double deadline = SteadyNow() + kJobTimeoutSeconds;
        while (SteadyNow() < deadline) {
          auto rec = d->plane->Get(o->job_id);
          if (!rec.ok() || ires::IsTerminal(rec.value().state)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (Outcome& o : outs) Complete(d, false, &o);
  return outs;
}

/// Seeded arrival offsets (seconds) over [0, seconds): a Poisson process
/// at `rate` conditioned on its count, which is rate x seconds rounded to
/// whole request blocks, so every seed offers the same requests' worth of
/// work with memoryless spacing.
std::vector<double> PoissonSchedule(double rate, double seconds, int block,
                                    uint64_t seed) {
  ires::Rng rng(seed ^ 0xa77e5ull);
  const long blocks = std::max(1L, std::lround(rate * seconds / block));
  std::vector<double> due(static_cast<size_t>(blocks * block));
  for (double& t : due) t = rng.Uniform(0.0, seconds);
  std::sort(due.begin(), due.end());
  return due;
}

/// Open loop: this thread dispatches each request at its due time into a
/// queue served by `clients - 1` handler threads (the deployment's request
/// handlers), so dispatch never waits on the server; async jobs are then
/// awaited. Latency runs from a request's due time to its terminal state,
/// so time spent waiting for a handler counts.
std::vector<Outcome> RunOpenLoop(Deployment* d, std::vector<Request> reqs,
                                 const std::vector<double>& offsets,
                                 Path path, bool record, int clients) {
  std::vector<Outcome> outs(reqs.size());
  const double origin = WallNow() + 0.05;
  for (size_t i = 0; i < reqs.size(); ++i) {
    outs[i].request = std::move(reqs[i]);
    outs[i].due = origin + offsets[i];
  }
  std::mutex mu;
  std::condition_variable ready;
  std::deque<size_t> queue;
  bool closed = false;
  std::vector<std::thread> handlers;
  for (int c = 0; c < std::max(1, clients - 1); ++c) {
    handlers.emplace_back([&] {
      for (;;) {
        size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          ready.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          i = queue.front();
          queue.pop_front();
        }
        Issue(d, path, record, &outs[i]);
      }
    });
  }
  for (size_t i = 0; i < outs.size(); ++i) {
    SleepUntilWall(outs[i].due);
    outs[i].dispatched = WallNow();
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i);
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  ready.notify_all();
  for (std::thread& t : handlers) t.join();
  d->plane->WaitForIdle(kJobTimeoutSeconds);
  for (Outcome& o : outs) {
    Complete(d, record, &o);
    if (record) {
      o.spans[0].end = std::max(o.finished, o.returned);
      LocalSpan(&o, 0, "gen.late", true, o.due, o.dispatched);
      LocalSpan(&o, 0, "core.handler_wait", true, o.dispatched, o.start);
    }
  }
  return outs;
}

// ---------------------------------------------------------- steady state

struct Gate {
  bool ok = false;
  std::string reason;
  int warmup_requests = 0;
  /// Minimum estimator-window occupancy over the hot pairs, as a share of
  /// the window (1 = full); 0 when the workload executes nothing.
  double window_fill = 0.0;
  std::set<std::pair<std::string, std::string>> hot_pairs;
};

const size_t kWindow = ires::OnlineEstimator::Options{}.window;

/// Minimum sample count over the three estimators of every hot pair. Read
/// while the server is idle (the estimator accessor takes no pair lock).
size_t MinWindow(Deployment* d, const Gate& gate) {
  size_t least = kWindow;
  for (const auto& [algorithm, engine] : gate.hot_pairs) {
    least = std::min(least,
                     d->server->estimator(algorithm, engine)->sample_count());
    const ires::ModelLibrary::OperatorModels* models =
        d->server->models().Find(algorithm, engine);
    ires::MutexLock lock(models->mu);
    least = std::min({least, models->output_bytes.sample_count(),
                      models->output_records.sample_count()});
  }
  return least;
}

/// One operator-step observation, as IresServer::RefineFromReport feeds
/// it to ModelLibrary::ObserveRun.
struct Observation {
  ires::Vector features;
  double seconds = 0.0;
  double bytes = 0.0;
  double records = 0.0;
};

/// Fills the estimator windows of every pair in `plans` that is not full
/// yet. The observations come from simulated executions of the workload's
/// own plans: the same Enforcer simulation a job runs, turned into the
/// same features and targets a job's refinement records. They are loaded
/// through OnlineEstimator::ImportSamples (the bulk path LoadModels takes),
/// one refit per estimator, so the windows hold what a long-running
/// server's hold without ~256 jobs and ~50 refits per pair.
///
/// An import leaves every pair one refit interval away from its next refit,
/// so all pairs would then refit in the same job. A long-running server's
/// pairs are out of step, so pair i is fed i mod 5 further observations
/// (OnlineEstimator::Observe, no refit), which spreads the refits evenly.
void FillWindows(Deployment* d, const std::vector<ires::ExecutionPlan>& plans,
                 int workers, uint64_t seed) {
  IresServer& server = *d->server;
  std::map<std::pair<std::string, std::string>, std::vector<Observation>> obs;
  for (const ires::ExecutionPlan& plan : plans) {
    for (const ires::PlanStep& step : plan.steps) {
      if (step.kind == ires::PlanStep::Kind::kOperator &&
          server.estimator(step.algorithm, step.engine)->sample_count() <
              kWindow) {
        obs[{step.algorithm, step.engine}];
      }
    }
  }
  const size_t interval = ires::OnlineEstimator::Options{}.refit_interval;
  const size_t wanted = kWindow + interval - 1;
  auto full = [&] {
    for (const auto& [pair, seen] : obs) {
      if (seen.size() < wanted) return false;
    }
    return true;
  };
  const IresServer::Config& c = server.config();
  ires::Rng rng(seed ^ 0xf111);
  for (size_t round = 0; round < 4 * wanted && !full(); ++round) {
    for (const ires::ExecutionPlan& plan : plans) {
      ires::ClusterSimulator cluster(c.cluster_nodes, c.cores_per_node,
                                     c.memory_gb_per_node);
      ires::Enforcer enforcer(&server.engines(), &cluster, rng.Next());
      const ires::ExecutionReport report = enforcer.Execute(plan);
      for (const ires::PlanStep& step : plan.steps) {
        auto it = obs.find({step.algorithm, step.engine});
        if (it == obs.end() || it->second.size() >= wanted ||
            step.kind != ires::PlanStep::Kind::kOperator) {
          continue;
        }
        const ires::StepResult& result = report.steps[step.id];
        if (!result.status.ok()) continue;
        ires::OperatorRunRequest request;
        request.algorithm = step.algorithm;
        request.input_bytes = step.input_bytes;
        request.input_records = step.input_records;
        request.resources = step.resources;
        request.params = step.params;
        Observation o;
        o.features = ires::Profiler::FeatureVector(request);
        o.seconds = result.finish_seconds - result.start_seconds;
        for (const ires::DatasetInstance& out : step.outputs) {
          o.bytes += out.bytes;
          o.records += out.records;
        }
        it->second.push_back(std::move(o));
      }
    }
  }

  std::vector<const decltype(obs)::value_type*> pairs;
  for (const auto& entry : obs) pairs.push_back(&entry);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < pairs.size();
           i = next.fetch_add(1)) {
        const auto& [pair, seen] = *pairs[i];
        const size_t loaded = std::min(kWindow, seen.size());
        std::vector<ires::OnlineEstimator::Sample> seconds, bytes, records;
        for (size_t k = 0; k < loaded; ++k) {
          seconds.push_back({seen[k].features, seen[k].seconds});
          bytes.push_back({seen[k].features, seen[k].bytes});
          records.push_back({seen[k].features, seen[k].records});
        }
        ires::ModelLibrary::OperatorModels* models =
            server.models().Get(pair.first, pair.second);
        ires::MutexLock lock(models->mu);
        (void)models->exec_time.ImportSamples(seconds);
        (void)models->output_bytes.ImportSamples(bytes);
        (void)models->output_records.ImportSamples(records);
        const size_t staggered = std::min(seen.size(), loaded + i % interval);
        for (size_t k = loaded; k < staggered; ++k) {
          models->exec_time.Observe(seen[k].features, seen[k].seconds);
          models->output_bytes.Observe(seen[k].features, seen[k].bytes);
          models->output_records.Observe(seen[k].features, seen[k].records);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Warms the deployment up until it is in steady state: first the
/// workload's priming requests, then closed-loop blocks of its request
/// stream, checking after each: every (operator, engine) pair the workload
/// executes holds a full
/// estimator window, repeated requests no longer miss the plan cache
/// (asap_exec) or the shape cache (sql_mix), and the plan cache is full
/// (pegasus_plan, whose DAG set exceeds it). A block run after the windows
/// are full must pass, so timing starts in the refit regime of a full
/// window.
Gate WarmUp(Deployment* d, Workload* workload, const WorkloadConfig& config,
            Path path, int workers, uint64_t seed) {
  Gate gate;
  std::map<std::string, ires::ExecutionPlan> plans;  // latest plan per key
  const bool executes = std::string(config.name) != "pegasus_plan";
  std::vector<Request> reqs = workload->Priming();
  for (int block = 0; block <= kMaxWarmupBlocks; ++block) {
    const bool priming = block == 0;
    const int clients = priming && workload->SerialPriming() ? 1 : workers;
    const std::vector<Outcome> outs = RunClosedLoop(d, reqs, path, clients);
    gate.warmup_requests += static_cast<int>(outs.size());
    bool caches_warm = true;
    for (const Outcome& o : outs) {
      if (!o.error.empty()) {
        gate.reason = "warm-up request failed: " + o.error;
        return gate;
      }
      for (const ires::PlanStep& step : o.plan.steps) {
        if (step.kind == ires::PlanStep::Kind::kOperator) {
          gate.hot_pairs.insert({step.algorithm, step.engine});
        }
      }
      if (!o.plan.steps.empty()) plans[o.request.key] = o.plan;
      if (o.request.kind == RequestKind::kExecute && !o.plan_hit) {
        caches_warm = false;
      }
      if (o.request.kind == RequestKind::kSql && !o.request.novel &&
          !o.shape_hit) {
        caches_warm = false;
      }
    }
    if (!executes) {
      caches_warm = d->server->plan_cache().stats().entries >=
                    d->server->config().plan_cache_capacity;
    } else {
      const size_t fill = MinWindow(d, gate);
      if (fill < kWindow) {
        std::vector<ires::ExecutionPlan> distinct;
        for (const auto& [key, plan] : plans) distinct.push_back(plan);
        FillWindows(d, distinct, workers, seed);
        caches_warm = false;  // no block has run at full windows yet
      }
      gate.window_fill = static_cast<double>(MinWindow(d, gate)) / kWindow;
    }
    // Executing workloads need one whole block run at full windows.
    if (caches_warm && (!priming || !executes)) {
      gate.ok = true;
      return gate;
    }
    reqs.clear();
    for (int i = 0; i < config.warmup_block; ++i) {
      reqs.push_back(workload->Next());
    }
  }
  gate.reason = "steady state not reached after " +
                std::to_string(gate.warmup_requests) + " warm-up requests";
  return gate;
}

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
  /// Counts a window's outcomes; prints the first few errors.
  void Count(const std::vector<Outcome>& outs) {
    int shown = 0;
    for (const Outcome& o : outs) {
      ++attempted;
      if (o.error.empty()) continue;
      ++failed;
      if (shown++ < 3) notes.push_back("error: " + o.error.substr(0, 200));
    }
  }
};

struct WindowStats {
  double mean_ms = 0.0;
  /// Mean of the slowest tenth of the latencies.
  double tail_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double late_p95_ms = 0.0;
  int samples = 0;
};

WindowStats Summarize(const std::vector<Outcome>& outs) {
  std::vector<double> latency, late;
  for (const Outcome& o : outs) {
    late.push_back((o.dispatched - o.due) * 1e3);
    if (o.error.empty()) latency.push_back((o.finished - o.due) * 1e3);
  }
  WindowStats s;
  s.mean_ms = Mean(latency);
  std::sort(latency.begin(), latency.end());
  s.tail_ms = Mean(std::vector<double>(
      latency.begin() + static_cast<long>(latency.size() * 9 / 10),
      latency.end()));
  s.p50_ms = Percentile(latency, 0.50);
  s.p90_ms = Percentile(latency, 0.90);
  s.p95_ms = Percentile(latency, 0.95);
  s.late_p95_ms = Percentile(late, 0.95);
  s.samples = static_cast<int>(latency.size());
  return s;
}

/// Mean estimated seconds of the chosen plans over the workload's fixed
/// plan-quality keys, each key weighted once (its mean over the window).
double PlanEstimate(const std::vector<Outcome>& outs,
                    const std::set<std::string>& keys) {
  std::map<std::string, std::pair<double, int>> by_key;
  for (const Outcome& o : outs) {
    if (!o.error.empty() || keys.count(o.request.key) == 0) continue;
    auto& [sum, n] = by_key[o.request.key];
    sum += o.est_seconds;
    ++n;
  }
  std::vector<double> means;
  for (const auto& [key, acc] : by_key) means.push_back(acc.first / acc.second);
  return Mean(means);
}

/// Relative error |estimated - simulated actual| / actual of one run.
double RelativeError(double estimated, double actual) {
  return std::fabs(estimated - actual) / actual;
}

/// Mean relative prediction error over the executed jobs. The errors
/// cluster by workflow and query, so a median would jump between clusters
/// from run to run.
double PredictionError(const std::vector<Outcome>& outs) {
  std::vector<double> errors;
  for (const Outcome& o : outs) {
    if (o.error.empty() && o.actual_seconds > 0.0) {
      errors.push_back(RelativeError(o.est_seconds, o.actual_seconds));
    }
  }
  return Mean(errors);
}

/// pegasus_plan output check: each served plan in `outs` must cost exactly
/// what an uncached replan on a fresh server with the same library and
/// engines costs. The fresh server also executes those plans, which gives
/// the workload's prediction-error sample. Returns the prediction errors.
std::vector<double> VerifyPlans(const WorkloadConfig& config,
                                const Inputs& inputs, int workers,
                                const std::vector<Outcome>& outs,
                                Report* report) {
  IresServer::Config c = ServerConfig(config, workers);
  c.plan_cache_capacity = 0;
  IresServer fresh(c);
  ires::PegasusGenerator::RegisterSyntheticEngines(&fresh.engines(),
                                                    inputs.synthetic_engines);
  std::vector<double> errors;
  if (!fresh.ImportLibrary(inputs.library).ok()) {
    report->Fail("verification server: library import failed");
    return errors;
  }
  std::map<std::string, std::string> texts;
  for (const StoredWorkflow& w : inputs.workflows) texts[w.name] = w.graph_text;
  std::vector<const Outcome*> sample;
  for (const Outcome& o : outs) {
    if (o.error.empty()) sample.push_back(&o);
  }
  std::vector<IresServer::WorkflowRunResult> runs(sample.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < sample.size();
           i = next.fetch_add(1)) {
        auto graph = fresh.ParseWorkflow(texts.at(sample[i]->request.target));
        if (graph.ok()) runs[i] = fresh.RunWorkflow(graph.value());
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (size_t i = 0; i < sample.size(); ++i) {
    const Outcome& o = *sample[i];
    const IresServer::WorkflowRunResult& run = runs[i];
    char served[64], replanned[64];
    std::snprintf(served, sizeof(served), "%.1f/%.3f", o.est_cost,
                  o.est_seconds);
    std::snprintf(replanned, sizeof(replanned), "%.1f/%.3f",
                  run.plan.estimated_cost, run.plan.estimated_seconds);
    ++report->attempted;
    if (std::strcmp(served, replanned) != 0) {
      ++report->failed;
      report->Fail("plan of " + o.request.target + " costs " + served +
                   " but an uncached replan costs " + replanned);
    }
    if (run.recovery.status.ok() && run.recovery.total_execution_seconds > 0) {
      errors.push_back(RelativeError(run.plan.estimated_seconds,
                                     run.recovery.total_execution_seconds));
    }
  }
  return errors;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::vector<Request> Take(Workload* workload, size_t n) {
  std::vector<Request> reqs;
  for (size_t i = 0; i < n; ++i) reqs.push_back(workload->Next());
  return reqs;
}

/// Builds and warms one deployment, timing it (the setup_s sample).
bool SetUp(const Workload& inputs, const WorkloadConfig& config, int workers,
           Path path, uint64_t seed, std::unique_ptr<Workload>* workload,
           std::unique_ptr<Deployment>* d, Gate* gate, double* seconds,
           Report* report) {
  *workload = inputs.Clone();
  *d = std::make_unique<Deployment>();
  const double t0 = SteadyNow();
  std::string error;
  if (!Deploy(config, (*workload)->inputs(), workers, path, d->get(),
              &error)) {
    report->Fail("deploy: " + error);
    return false;
  }
  const double t1 = SteadyNow();
  *gate = WarmUp(d->get(), workload->get(), config, path, workers, seed);
  *seconds = SteadyNow() - t0;
  std::printf("setup %.3f s: deploy %.3f s, warm-up %.3f s (%d requests)\n",
              *seconds, t1 - t0, SteadyNow() - t1, gate->warmup_requests);
  if (!gate->ok) {
    report->Fail("steady-state gate: " + gate->reason);
    return false;
  }
  return true;
}

void RunUntraced(const Args& args, const WorkloadConfig& config, int workers,
                 Report* report) {
  std::vector<double> setups;
  const std::unique_ptr<Workload> inputs =
      MakeWorkload(args.workload, args.seed);
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Deployment> d;
  Gate gate;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.reset();
    double seconds = 0.0;
    if (!SetUp(*inputs, config, workers, Path::kRest, args.seed, &workload,
               &d, &gate, &seconds, report)) {
      return;
    }
    setups.push_back(seconds);
  }
  std::printf("setup: %.3f %.3f %.3f s; warm-up %d requests, window fill "
              "%.3f, %zu hot pairs\n",
              setups[0], setups[1], setups[2], gate.warmup_requests,
              gate.window_fill, gate.hot_pairs.size());

  const std::vector<double> offsets =
      PoissonSchedule(config.rate_rps, args.seconds,
                      workload->block_size(), args.seed);
  const double cpu0 = CpuSeconds();
  const std::vector<Outcome> window = RunOpenLoop(
      d.get(), Take(workload.get(), offsets.size()), offsets, Path::kRest,
      false, workers);
  // CPU cost per request: everything the process spent serving the window
  // (the generator's share is a few percent). Unlike closed-loop capacity,
  // it does not fall when the host lends the run fewer CPUs.
  const double cpu_ms_per_req =
      (CpuSeconds() - cpu0) * 1e3 / static_cast<double>(window.size());
  report->Count(window);
  const WindowStats stats = Summarize(window);
  if (stats.late_p95_ms > kMaxLateP95Seconds * 1e3) {
    report->Fail("generator fell behind (late p95 " +
                 std::to_string(stats.late_p95_ms) + " ms): run invalid");
  }

  // The serving footprint, read before the checks below build a second
  // server for verification.
  const double peak_rss_mb = PeakRssMb();

  // Plan quality. Async jobs carry their plan's estimate in the job record.
  // pegasus_plan materializes the plan-quality DAGs once more after timing
  // (Zipf draws may skip one in the window), checks them against an
  // uncached replan and executes them there for the prediction error.
  const std::set<std::string> keys = workload->plan_quality_keys();
  double plan_est = PlanEstimate(window, keys);
  double pred_err = PredictionError(window);
  if (std::string(config.name) == "pegasus_plan") {
    std::vector<Request> probes;
    for (const std::string& key : keys) {
      probes.push_back({RequestKind::kMaterialize, key, key, false});
    }
    const std::vector<Outcome> probed =
        RunClosedLoop(d.get(), probes, Path::kRest, 1);
    report->Count(probed);
    plan_est = PlanEstimate(probed, keys);
    pred_err = Mean(
        VerifyPlans(config, workload->inputs(), workers, probed, report));
  }

  std::sort(setups.begin(), setups.end());
  const double error_ratio =
      report->attempted > 0
          ? static_cast<double>(report->failed) / report->attempted
          : 1.0;
  std::printf("open loop: %zu requests at %.1f req/s over %.0f s, %d timed "
              "(%d in the tail): p50 %.2f ms, p90 %.2f ms, p95 %.2f ms; "
              "generator late p95 %.2f ms; error_ratio %.4f\n",
              window.size(), config.rate_rps, args.seconds, stats.samples,
              stats.samples - stats.samples * 9 / 10, stats.p50_ms,
              stats.p90_ms, stats.p95_ms, stats.late_p95_ms, error_ratio);
  report->Add("setup_s", setups[setups.size() / 2], "s");
  report->Add("mean_ms", stats.mean_ms, "ms");
  report->Add("tail_ms", stats.tail_ms, "ms");
  report->Add("cpu_ms_per_req", cpu_ms_per_req, "ms");
  report->Add("success_ratio", 1.0 - error_ratio, "ratio");
  report->Add("plan_est_s", plan_est, "s");
  report->Add("pred_err", pred_err, "ratio");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void RunTraced(const Args& args, const WorkloadConfig& config, int workers,
               Report* report) {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Deployment> d;
  Gate gate;
  double setup_seconds = 0.0;
  if (!SetUp(*MakeWorkload(args.workload, args.seed), config, workers,
             Path::kDirect, args.seed, &workload, &d, &gate, &setup_seconds,
             report)) {
    return;
  }
  IresServer& server = *d->server;
  const std::vector<double> offsets =
      PoissonSchedule(config.rate_rps, args.seconds,
                      workload->block_size(), args.seed);

  const ires::TaskScheduler::Stats sched0 = server.scheduler().stats();
  const ires::EventJournal::Stats events0 = server.journal().stats();
  const ires::PlanCache::Stats cache0 = server.plan_cache().stats();
  const uint64_t records0 = d->plane->journal().stats().appended;
  const std::vector<Outcome> traced = RunOpenLoop(
      d.get(), Take(workload.get(), offsets.size()), offsets, Path::kDirect,
      true, workers);
  const ires::TaskScheduler::Stats sched1 = server.scheduler().stats();
  const ires::EventJournal::Stats events1 = server.journal().stats();
  const ires::PlanCache::Stats cache1 = server.plan_cache().stats();
  const uint64_t records1 = d->plane->journal().stats().appended;
  report->Count(traced);

  // The same schedule again, untraced, for the tracing overhead.
  const std::vector<Outcome> plain = RunOpenLoop(
      d.get(), Take(workload.get(), offsets.size()), offsets, Path::kDirect,
      false, workers);
  report->Count(plain);

  SpanLog log;
  for (size_t i = 0; i < traced.size(); ++i) {
    log.AddRequest(static_cast<int>(i), traced[i].spans);
  }
  const std::vector<Span> spans = log.spans();
  auto durations = [&](const std::string& name) {
    std::vector<double> ms;
    for (const Span& s : spans) {
      if (s.name == name) ms.push_back((s.end - s.start) * 1e3);
    }
    return ms;
  };
  const double n = static_cast<double>(traced.size());
  const WindowStats traced_stats = Summarize(traced);
  const WindowStats plain_stats = Summarize(plain);
  if (traced_stats.late_p95_ms > kMaxLateP95Seconds * 1e3) {
    report->Fail("generator fell behind (late p95 " +
                 std::to_string(traced_stats.late_p95_ms) +
                 " ms): run invalid");
  }

  std::vector<double> queue_ms, job_wall;
  long jobs = 0, steps = 0, retries = 0, rejects = 0, shape_hits = 0,
       prepares = 0;
  for (const Outcome& o : traced) {
    if (o.rejected) ++rejects;
    if (o.request.kind == RequestKind::kSql && o.error.empty()) {
      ++prepares;
      if (o.shape_hit) ++shape_hits;
    }
    if (o.job_id.empty() || !o.error.empty()) continue;
    ++jobs;
    steps += o.steps;
    retries += o.retries;
    queue_ms.push_back(o.queue_s * 1e3);
    job_wall.push_back(o.finished - o.submitted_at);
  }
  double refine_total = 0.0;
  for (double ms : durations("modeling.refine")) refine_total += ms / 1e3;
  double wall_total = 0.0;
  for (double s : job_wall) wall_total += s;
  const uint64_t lookups =
      (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
  const uint64_t executed = sched1.executed - sched0.executed;

  const std::string name = config.name;
  const bool executes = name != "pegasus_plan";
  if (prepares == 0) {
    report->notes.push_back("sql.* are 0: " + name +
                            " sends no SQL (no Prepare calls)");
  }
  if (!executes) {
    report->notes.push_back(
        "service.queue_wait_*, service.journal_records_per_job, executor.*, "
        "modeling.* are 0: pegasus_plan materializes synchronously and "
        "executes nothing");
  }
  if (lookups > 0 && cache1.misses == cache0.misses) {
    report->notes.push_back("planner.dp_ms is 0: every plan-cache lookup hit");
  }

  report->Add("core.submit_ms_p50", Percentile(durations("core.submit"), 0.5),
              "ms");
  report->Add("core.submit_ms_p95",
              Percentile(durations("core.submit"), 0.95), "ms");
  report->Add("core.handler_wait_ms_p95",
              Percentile(durations("core.handler_wait"), 0.95), "ms");
  report->Add("analysis.validate_ms",
              Percentile(durations("analysis.validate"), 0.5), "ms");
  report->Add("sql.prepare_ms_p50", Percentile(durations("sql.prepare"), 0.5),
              "ms");
  report->Add("sql.prepare_ms_p95",
              Percentile(durations("sql.prepare"), 0.95), "ms");
  report->Add("sql.shape_hit_ratio",
              prepares > 0 ? static_cast<double>(shape_hits) / prepares : 0.0,
              "ratio");
  report->Add("service.queue_wait_ms_p50", Percentile(queue_ms, 0.5), "ms");
  report->Add("service.queue_wait_ms_p95", Percentile(queue_ms, 0.95), "ms");
  report->Add("service.admission_rejects", static_cast<double>(rejects),
              "count");
  report->Add("service.journal_records_per_job",
              jobs > 0 ? static_cast<double>(records1 - records0) / jobs : 0.0,
              "count");
  report->Add("planner.plan_ms_p50", Percentile(durations("planner.plan"), 0.5),
              "ms");
  report->Add("planner.plan_ms_p95",
              Percentile(durations("planner.plan"), 0.95), "ms");
  report->Add("planner.dp_ms", Percentile(durations("planner.dp"), 0.5), "ms");
  report->Add("planner.cache_hit_ratio",
              lookups > 0
                  ? static_cast<double>(cache1.hits - cache0.hits) / lookups
                  : 0.0,
              "ratio");
  report->Add("planner.cache_lookups", static_cast<double>(lookups), "count");
  report->Add("planner.cache_evictions",
              static_cast<double>(cache1.evictions - cache0.evictions),
              "count");
  report->Add("executor.exec_ms", Percentile(durations("executor.exec"), 0.5),
              "ms");
  report->Add("executor.steps_per_job",
              jobs > 0 ? static_cast<double>(steps) / jobs : 0.0, "count");
  report->Add("executor.step_retries", static_cast<double>(retries), "count");
  report->Add("modeling.refine_ms_p50",
              Percentile(durations("modeling.refine"), 0.5), "ms");
  report->Add("modeling.refine_ms_p95",
              Percentile(durations("modeling.refine"), 0.95), "ms");
  report->Add("modeling.refine_share",
              wall_total > 0 ? refine_total / wall_total : 0.0, "ratio");
  report->Add("modeling.window_fill", gate.window_fill, "ratio");
  report->Add("threading.steal_ratio",
              executed > 0
                  ? static_cast<double>(sched1.steals - sched0.steals) /
                        executed
                  : 0.0,
              "ratio");
  report->Add("threading.tasks_per_request", executed / n, "count");
  report->Add("telemetry.events_per_request",
              (events1.appended - events0.appended) / n, "count");
  report->Add("telemetry.events_dropped",
              static_cast<double>(events1.dropped - events0.dropped),
              "count");
  report->Add("gen.late_ms_p95", traced_stats.late_p95_ms, "ms");
  report->Add("gen.warmup_requests", gate.warmup_requests, "count");

  // Tracing overhead: traced minus untraced end-to-end latency, same
  // schedule, same deployment. That difference is as noisy as two p50s, so
  // the reconciliation uses what tracing adds per request, measured
  // directly: the per-layer self times must account for the traced latency
  // to within the span bookkeeping cost plus the clock skew between the
  // benchmark's and the job record's timestamps.
  const double overhead_ms = traced_stats.p50_ms - plain_stats.p50_ms;
  const double unattributed_ms =
      Mean(log.UnattributedPerRequest()) * 1e3;
  const double tolerance_ms =
      BookkeepingMsPerRequest(spans.size() / traced.size()) + kClockSkewMs;
  report->Add("trace.overhead_p50_ms", overhead_ms, "ms");
  report->Add("trace.unattributed_ms", unattributed_ms, "ms");
  const bool reconciled = unattributed_ms <= tolerance_ms;
  if (!reconciled) {
    report->Fail("per-layer self times leave " +
                 std::to_string(unattributed_ms) +
                 " ms per request unattributed, above the " +
                 std::to_string(tolerance_ms) + " ms tolerance");
  }

  std::printf("\nper-layer table (traced window, %zu requests; times in ms "
              "summed over the window)\n",
              traced.size());
  std::printf("%-10s %8s %12s %12s %12s\n", "layer", "count", "busy", "self",
              "wait");
  for (const auto& [layer, row] : log.LayerTable()) {
    std::printf("%-10s %8d %12.2f %12.2f %12.2f\n", layer.c_str(), row.count,
                row.busy * 1e3, row.self * 1e3, row.wait * 1e3);
  }
  std::printf("traced p50 %.2f ms vs untraced p50 %.2f ms (overhead %.2f ms); "
              "mean unattributed %.3f ms per request, tolerance %.3f ms: "
              "%s\n",
              traced_stats.p50_ms, plain_stats.p50_ms, overhead_ms,
              unattributed_ms, tolerance_ms,
              reconciled ? "reconciled" : "NOT reconciled");

  const std::string dir = ".bench_build/out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      dir + "/trace_" + name + "_" + std::to_string(args.seed) + ".json";
  std::ofstream(path) << log.ChromeTraceJson(traced.empty() ? 0.0
                                                            : traced[0].due);
  std::printf("wrote %s (%zu spans)\n", path.c_str(), spans.size());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <asap_exec|pegasus_plan|sql_mix> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const WorkloadConfig* config = nullptr;
  for (const WorkloadConfig& c : kWorkloads) {
    if (args.workload == c.name) config = &c;
  }
  if (config == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::printf("workload %s seed %llu: %.1f req/s open loop for %.0f s, "
              "%d workers, refined models %s, trace %d\n",
              config->name, static_cast<unsigned long long>(args.seed),
              config->rate_rps,
              args.seconds, workers, config->refined ? "on" : "off",
              args.trace ? 1 : 0);

  Report report;
  if (args.trace) {
    RunTraced(args, *config, workers, &report);
  } else {
    RunUntraced(args, *config, workers, &report);
  }
  if (report.failed > 0) report.correct = false;

  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, "
                  "\"unit\": \"%s\"}",
                  i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
