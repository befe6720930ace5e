#include "core/rest_api.h"

#include <charconv>
#include <chrono>
#include <cstdio>

#include "common/json.h"
#include "common/strings.h"

namespace ires {

namespace {

/// The single StatusCode -> HTTP mapping behind every error response (see
/// the envelope table in the header).
int HttpCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kNotFound: return 404;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kFailedPrecondition: return 422;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kUnavailable: return 503;
    default: return 500;
  }
}

/// Uniform error envelope: {"error":{"code":...,"message":...}}.
ApiResponse ErrorEnvelope(StatusCode code, const std::string& message) {
  return {HttpCodeFor(code),
          std::string("{\"error\":{\"code\":\"") + StatusCodeToString(code) +
              "\",\"message\":\"" + JsonEscape(message) + "\"}}"};
}

ApiResponse NotFoundError(const std::string& message) {
  return ErrorEnvelope(StatusCode::kNotFound, message);
}

/// Parses a whole decimal unsigned integer: digits only — no sign,
/// fraction, exponent, whitespace, or value past uint64 range.
bool ParseDecimalUint(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

ApiResponse FromStatus(const Status& status, int ok_code = 200,
                       const std::string& ok_body = "{\"ok\":true}") {
  if (status.ok()) return {ok_code, ok_body};
  return ErrorEnvelope(status.code(), status.message());
}

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(items[i]) + "\"";
  }
  out += "]";
  return out;
}

std::string JobRecordJson(const JobRecord& record, bool include_plan) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "\"state\":\"%s\",\"planSteps\":%d,\"estimatedSeconds\":%.3f,"
      "\"estimatedCost\":%.1f,\"planCacheHit\":%s,"
      "\"executionSeconds\":%.3f,\"planningMs\":%.3f,\"replans\":%d,"
      "\"stepRetries\":%d,"
      "\"submittedAt\":%.3f,\"startedAt\":%.3f,\"finishedAt\":%.3f,"
      "\"queueSeconds\":%.6f,\"planSeconds\":%.6f,\"execWallSeconds\":%.6f",
      JobStateName(record.state), record.plan_steps,
      record.estimated_seconds, record.estimated_cost,
      record.plan_cache_hit ? "true" : "false",
      record.outcome.total_execution_seconds,
      record.outcome.total_planning_ms, record.outcome.replans,
      record.outcome.step_retries,
      record.submitted_at, record.started_at, record.finished_at,
      record.queue_seconds, record.plan_seconds, record.exec_wall_seconds);
  std::string out = "{\"id\":\"" + JsonEscape(record.id) +
                    "\",\"workflow\":\"" + JsonEscape(record.workflow) +
                    "\",\"policy\":\"" + JsonEscape(record.policy.ToString()) +
                    "\",\"sloClass\":\"" + JsonEscape(record.slo_class) +
                    "\"," + buf;
  if (!record.error.empty()) {
    out += ",\"error\":\"" + JsonEscape(record.error) + "\"";
  }
  // Structured failure causes: every failed execution attempt, in order,
  // with its failure domain — the post-mortem a bare error string can't
  // carry.
  if (!record.outcome.failures.empty()) {
    out += ",\"failures\":[";
    for (size_t i = 0; i < record.outcome.failures.size(); ++i) {
      const FailureEvent& f = record.outcome.failures[i];
      if (i > 0) out += ",";
      char fbuf[128];
      std::snprintf(fbuf, sizeof(fbuf),
                    "{\"attempt\":%d,\"step\":%d,\"kind\":\"%s\"", f.attempt,
                    f.failed_step, FailureKindName(f.kind));
      out += fbuf;
      if (!f.engine.empty()) {
        out += ",\"engine\":\"" + JsonEscape(f.engine) + "\"";
      }
      out += "}";
    }
    out += "]";
  }
  if (record.chaos_injected.total() > 0) {
    char cbuf[128];
    std::snprintf(cbuf, sizeof(cbuf),
                  ",\"chaosInjected\":{\"transient\":%llu,\"timeout\":%llu,"
                  "\"engineCrash\":%llu}",
                  static_cast<unsigned long long>(
                      record.chaos_injected.transient),
                  static_cast<unsigned long long>(record.chaos_injected.timeout),
                  static_cast<unsigned long long>(
                      record.chaos_injected.engine_crash));
    out += cbuf;
  }
  if (include_plan && !record.plan_summary.empty()) {
    out += ",\"plan\":\"" + JsonEscape(record.plan_summary) + "\"";
  }
  // The flight-recorder snapshot captured at failure time: the decision
  // sequence survives in the job record even after the journal ring wraps.
  if (include_plan && !record.event_snapshot.empty()) {
    out += ",\"eventSnapshot\":" + EventsToJson(record.event_snapshot);
  }
  out += "}";
  return out;
}

/// Decodes an execute/sql request body: either empty, or a JSON object
/// whose only recognized member is "options" (plus "query" on the sql
/// route, extracted by the caller). On success `options` points into
/// `parsed` (null when the body carried no options).
Status ExtractOptionsBody(const std::string& body, JsonValue* parsed,
                          const JsonValue** options, bool allow_query) {
  *options = nullptr;
  if (Trim(body).empty()) return Status::OK();
  IRES_ASSIGN_OR_RETURN(*parsed, JsonValue::Parse(body));
  if (!parsed->is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  for (const auto& [key, value] : parsed->object()) {
    if (key == "options" || (allow_query && key == "query")) continue;
    return Status::InvalidArgument("unrecognized request body member: " + key);
  }
  *options = parsed->Find("options");
  return Status::OK();
}

/// Metric-label form of a request path: resource names stay, per-entity
/// segments become {name}/{id}, and action suffixes pass through only when
/// they belong to the API's fixed action vocabulary — an arbitrary suffix
/// collapses to {action}, so traffic can never mint new label values.
std::string NormalizeRoute(const std::vector<std::string>& parts) {
  if (parts.size() < 2 || parts[0] != "apiv1") return "unknown";
  std::string route = "/apiv1/" + parts[1];
  if (parts.size() < 3) return route;
  // Namespaced observability resources: the sub-resource is part of the
  // fixed API vocabulary, not a caller-minted entity name.
  if (parts[1] == "debug" || parts[1] == "models") {
    static constexpr const char* kSubResources[] = {"events", "drift"};
    for (const char* sub : kSubResources) {
      if (parts[2] == sub) return route + "/" + sub;
    }
    return route + "/{name}";
  }
  route += parts[1] == "jobs" ? "/{id}" : "/{name}";
  if (parts.size() >= 4) {
    static constexpr const char* kActions[] = {
        "availability", "cancel", "execute", "health", "materialize",
        "trace"};
    bool known = false;
    for (const char* action : kActions) {
      if (parts[3] == action) {
        known = true;
        break;
      }
    }
    route += known ? "/" + parts[3] : "/{action}";
  }
  return route;
}

}  // namespace

RestApi::RestApi(IresServer* server)
    : server_(server),
      owned_plane_(std::make_unique<ControlPlane>(server)),
      plane_(owned_plane_.get()),
      sql_(std::make_unique<SqlService>(server)) {}

RestApi::RestApi(IresServer* server, ControlPlane* plane)
    : server_(server),
      plane_(plane),
      sql_(std::make_unique<SqlService>(server)) {}

RestApi::~RestApi() = default;

ApiResponse RestApi::Handle(const std::string& method,
                            const std::string& path,
                            const std::string& body) {
  // Split off the query string before routing on path segments.
  std::string route = path, query;
  if (const size_t q = path.find('?'); q != std::string::npos) {
    route = path.substr(0, q);
    query = path.substr(q + 1);
  }
  std::vector<std::string> parts = SplitAndTrim(route, '/');

  const auto start = std::chrono::steady_clock::now();
  ApiResponse response = Dispatch(method, parts, query, body, path);
  // Backpressure responses tell the client when to come back: a
  // Retry-After header derived from replica backlog, mirrored as
  // retryAfterSeconds inside the error envelope so JSON-only clients see
  // it too.
  if (response.code == 429 || response.code == 503) {
    const int retry_after = static_cast<int>(plane_->RetryAfterSeconds());
    response.headers["Retry-After"] = std::to_string(retry_after);
    static constexpr char kEnvelopeSuffix[] = "\"}}";
    if (response.body.size() >= sizeof(kEnvelopeSuffix) - 1 &&
        response.body.compare(
            response.body.size() - (sizeof(kEnvelopeSuffix) - 1),
            sizeof(kEnvelopeSuffix) - 1, kEnvelopeSuffix) == 0) {
      response.body.insert(response.body.size() - 2,
                           ",\"retryAfterSeconds\":" +
                               std::to_string(retry_after));
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  MetricsRegistry& metrics = server_->metrics();
  const std::string normalized = NormalizeRoute(parts);
  metrics
      .GetHistogram("ires_http_request_seconds",
                    "REST request latency by method and normalized route.",
                    {{"method", method}, {"route", normalized}})
      ->Observe(seconds);
  metrics
      .GetCounter("ires_http_requests_total",
                  "REST requests by method, normalized route and status.",
                  {{"method", method},
                   {"route", normalized},
                   {"code", std::to_string(response.code)}})
      ->Increment();
  return response;
}

ApiResponse RestApi::Dispatch(const std::string& method,
                              const std::vector<std::string>& parts,
                              const std::string& query,
                              const std::string& body,
                              const std::string& path) {
  if (parts.size() < 2 || parts[0] != "apiv1") {
    return NotFoundError("unknown route: " + path);
  }
  const std::string& resource = parts[1];
  if (resource == "engines") return HandleEngines(method, parts, body);
  if (resource == "datasets" || resource == "abstractOperators" ||
      resource == "operators") {
    return HandleDescriptions(method, parts, body);
  }
  if (resource == "workflows") {
    return HandleWorkflows(method, parts, query, body);
  }
  if (resource == "validate" && method == "POST" && parts.size() == 2) {
    return HandleValidate(body);
  }
  if (resource == "sql") return HandleSql(method, parts, query, body);
  if (resource == "jobs") return HandleJobs(method, parts);
  if (resource == "stats" && method == "GET" && parts.size() == 2) {
    return HandleStats();
  }
  if (resource == "metrics" && method == "GET" && parts.size() == 2) {
    return {200, server_->metrics().RenderPrometheus()};
  }
  if (resource == "healthz" && method == "GET" && parts.size() == 2) {
    return HandleHealthz();
  }
  if (resource == "debug" && method == "GET" && parts.size() == 3 &&
      parts[2] == "events") {
    return HandleDebugEvents(query);
  }
  if (resource == "models" && method == "GET" && parts.size() == 3 &&
      parts[2] == "drift") {
    return {200, server_->drift().ToJson()};
  }
  return NotFoundError("unknown resource: " + resource);
}

ApiResponse RestApi::HandleHealthz() {
  const JobService::Stats stats = plane_->AggregateStats();
  const ControlPlane::Health plane_health = plane_->health();
  const size_t capacity = plane_health.queue_capacity;
  const double saturation =
      capacity == 0 ? 0.0
                    : static_cast<double>(stats.queue_depth) /
                          static_cast<double>(capacity);
  const bool saturated = capacity > 0 && stats.queue_depth >= capacity;
  // Execution-substrate saturation: all subsystems share one work-stealing
  // scheduler, so its ready-queue depth is the replica-wide backpressure
  // signal (it replaced the old per-pool ires_pool_pending_tasks gauges).
  // A transient burst is normal; a backlog that *stays* above
  // workers x backlog_per_worker for longer than the grace window means the
  // replica is falling behind and the probe degrades.
  TaskScheduler& sched = server_->scheduler();
  const size_t sched_pending = sched.pending();
  const double backlog_seconds = sched.BacklogSeconds();
  constexpr double kBacklogGraceSeconds = 1.0;
  const bool sched_backlogged = backlog_seconds > kBacklogGraceSeconds;
  // SLO accounting: a burning objective degrades the replica (visible to
  // operators and dashboards) without failing the liveness probe — only
  // saturation, which new submissions cannot survive, turns the probe red.
  const std::string slo_json = server_->slo().ToJson();
  // A down (or suspect) replica degrades the aggregate even when the
  // survivors keep absorbing the load — operators need to see it.
  const bool degraded =
      sched_backlogged || plane_health.degraded ||
      slo_json.find("\"burning\":[]") == std::string::npos;
  const char* status =
      saturated ? "saturated" : (degraded ? "degraded" : "ok");
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"status\":\"%s\",\"queueDepth\":%zu,"
                "\"queueCapacity\":%zu,\"running\":%zu,\"workers\":%d,"
                "\"saturation\":%.3f,"
                "\"scheduler\":{\"pendingTasks\":%zu,\"workers\":%d,"
                "\"backlogSeconds\":%.3f,\"backlogged\":%s},\"replicas\":[",
                status, stats.queue_depth, capacity, stats.running,
                stats.workers, saturation, sched_pending, sched.worker_count(),
                backlog_seconds, sched_backlogged ? "true" : "false");
  std::string out = buf;
  for (size_t i = 0; i < plane_health.replicas.size(); ++i) {
    const ControlPlane::ReplicaHealth& replica = plane_health.replicas[i];
    char rbuf[224];
    std::snprintf(rbuf, sizeof(rbuf),
                  "%s{\"id\":%d,\"state\":\"%s\",\"partitioned\":%s,"
                  "\"queueDepth\":%zu,\"running\":%zu,"
                  "\"backlogSeconds\":%.3f,\"journalLag\":%llu}",
                  i > 0 ? "," : "", replica.id,
                  ControlPlane::ReplicaStateName(replica.state),
                  replica.partitioned ? "true" : "false", replica.queue_depth,
                  replica.running, replica.backlog_seconds,
                  static_cast<unsigned long long>(replica.journal_lag));
    out += rbuf;
  }
  out += "],\"slo\":";
  return {saturated ? 503 : 200, out + slo_json + "}"};
}

ApiResponse RestApi::HandleDebugEvents(const std::string& query) {
  EventJournal::Filter filter;
  for (const std::string& pair :
       query.empty() ? std::vector<std::string>{} : SplitAndTrim(query, '&')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return ErrorEnvelope(StatusCode::kInvalidArgument,
                           "query parameter needs a value: " + pair);
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    uint64_t number = 0;
    if (key == "job") {
      filter.job = value;
    } else if (key == "kind") {
      EventKind kind;
      if (!ParseEventKind(value, &kind)) {
        return ErrorEnvelope(StatusCode::kInvalidArgument,
                             "unknown event kind: " + value);
      }
      filter.has_kind = true;
      filter.kind = kind;
    } else if (key == "since") {
      if (!ParseDecimalUint(value, &number)) {
        return ErrorEnvelope(StatusCode::kInvalidArgument,
                             "since must be a decimal sequence number");
      }
      filter.since_seq = number;
    } else if (key == "limit") {
      if (!ParseDecimalUint(value, &number) || number < 1 || number > 4096) {
        return ErrorEnvelope(StatusCode::kInvalidArgument,
                             "limit must be an integer in [1, 4096]");
      }
      filter.limit = static_cast<size_t>(number);
    } else {
      return ErrorEnvelope(StatusCode::kInvalidArgument,
                           "unknown query parameter: " + key);
    }
  }
  const EventJournal& journal = server_->journal();
  const std::vector<JournalEvent> events = journal.Query(filter);
  const EventJournal::Stats stats = journal.stats();
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                ",\"headSeq\":%llu,\"appended\":%llu,\"dropped\":%llu}",
                static_cast<unsigned long long>(journal.head_seq()),
                static_cast<unsigned long long>(stats.appended),
                static_cast<unsigned long long>(stats.dropped));
  return {200, "{\"events\":" + EventsToJson(events) + tail};
}

ApiResponse RestApi::HandleEngines(const std::string& method,
                                   const std::vector<std::string>& parts,
                                   const std::string& body) {
  if (method == "GET" && parts.size() == 2) {
    // Values are the breaker state names; the historic ON/OFF strings are a
    // subset, so clients switching on them keep working.
    std::string out = "{";
    bool first = true;
    for (const std::string& name : server_->engines().Names()) {
      if (!first) out += ",";
      first = false;
      auto health = server_->engines().HealthOf(name);
      out += "\"" + JsonEscape(name) + "\":\"" +
             (health.ok() ? EngineHealthName(health.value().health)
                          : (server_->engines().IsAvailable(name) ? "ON"
                                                                  : "OFF")) +
             "\"";
    }
    out += "}";
    return {200, out};
  }
  if (method == "GET" && parts.size() == 4 && parts[3] == "health") {
    auto health = server_->engines().HealthOf(parts[2]);
    if (!health.ok()) return FromStatus(health.status());
    const EngineRegistry::HealthSnapshot& snap = health.value();
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "{\"engine\":\"%s\",\"health\":\"%s\",\"available\":%s,"
        "\"suspendedUntil\":%.3f,\"consecutiveTrips\":%d,\"tripsTotal\":%llu,"
        "\"simClockSeconds\":%.3f}",
        JsonEscape(parts[2]).c_str(), EngineHealthName(snap.health),
        server_->engines().IsAvailable(parts[2]) ? "true" : "false",
        snap.suspended_until, snap.consecutive_trips,
        static_cast<unsigned long long>(snap.trips_total),
        server_->engines().sim_clock_seconds());
    return {200, buf};
  }
  if (method == "PUT" && parts.size() == 4 && parts[3] == "availability") {
    const std::string value = ToLower(Trim(body));
    if (value != "on" && value != "off") {
      return ErrorEnvelope(StatusCode::kInvalidArgument,
                           "availability body must be 'on' or 'off'");
    }
    return FromStatus(
        server_->engines().SetAvailable(parts[2], value == "on"));
  }
  return NotFoundError("unknown engines route");
}

ApiResponse RestApi::HandleDescriptions(const std::string& method,
                                        const std::vector<std::string>& parts,
                                        const std::string& body) {
  const std::string& resource = parts[1];
  OperatorLibrary& library = server_->library();
  const ArtifactKind kind = resource == "datasets"
                                ? ArtifactKind::kDataset
                                : resource == "abstractOperators"
                                      ? ArtifactKind::kAbstractOperator
                                      : ArtifactKind::kMaterializedOperator;

  if (method == "GET" && parts.size() == 2) {
    std::vector<std::string> names;
    switch (kind) {
      case ArtifactKind::kDataset:
        for (const auto& [name, d] : library.datasets()) {
          names.push_back(name);
        }
        break;
      case ArtifactKind::kAbstractOperator:
        for (const auto& [name, o] : library.abstract()) {
          names.push_back(name);
        }
        break;
      case ArtifactKind::kMaterializedOperator:
        names = library.MaterializedNames();
        break;
    }
    return {200, JsonStringArray(names)};
  }

  if (parts.size() != 3) {
    return NotFoundError("expected /" + resource + "/{name}");
  }
  const std::string& name = parts[2];

  if (method == "GET") {
    const MetadataTree* meta = nullptr;
    switch (kind) {
      case ArtifactKind::kDataset: {
        const Dataset* d = library.FindDatasetByName(name);
        if (d != nullptr) meta = &d->meta();
        break;
      }
      case ArtifactKind::kAbstractOperator: {
        const AbstractOperator* o = library.FindAbstractByName(name);
        if (o != nullptr) meta = &o->meta();
        break;
      }
      case ArtifactKind::kMaterializedOperator: {
        const MaterializedOperator* o = library.FindMaterializedByName(name);
        if (o != nullptr) meta = &o->meta();
        break;
      }
    }
    if (meta == nullptr) return NotFoundError(resource + ": " + name);
    return {200, "{\"name\":\"" + JsonEscape(name) + "\",\"description\":\"" +
                     JsonEscape(meta->ToDescription()) + "\"}"};
  }

  if (method == "POST") {
    return FromStatus(server_->RegisterArtifact(kind, name, body), 201);
  }
  return NotFoundError("unsupported method " + method);
}

ApiResponse RestApi::HandleValidate(const std::string& body) {
  // Dry-run lint: parse + full analyzer passes, no state change and no
  // reject accounting (nothing was rejected — nothing was submitted).
  auto graph = server_->ParseWorkflow(body);
  if (!graph.ok()) return FromStatus(graph.status());
  const std::vector<Diagnostic> findings =
      server_->ValidateWorkflow(graph.value());
  char head[96];
  std::snprintf(head, sizeof(head),
                "{\"valid\":%s,\"errors\":%zu,\"warnings\":%zu,"
                "\"diagnostics\":",
                HasErrors(findings) ? "false" : "true",
                CountSeverity(findings, DiagSeverity::kError),
                CountSeverity(findings, DiagSeverity::kWarning));
  return {200, std::string(head) + RenderJson(findings) + "}"};
}

/// 422 envelope carrying the structured findings; the admission-rejection
/// shape shared by the materialize/execute routes.
ApiResponse RestApi::ValidationRejection(
    const std::vector<Diagnostic>& findings) {
  CountValidationRejects(&server_->metrics(), findings);
  return {422,
          "{\"error\":{\"code\":\"FailedPrecondition\","
          "\"message\":\"workflow failed validation\",\"diagnostics\":" +
              RenderJson(findings) + "}}"};
}

ApiResponse RestApi::HandleWorkflows(const std::string& method,
                                     const std::vector<std::string>& parts,
                                     const std::string& query,
                                     const std::string& body) {
  if (method == "GET" && parts.size() == 2) {
    ReaderLock lock(workflows_mu_);
    std::vector<std::string> names;
    for (const auto& [name, graph] : workflows_) names.push_back(name);
    return {200, JsonStringArray(names)};
  }
  if (method == "POST" && parts.size() == 3) {
    auto graph = server_->ParseWorkflow(body);
    if (!graph.ok()) return FromStatus(graph.status());
    const Status valid = graph.value().Validate();
    if (!valid.ok()) return FromStatus(valid);
    WriterLock lock(workflows_mu_);
    if (workflows_.count(parts[2]) > 0) {
      return ErrorEnvelope(StatusCode::kAlreadyExists,
                           "workflow exists: " + parts[2]);
    }
    workflows_.emplace(parts[2], std::move(graph).value());
    return {201, "{\"ok\":true}"};
  }
  if (method == "POST" && parts.size() == 4) {
    // Snapshot the graph under the lock; planning/execution run without it.
    WorkflowGraph graph;
    {
      ReaderLock lock(workflows_mu_);
      auto it = workflows_.find(parts[2]);
      if (it == workflows_.end()) {
        return NotFoundError("workflow: " + parts[2]);
      }
      graph = it->second;
    }
    // Deep pre-admission lint (the store route only checks structure — the
    // library may have changed since). Returning here, before Submit, keeps
    // each rejection counted exactly once.
    if (parts[3] == "materialize" || parts[3] == "execute") {
      const std::vector<Diagnostic> findings =
          server_->ValidateWorkflow(graph);
      if (HasErrors(findings)) return ValidationRejection(findings);
    }
    if (parts[3] == "materialize") {
      auto plan = server_->MaterializeWorkflow(graph);
      if (!plan.ok()) return FromStatus(plan.status());
      char head[160];
      std::snprintf(head, sizeof(head),
                    "{\"estimatedSeconds\":%.3f,\"estimatedCost\":%.1f,"
                    "\"steps\":%zu,\"plan\":\"",
                    plan.value().estimated_seconds,
                    plan.value().estimated_cost, plan.value().steps.size());
      return {200,
              std::string(head) + JsonEscape(plan.value().ToString()) + "\"}"};
    }
    if (parts[3] == "execute") {
      JsonValue body_json;
      const JsonValue* options = nullptr;
      const Status extracted =
          ExtractOptionsBody(body, &body_json, &options, /*allow_query=*/false);
      if (!extracted.ok()) return FromStatus(extracted);
      ParsedExecution parsed;
      const Status opt_status = ParseExecutionOptions(query, options, &parsed);
      if (!opt_status.ok()) return FromStatus(opt_status);
      if (parsed.async) {
        ControlPlane::SubmitRequest submit;
        submit.workflow_name = parts[2];
        submit.exec = parsed.exec;
        submit.tenant = parsed.tenant;
        submit.idempotency_key = parsed.idempotency_key;
        auto job_id = plane_->Submit(graph, submit);
        if (!job_id.ok()) return FromStatus(job_id.status());
        return {202, "{\"jobId\":\"" + JsonEscape(job_id.value()) + "\"}"};
      }
      IresServer::WorkflowRunResult result = server_->RunWorkflow(
          graph, OptimizationPolicy::MinimizeTime(), nullptr, parsed.exec);
      if (!result.recovery.status.ok()) {
        return FromStatus(result.recovery.status);
      }
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"executionSeconds\":%.3f,\"planningMs\":%.3f,"
                    "\"replans\":%d,\"stepRetries\":%d,\"planCacheHit\":%s",
                    result.recovery.total_execution_seconds,
                    result.recovery.total_planning_ms,
                    result.recovery.replans, result.recovery.step_retries,
                    result.plan_cache_hit ? "true" : "false");
      return {200, std::string(buf) + "}"};
    }
  }
  return NotFoundError("unknown workflows route");
}

ApiResponse RestApi::HandleSql(const std::string& method,
                               const std::vector<std::string>& parts,
                               const std::string& query,
                               const std::string& body) {
  if (method != "POST" || parts.size() != 2) {
    return NotFoundError("unknown sql route");
  }
  // The body is either bare SQL text or {"query": "...", "options": {...}}.
  std::string sql_text = body;
  JsonValue body_json;
  const JsonValue* options = nullptr;
  if (!Trim(body).empty() && Trim(body)[0] == '{') {
    const Status extracted =
        ExtractOptionsBody(body, &body_json, &options, /*allow_query=*/true);
    if (!extracted.ok()) return FromStatus(extracted);
    const JsonValue* q = body_json.Find("query");
    if (q == nullptr || !q->is_string()) {
      return ErrorEnvelope(StatusCode::kInvalidArgument,
                           "JSON sql body needs a \"query\" string member");
    }
    sql_text = q->string_value();
  }
  if (Trim(sql_text).empty()) {
    return ErrorEnvelope(StatusCode::kInvalidArgument, "empty SQL query");
  }

  ParsedExecution parsed;
  const Status opt_status = ParseExecutionOptions(query, options, &parsed);
  if (!opt_status.ok()) return FromStatus(opt_status);

  // Parse + MuSQLE optimize + lower. Front-end failures carry SQxxx
  // diagnostics and surface as the structured 422 envelope, mirroring the
  // workflow-lint rejections.
  std::vector<Diagnostic> diagnostics;
  auto prepared = sql_->Prepare(sql_text, &diagnostics);
  if (!prepared.ok()) {
    if (!diagnostics.empty()) return ValidationRejection(diagnostics);
    return FromStatus(prepared.status());
  }
  const SqlService::PreparedQuery& pq = prepared.value();

  // The lowered graph goes through the same pre-admission lint as any
  // stored workflow before it reaches the planner.
  const std::vector<Diagnostic> findings = server_->ValidateWorkflow(pq.graph);
  if (HasErrors(findings)) return ValidationRejection(findings);

  char sql_fields[320];
  std::snprintf(sql_fields, sizeof(sql_fields),
                "\"shapeId\":\"%s\",\"shapeCacheHit\":%s,"
                "\"resultEngine\":\"%s\",\"estimatedSeconds\":%.3f,"
                "\"scans\":%d,\"joins\":%d,\"moves\":%d",
                JsonEscape(pq.shape_id).c_str(),
                pq.shape_cache_hit ? "true" : "false",
                JsonEscape(pq.result_engine).c_str(), pq.estimated_seconds,
                pq.scan_ops, pq.join_ops, pq.move_ops);

  if (parsed.async) {
    ControlPlane::SubmitRequest submit;
    submit.workflow_name = pq.shape_id;
    submit.exec = parsed.exec;
    submit.slo_class = "sql";
    submit.tenant = parsed.tenant;
    submit.idempotency_key = parsed.idempotency_key;
    auto job_id = plane_->Submit(pq.graph, submit);
    if (!job_id.ok()) return FromStatus(job_id.status());
    return {202, "{\"jobId\":\"" + JsonEscape(job_id.value()) + "\"," +
                     sql_fields + "}"};
  }

  IresServer::WorkflowRunResult result = server_->RunWorkflow(
      pq.graph, OptimizationPolicy::MinimizeTime(), nullptr, parsed.exec);
  if (!result.recovery.status.ok()) {
    return FromStatus(result.recovery.status);
  }
  char run_fields[192];
  std::snprintf(run_fields, sizeof(run_fields),
                ",\"executionSeconds\":%.3f,\"planningMs\":%.3f,"
                "\"replans\":%d,\"stepRetries\":%d,\"planCacheHit\":%s",
                result.recovery.total_execution_seconds,
                result.recovery.total_planning_ms, result.recovery.replans,
                result.recovery.step_retries,
                result.plan_cache_hit ? "true" : "false");
  return {200, "{" + std::string(sql_fields) + run_fields + "}"};
}

ApiResponse RestApi::HandleJobs(const std::string& method,
                                const std::vector<std::string>& parts) {
  if (method == "GET" && parts.size() == 2) {
    std::string out = "[";
    bool first = true;
    for (const JobRecord& record : plane_->List()) {
      if (!first) out += ",";
      first = false;
      out += JobRecordJson(record, /*include_plan=*/false);
    }
    out += "]";
    return {200, out};
  }
  if (method == "GET" && parts.size() == 3) {
    auto record = plane_->Get(parts[2]);
    if (!record.ok()) return FromStatus(record.status());
    return {200, JobRecordJson(record.value(), /*include_plan=*/true)};
  }
  if (method == "GET" && parts.size() == 4 && parts[3] == "trace") {
    auto record = plane_->Get(parts[2]);
    if (!record.ok()) return FromStatus(record.status());
    if (!record.value().trace) {
      return ErrorEnvelope(StatusCode::kFailedPrecondition,
                           "job has no trace: " + parts[2]);
    }
    return {200, record.value().trace->ToChromeTraceJson()};
  }
  if (method == "POST" && parts.size() == 4 && parts[3] == "cancel") {
    return FromStatus(plane_->Cancel(parts[2]));
  }
  return NotFoundError("unknown jobs route");
}

ApiResponse RestApi::HandleStats() {
  const JobService::Stats jobs = plane_->AggregateStats();
  const PlanCache::Stats cache = server_->plan_cache().stats();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"jobs\":{\"submitted\":%llu,\"rejected\":%llu,\"succeeded\":%llu,"
      "\"failed\":%llu,\"cancelled\":%llu,\"queueDepth\":%zu,"
      "\"running\":%zu,\"workers\":%d},"
      "\"planCache\":{\"hits\":%llu,\"misses\":%llu,\"insertions\":%llu,"
      "\"evictions\":%llu,\"entries\":%zu}}",
      static_cast<unsigned long long>(jobs.submitted),
      static_cast<unsigned long long>(jobs.rejected),
      static_cast<unsigned long long>(jobs.succeeded),
      static_cast<unsigned long long>(jobs.failed),
      static_cast<unsigned long long>(jobs.cancelled), jobs.queue_depth,
      jobs.running, jobs.workers,
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.insertions),
      static_cast<unsigned long long>(cache.evictions), cache.entries);
  return {200, buf};
}

}  // namespace ires
