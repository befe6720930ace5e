#ifndef IRES_CORE_REST_API_H_
#define IRES_CORE_REST_API_H_

#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "core/ires_server.h"
#include "core/request_options.h"
#include "service/control_plane.h"
#include "service/sql_service.h"

namespace ires {

/// Response of one API call: an HTTP-style status code plus a JSON body,
/// plus any response headers a transport should forward (currently just
/// Retry-After on 429/503).
struct ApiResponse {
  int code = 200;
  std::string body;
  std::map<std::string, std::string> headers;

  bool ok() const { return code >= 200 && code < 300; }
};

/// The platform's external API (deliverable §3.5): the IReS server exposes
/// its functionality to the rest of the ASAP components through a RESTful
/// interface. This class implements the resource routing and JSON
/// serialization; a transport (HTTP server, CLI, tests) feeds it
/// (method, path, body) triples. Handle is thread-safe: concurrent callers
/// may register artefacts, store workflows and submit jobs at once.
/// Supported routes:
///
///   GET  /apiv1/engines                         list engines + status
///   PUT  /apiv1/engines/{name}/availability     body: "on" | "off"
///   GET  /apiv1/datasets                        list datasets
///   GET  /apiv1/datasets/{name}                 one description
///   POST /apiv1/datasets/{name}                 body: description text
///   GET  /apiv1/abstractOperators[/{name}]
///   POST /apiv1/abstractOperators/{name}
///   GET  /apiv1/operators[/{name}]              materialized operators
///   POST /apiv1/operators/{name}                (the send_operator.sh path)
///   GET  /apiv1/workflows                       list stored workflows
///   POST /apiv1/workflows/{name}                body: `graph` file text
///   POST /apiv1/validate                        dry-run workflow lint;
///                                               200 + {"valid",...,
///                                               "diagnostics":[...]}
///   POST /apiv1/workflows/{name}/materialize    plan; returns the plan
///   POST /apiv1/workflows/{name}/execute        plan + run + refine models
///   POST /apiv1/workflows/{name}/execute?mode=async
///                                               submit; 202 + {"jobId":...}
///   POST /apiv1/sql                             body: SQL text, or
///                                               {"query":"...","options":{}}
///                                               optimize + lower + run
///                                               (?mode=async submits a job)
///   GET  /apiv1/jobs                            list job summaries
///   GET  /apiv1/jobs/{id}                       one job record
///   GET  /apiv1/jobs/{id}/trace                 Chrome trace-event JSON
///   POST /apiv1/jobs/{id}/cancel                cancel a queued/running job
///   GET  /apiv1/stats                           serving + plan-cache counters
///   GET  /apiv1/metrics                         Prometheus text exposition
///   GET  /apiv1/healthz                         liveness + queue saturation
///                                               + SLO burn rates (degraded)
///   GET  /apiv1/debug/events?job=&kind=&since=&limit=
///                                               flight-recorder query
///   GET  /apiv1/models/drift                    cost-model drift by
///                                               (operator, engine) pair
///
/// The execute and sql routes take their tuning knobs from a structured
/// JSON `options` body (`{"execution":{...},"retry":{...},"chaos":{...}}`,
/// see core/request_options.h); only `mode`, `tenant` and `idempotencyKey`
/// ride the query string.
///
/// Every request is timed into `ires_http_request_seconds{method,route}`
/// and counted in `ires_http_requests_total{method,route,code}`, with
/// `route` normalized ({name}/{id} placeholders) to keep label cardinality
/// bounded.
///
/// Error envelope: every non-2xx response body is
///   {"error":{"code":"<StatusCode name>","message":"<detail>"}}
/// Workflow-lint rejections (materialize/execute of an invalid workflow)
/// additionally carry "diagnostics": a JSON array of structured findings
/// (code, severity, location, message, fixHint) from the analysis layer.
/// with StatusCode mapped to HTTP in one place:
///   kNotFound            -> 404     kAlreadyExists       -> 409
///   kInvalidArgument     -> 400     kFailedPrecondition  -> 422
///   kResourceExhausted   -> 429     kUnavailable         -> 503
///   anything else        -> 500
class RestApi {
 public:
  /// Owns a default-configured single-replica ControlPlane for the async
  /// routes.
  explicit RestApi(IresServer* server);

  /// Serves an externally configured control plane (not owned) — how
  /// tests and deployments size replicas, worker pools and admission
  /// queues.
  RestApi(IresServer* server, ControlPlane* plane);

  ~RestApi();

  /// Dispatches one request. Unknown routes return 404; other failures
  /// follow the error-envelope table above.
  ApiResponse Handle(const std::string& method, const std::string& path,
                     const std::string& body = "");

 private:
  ApiResponse Dispatch(const std::string& method,
                       const std::vector<std::string>& parts,
                       const std::string& query, const std::string& body,
                       const std::string& path);
  ApiResponse HandleEngines(const std::string& method,
                            const std::vector<std::string>& parts,
                            const std::string& body);
  ApiResponse HandleDescriptions(const std::string& method,
                                 const std::vector<std::string>& parts,
                                 const std::string& body);
  ApiResponse HandleWorkflows(const std::string& method,
                              const std::vector<std::string>& parts,
                              const std::string& query,
                              const std::string& body)
      EXCLUDES(workflows_mu_);
  ApiResponse HandleValidate(const std::string& body);
  ApiResponse HandleSql(const std::string& method,
                        const std::vector<std::string>& parts,
                        const std::string& query, const std::string& body);
  ApiResponse ValidationRejection(const std::vector<Diagnostic>& findings);
  ApiResponse HandleJobs(const std::string& method,
                         const std::vector<std::string>& parts);
  ApiResponse HandleStats();
  ApiResponse HandleHealthz();
  ApiResponse HandleDebugEvents(const std::string& query);

  IresServer* server_;
  std::unique_ptr<ControlPlane> owned_plane_;
  ControlPlane* plane_;
  std::unique_ptr<SqlService> sql_;
  /// The workflow store is read-mostly (every execute/materialize snapshots
  /// a graph; stores are rare), so readers share the lock. kRestApiWorkflows
  /// is the outermost rank: handler sections lock it before any service or
  /// planner lock can be taken downstream.
  SharedMutex workflows_mu_{LockRank::kRestApiWorkflows, "rest.workflows"};
  std::map<std::string, WorkflowGraph> workflows_ GUARDED_BY(workflows_mu_);
};

}  // namespace ires

#endif  // IRES_CORE_REST_API_H_
