#ifndef IRES_CORE_REQUEST_OPTIONS_H_
#define IRES_CORE_REQUEST_OPTIONS_H_

#include <string>

#include "common/json.h"
#include "common/status.h"
#include "core/ires_server.h"

namespace ires {

/// The per-request execution regime as decoded from one REST call, shared
/// by POST /workflows/{name}/execute and POST /apiv1/sql.
struct ParsedExecution {
  bool async = false;
  IresServer::ExecutionOptions exec;
  /// Admission identity: the control plane accounts the job under this
  /// tenant's QoS class, weight and quota (`?tenant=` query parameter).
  std::string tenant = "default";
  /// Client dedupe key (`?idempotencyKey=`): resubmitting with a known key
  /// returns the original job id instead of admitting a duplicate.
  std::string idempotency_key;
};

/// Decodes the execution options of one request from its query string and
/// optional structured JSON `options` body (null when the request carried
/// none):
///
///   {"execution": {"mode": "sync|async", "strategy": "ires|trivial",
///                  "maxReplans": N},
///    "retry":     {"attempts": N, "backoffSeconds": S,
///                  "stragglerMultiplier": M},
///    "chaos":     {"seed": N, "transient": P, "timeout": P, "crash": P,
///                  "crashEngine": "name"}}
///
/// The query string carries only what routes and identifies a request,
/// not what tunes it: `mode` (sync|async; may also be given in the body),
/// `tenant` and `idempotencyKey`. Every tuning knob lives in the body.
///
/// Unknown query keys, unknown body sections/keys, out-of-range values and
/// fractional values for the integer options (`maxReplans`, `attempts`,
/// `seed`) all fail with InvalidArgument so typos never silently run with
/// defaults.
Status ParseExecutionOptions(const std::string& query,
                             const JsonValue* options, ParsedExecution* out);

}  // namespace ires

#endif  // IRES_CORE_REQUEST_OPTIONS_H_
