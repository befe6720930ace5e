#include "core/request_options.h"

#include <cmath>

#include "common/strings.h"

namespace ires {

namespace {

Status BadField(const std::string& where, const std::string& what) {
  return Status::InvalidArgument("options." + where + " " + what);
}

/// `where.key`, or just `key` at the top level of the options object.
std::string FieldPath(const std::string& where, const std::string& key) {
  return where.empty() ? key : where + "." + key;
}

/// Reads one numeric member, enforcing [lo, hi] and, when `integral`, a
/// whole value; absent members are OK.
Status ReadNumber(const JsonValue& section, const std::string& where,
                  const std::string& key, double lo, double hi, bool integral,
                  bool* present, double* out) {
  *present = false;
  const JsonValue* v = section.Find(key);
  if (v == nullptr) return Status::OK();
  const std::string path = FieldPath(where, key);
  if (!v->is_number()) return BadField(path, "must be a number");
  const double number = v->number_value();
  if (number < lo || number > hi) {
    return BadField(path, "must be in [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]");
  }
  if (integral && number != std::floor(number)) {
    return BadField(path, "must be an integer");
  }
  *present = true;
  *out = number;
  return Status::OK();
}

Status RejectUnknownKeys(const JsonValue& section, const std::string& where,
                         std::initializer_list<const char*> known) {
  for (const auto& [key, value] : section.object()) {
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      return BadField(FieldPath(where, key), "is not a recognized option");
    }
  }
  return Status::OK();
}

Status ParseOptionsBody(const JsonValue& options, ParsedExecution* out) {
  if (!options.is_object()) {
    return Status::InvalidArgument("options must be a JSON object");
  }
  IRES_RETURN_IF_ERROR(
      RejectUnknownKeys(options, "", {"execution", "retry", "chaos"}));
  bool present = false;
  double number = 0.0;

  if (const JsonValue* execution = options.Find("execution")) {
    if (!execution->is_object()) {
      return BadField("execution", "must be an object");
    }
    IRES_RETURN_IF_ERROR(RejectUnknownKeys(*execution, "execution",
                                           {"mode", "strategy", "maxReplans"}));
    if (const JsonValue* mode = execution->Find("mode")) {
      if (!mode->is_string() ||
          (mode->string_value() != "sync" && mode->string_value() != "async")) {
        return BadField("execution.mode", "must be \"sync\" or \"async\"");
      }
      out->async = mode->string_value() == "async";
    }
    if (const JsonValue* strategy = execution->Find("strategy")) {
      if (!strategy->is_string()) {
        return BadField("execution.strategy", "must be a string");
      }
      if (strategy->string_value() == "ires") {
        out->exec.strategy = ReplanStrategy::kIresReplan;
      } else if (strategy->string_value() == "trivial") {
        out->exec.strategy = ReplanStrategy::kTrivialReplan;
      } else {
        return BadField("execution.strategy", "must be ires or trivial");
      }
    }
    IRES_RETURN_IF_ERROR(ReadNumber(*execution, "execution", "maxReplans", 0,
                                    1000, /*integral=*/true, &present,
                                    &number));
    if (present) out->exec.max_replans = static_cast<int>(number);
  }

  if (const JsonValue* retry = options.Find("retry")) {
    if (!retry->is_object()) return BadField("retry", "must be an object");
    IRES_RETURN_IF_ERROR(RejectUnknownKeys(
        *retry, "retry", {"attempts", "backoffSeconds", "stragglerMultiplier"}));
    IRES_RETURN_IF_ERROR(ReadNumber(*retry, "retry", "attempts", 1, 100,
                                    /*integral=*/true, &present, &number));
    if (present) out->exec.retry.max_attempts = static_cast<int>(number);
    IRES_RETURN_IF_ERROR(ReadNumber(*retry, "retry", "backoffSeconds", 0,
                                    1e9, /*integral=*/false, &present,
                                    &number));
    if (present) out->exec.retry.base_backoff_seconds = number;
    IRES_RETURN_IF_ERROR(ReadNumber(*retry, "retry", "stragglerMultiplier", 0,
                                    1e9, /*integral=*/false, &present,
                                    &number));
    if (present) out->exec.retry.straggler_multiplier = number;
  }

  if (const JsonValue* chaos = options.Find("chaos")) {
    if (!chaos->is_object()) return BadField("chaos", "must be an object");
    IRES_RETURN_IF_ERROR(RejectUnknownKeys(
        *chaos, "chaos",
        {"seed", "transient", "timeout", "crash", "crashEngine"}));
    IRES_RETURN_IF_ERROR(ReadNumber(*chaos, "chaos", "seed", 1, 1e18,
                                    /*integral=*/true, &present, &number));
    if (present) out->exec.chaos.seed = static_cast<uint64_t>(number);
    IRES_RETURN_IF_ERROR(ReadNumber(*chaos, "chaos", "transient", 0, 1,
                                    /*integral=*/false, &present, &number));
    if (present) out->exec.chaos.transient_probability = number;
    IRES_RETURN_IF_ERROR(ReadNumber(*chaos, "chaos", "timeout", 0, 1,
                                    /*integral=*/false, &present, &number));
    if (present) out->exec.chaos.timeout_probability = number;
    IRES_RETURN_IF_ERROR(ReadNumber(*chaos, "chaos", "crash", 0, 1,
                                    /*integral=*/false, &present, &number));
    if (present) out->exec.chaos.engine_crash_probability = number;
    if (const JsonValue* engine = chaos->Find("crashEngine")) {
      if (!engine->is_string()) {
        return BadField("chaos.crashEngine", "must be a string");
      }
      out->exec.chaos.crash_engine = engine->string_value();
    }
  }
  return Status::OK();
}

}  // namespace

Status ParseExecutionOptions(const std::string& query,
                             const JsonValue* options, ParsedExecution* out) {
  *out = ParsedExecution();
  for (const std::string& pair :
       query.empty() ? std::vector<std::string>{} : SplitAndTrim(query, '&')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("query parameter needs a value: " + pair);
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "mode") {
      if (value == "async") {
        out->async = true;
      } else if (value != "sync") {
        return Status::InvalidArgument("mode must be sync or async");
      }
    } else if (key == "tenant") {
      // Routing identity like mode, not a tuning knob: stays a query
      // parameter for good.
      if (value.empty()) {
        return Status::InvalidArgument("tenant must be non-empty");
      }
      out->tenant = value;
    } else if (key == "idempotencyKey") {
      if (value.empty()) {
        return Status::InvalidArgument("idempotencyKey must be non-empty");
      }
      out->idempotency_key = value;
    } else {
      return Status::InvalidArgument("unsupported execute query key: " + key);
    }
  }
  if (options == nullptr) return Status::OK();
  return ParseOptionsBody(*options, out);
}

}  // namespace ires
