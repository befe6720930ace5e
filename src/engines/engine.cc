#include "engines/engine.h"

#include <algorithm>
#include <cmath>

namespace ires {

uint64_t SimulatedEngine::NextCalibrationVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

void SimulatedEngine::SetProfile(const std::string& algorithm,
                                 AlgorithmProfile profile) {
  profiles_[algorithm] = std::move(profile);
  BumpCalibration();
}

const AlgorithmProfile* SimulatedEngine::FindProfile(
    const std::string& algorithm) const {
  auto it = profiles_.find(algorithm);
  if (it != profiles_.end()) return &it->second;
  it = profiles_.find("*");
  if (it != profiles_.end()) return &it->second;
  return nullptr;
}

Result<OperatorRunEstimate> SimulatedEngine::Estimate(
    const OperatorRunRequest& request) const {
  const AlgorithmProfile* profile = FindProfile(request.algorithm);
  if (profile == nullptr) {
    return Status::NotFound("engine " + config_.name +
                            " has no profile for " + request.algorithm);
  }
  const double gb = request.input_bytes / 1e9;
  const double working_set_gb = gb * profile->memory_per_input;

  // Effective memory: the engine cannot use more than what the provisioned
  // containers were granted (this is what makes the NSGA-II provisioner's
  // memory gene meaningful), capped by the engine's own budget.
  const double allocated_gb = config_.kind == EngineKind::kCentralized
                                  ? request.resources.memory_gb
                                  : request.resources.total_memory_gb();
  const double effective_budget_gb =
      std::min(config_.memory_budget_gb,
               allocated_gb > 0 ? allocated_gb : config_.memory_budget_gb);

  // Memory feasibility / spill behaviour by engine kind.
  double spill_penalty = 1.0;
  switch (config_.kind) {
    case EngineKind::kCentralized:
    case EngineKind::kDistributedMemory:
      if (working_set_gb > effective_budget_gb) {
        return Status::ResourceExhausted(
            config_.name + ": working set " + std::to_string(working_set_gb) +
            "GB exceeds memory budget " +
            std::to_string(effective_budget_gb) + "GB");
      }
      break;
    case EngineKind::kDistributedDisk:
      if (working_set_gb > effective_budget_gb && effective_budget_gb > 0) {
        const double spilled_fraction =
            (working_set_gb - effective_budget_gb) / working_set_gb;
        spill_penalty =
            1.0 + spilled_fraction * (config_.spill_slowdown - 1.0);
      }
      break;
  }

  // Effective parallelism.
  const Resources& res = request.resources;
  double amdahl = 1.0;
  int containers = 1;
  if (config_.kind == EngineKind::kCentralized) {
    // One process; extra cores beyond the first container do not help.
    const int cores = std::max(1, res.cores);
    amdahl = (1.0 - profile->parallel_fraction) +
             profile->parallel_fraction / cores;
  } else {
    const int total_cores = std::max(1, res.total_cores());
    containers = std::max(1, res.containers);
    amdahl = (1.0 - profile->parallel_fraction) +
             profile->parallel_fraction / total_cores;
  }

  double work_multiplier = 1.0;
  if (!profile->work_param.empty()) {
    auto it = request.params.find(profile->work_param);
    if (it != request.params.end()) work_multiplier = std::max(1.0, it->second);
  }

  OperatorRunEstimate out;
  out.exec_seconds =
      profile->startup_seconds +
      profile->container_startup_seconds * containers +
      profile->seconds_per_gb * gb * work_multiplier * amdahl *
          spill_penalty * infrastructure_factor();
  out.output_bytes = request.input_bytes * profile->output_bytes_ratio;
  out.output_records = request.input_records * profile->output_records_ratio;
  out.cost = res.CostForDuration(out.exec_seconds);
  return out;
}

Result<OperatorRunEstimate> SimulatedEngine::Run(
    const OperatorRunRequest& request, Rng* rng) const {
  if (!available_) {
    return Status::Unavailable("engine " + config_.name + " is OFF");
  }
  IRES_ASSIGN_OR_RETURN(OperatorRunEstimate est, Estimate(request));
  if (rng != nullptr && config_.noise_stddev > 0.0) {
    const double factor = std::exp(rng->Normal(0.0, config_.noise_stddev));
    est.exec_seconds *= factor;
    est.cost *= factor;
  }
  return est;
}

}  // namespace ires
