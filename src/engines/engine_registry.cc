#include "engines/engine_registry.h"

#include <algorithm>
#include <cmath>

namespace ires {

namespace {

/// Gauge encoding of the breaker state: readable in dashboards as an
/// ordered severity scale.
double StateGaugeValue(EngineHealth health) {
  switch (health) {
    case EngineHealth::kOff: return 0.0;
    case EngineHealth::kSuspended: return 1.0;
    case EngineHealth::kHalfOpen: return 2.0;
    case EngineHealth::kOn: return 3.0;
  }
  return 3.0;
}

bool IsAvailableState(EngineHealth health) {
  return health == EngineHealth::kOn || health == EngineHealth::kHalfOpen;
}

/// Time-to-recovery buckets in simulated seconds (outages span sub-minute
/// flaps to hour-long suspensions).
const std::vector<double>& RecoveryBuckets() {
  static const std::vector<double> kBuckets = {
      1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0};
  return kBuckets;
}

}  // namespace

const char* EngineHealthName(EngineHealth health) {
  switch (health) {
    case EngineHealth::kOn: return "ON";
    case EngineHealth::kSuspended: return "SUSPENDED";
    case EngineHealth::kHalfOpen: return "HALF_OPEN";
    case EngineHealth::kOff: return "OFF";
  }
  return "?";
}

Status EngineRegistry::Add(std::unique_ptr<SimulatedEngine> engine) {
  if (engine == nullptr) return Status::InvalidArgument("null engine");
  const std::string name = engine->name();
  if (name.empty()) return Status::InvalidArgument("engine needs a name");
  if (engines_.count(name) > 0) {
    return Status::AlreadyExists("engine: " + name);
  }
  engines_.emplace(name, std::move(engine));
  MutexLock lock(health_mu_);
  health_[name] = BreakerState{};
  if (metrics_ != nullptr) {
    metrics_
        ->GetGauge("ires_engine_state",
                   "Engine breaker state: 0=OFF 1=SUSPENDED 2=HALF_OPEN 3=ON.",
                   {{"engine", name}})
        ->Set(StateGaugeValue(EngineHealth::kOn));
  }
  return Status::OK();
}

SimulatedEngine* EngineRegistry::Find(const std::string& name) {
  auto it = engines_.find(name);
  return it == engines_.end() ? nullptr : it->second.get();
}

const SimulatedEngine* EngineRegistry::Find(const std::string& name) const {
  auto it = engines_.find(name);
  return it == engines_.end() ? nullptr : it->second.get();
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(engines_.size());
  for (const auto& [name, engine] : engines_) names.push_back(name);
  return names;
}

uint64_t EngineRegistry::calibration_epoch() const {
  uint64_t sum = 0;
  for (const auto& [name, engine] : engines_) {
    sum += engine->calibration_version();
  }
  return sum;
}

bool EngineRegistry::TransitionLocked(const std::string& name,
                                      BreakerState* state,
                                      EngineHealth health) {
  const bool was_available = IsAvailableState(state->health);
  const EngineHealth previous = state->health;
  state->health = health;
  if (journal_ != nullptr && previous != health) {
    JournalEvent event;
    event.kind = EventKind::kBreakerState;
    event.engine = name;
    event.code = EngineHealthName(health);
    event.value = static_cast<double>(state->consecutive_trips);
    event.detail = std::string(EngineHealthName(previous)) + " -> " +
                   EngineHealthName(health);
    journal_->Append(std::move(event));
  }
  const bool now_available = IsAvailableState(health);
  engines_.at(name)->set_available(now_available);
  if (metrics_ != nullptr) {
    metrics_
        ->GetGauge("ires_engine_state",
                   "Engine breaker state: 0=OFF 1=SUSPENDED 2=HALF_OPEN 3=ON.",
                   {{"engine", name}})
        ->Set(StateGaugeValue(health));
  }
  return was_available != now_available;
}

Status EngineRegistry::SetAvailable(const std::string& name, bool on) {
  if (Find(name) == nullptr) return Status::NotFound("engine: " + name);
  MutexLock lock(health_mu_);
  BreakerState& state = health_[name];
  if (on) {
    state.manual_off = false;
    state.consecutive_trips = 0;
    state.suspended_until = 0.0;
    (void)TransitionLocked(name, &state, EngineHealth::kOn);
  } else {
    state.manual_off = true;
    (void)TransitionLocked(name, &state, EngineHealth::kOff);
  }
  // Administrative flips always bump: callers rely on the epoch advancing
  // even for redundant ON->ON writes (the historic contract).
  BumpEpoch();
  return Status::OK();
}

bool EngineRegistry::IsAvailable(const std::string& name) const {
  const SimulatedEngine* engine = Find(name);
  return engine != nullptr && engine->available();
}

Status EngineRegistry::ReportFailure(const std::string& name) {
  if (Find(name) == nullptr) return Status::NotFound("engine: " + name);
  MutexLock lock(health_mu_);
  BreakerState& state = health_[name];
  if (state.manual_off) return Status::OK();  // an operator said OFF; obey
  if (IsAvailableState(state.health)) state.tripped_at = sim_clock_;
  ++state.trips_total;
  ++state.consecutive_trips;
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("ires_engine_trips_total",
                     "Circuit-breaker trips by engine.", {{"engine", name}})
        ->Increment();
  }
  const double backoff = std::min(
      breaker_.base_suspension_seconds *
          std::pow(breaker_.suspension_multiplier,
                   static_cast<double>(state.consecutive_trips - 1)),
      breaker_.max_suspension_seconds);
  state.suspended_until = sim_clock_ + backoff;
  const EngineHealth next =
      (breaker_.off_after_consecutive_trips > 0 &&
       state.consecutive_trips >= breaker_.off_after_consecutive_trips)
          ? EngineHealth::kOff
          : EngineHealth::kSuspended;
  if (TransitionLocked(name, &state, next)) BumpEpoch();
  return Status::OK();
}

Status EngineRegistry::ReportSuccess(const std::string& name) {
  if (Find(name) == nullptr) return Status::NotFound("engine: " + name);
  MutexLock lock(health_mu_);
  BreakerState& state = health_[name];
  switch (state.health) {
    case EngineHealth::kHalfOpen: {
      // Probe succeeded: close the breaker and record how long the engine
      // was out of rotation.
      state.consecutive_trips = 0;
      state.suspended_until = 0.0;
      if (recovery_seconds_ != nullptr) {
        recovery_seconds_->Observe(
            std::max(0.0, sim_clock_ - state.tripped_at));
      }
      if (TransitionLocked(name, &state, EngineHealth::kOn)) BumpEpoch();
      break;
    }
    case EngineHealth::kOn:
      state.consecutive_trips = 0;  // success breaks the trip streak
      break;
    case EngineHealth::kSuspended:
    case EngineHealth::kOff:
      // A run that started before the trip finished fine; the breaker's
      // verdict stands until the suspension expires.
      break;
  }
  return Status::OK();
}

double EngineRegistry::AdvanceSimClock(double delta_seconds) {
  MutexLock lock(health_mu_);
  if (delta_seconds > 0.0) sim_clock_ += delta_seconds;
  bool changed = false;
  for (auto& [name, state] : health_) {
    if (state.health == EngineHealth::kSuspended &&
        state.suspended_until <= sim_clock_) {
      changed |= TransitionLocked(name, &state, EngineHealth::kHalfOpen);
    }
  }
  if (changed) BumpEpoch();
  return sim_clock_;
}

double EngineRegistry::sim_clock_seconds() const {
  MutexLock lock(health_mu_);
  return sim_clock_;
}

Result<EngineRegistry::HealthSnapshot> EngineRegistry::HealthOf(
    const std::string& name) const {
  if (Find(name) == nullptr) return Status::NotFound("engine: " + name);
  MutexLock lock(health_mu_);
  HealthSnapshot snapshot;
  auto it = health_.find(name);
  if (it == health_.end()) return snapshot;  // never reported: ON
  snapshot.health = it->second.health;
  snapshot.suspended_until = it->second.suspended_until;
  snapshot.consecutive_trips = it->second.consecutive_trips;
  snapshot.trips_total = it->second.trips_total;
  return snapshot;
}

void EngineRegistry::set_breaker_config(const BreakerConfig& config) {
  MutexLock lock(health_mu_);
  breaker_ = config;
}

EngineRegistry::BreakerConfig EngineRegistry::breaker_config() const {
  MutexLock lock(health_mu_);
  return breaker_;
}

void EngineRegistry::EnableMetrics(MetricsRegistry* metrics) {
  MutexLock lock(health_mu_);
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    recovery_seconds_ = nullptr;
    return;
  }
  recovery_seconds_ = metrics_->GetHistogram(
      "ires_engine_recovery_sim_seconds",
      "Simulated time from breaker trip to recovered (HALF_OPEN -> ON).", {},
      RecoveryBuckets());
  for (const auto& [name, state] : health_) {
    metrics_
        ->GetGauge("ires_engine_state",
                   "Engine breaker state: 0=OFF 1=SUSPENDED 2=HALF_OPEN 3=ON.",
                   {{"engine", name}})
        ->Set(StateGaugeValue(state.health));
  }
}

void EngineRegistry::EnableJournal(EventJournal* journal) {
  MutexLock lock(health_mu_);
  journal_ = journal;
}

}  // namespace ires
