#ifndef IRES_ENGINES_ENGINE_REGISTRY_H_
#define IRES_ENGINES_ENGINE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engines/data_movement.h"
#include "engines/engine.h"
#include "telemetry/event_journal.h"
#include "telemetry/metrics_registry.h"

namespace ires {

/// Circuit-breaker health of one engine (deliverable §2.3, hardened for a
/// long-lived service). Failure reports no longer amputate an engine
/// forever; they suspend it on the simulated clock with exponential
/// backoff, probe it half-open once the suspension expires, and only turn
/// it permanently OFF after N consecutive trips (or a manual OFF):
///
///   ON ──ReportFailure──► SUSPENDED(until t) ──clock reaches t──► HALF_OPEN
///   ▲                          ▲                                     │
///   │                          └────────────ReportFailure────────────┤
///   └───────────────────────────ReportSuccess────────────────────────┘
///
/// SUSPENDED and OFF engines read as unavailable (planners exclude them);
/// HALF_OPEN engines are available so the next job probes them.
enum class EngineHealth { kOn, kSuspended, kHalfOpen, kOff };

const char* EngineHealthName(EngineHealth health);

/// Registry of the deployed engines and the data-movement model between
/// their stores — the "Multi-Engine Cloud" box of the architecture figure.
/// Thread-safe: health transitions take an internal mutex, availability
/// reads stay lock-free on the engines' atomics, and every transition that
/// changes availability bumps availability_epoch() so cached plans and
/// memoized candidate resolutions from before the flip are never reused.
class EngineRegistry {
 public:
  /// Circuit-breaker tuning.
  struct BreakerConfig {
    /// First suspension length (simulated seconds).
    double base_suspension_seconds = 30.0;
    /// Each consecutive trip multiplies the suspension by this factor.
    double suspension_multiplier = 2.0;
    double max_suspension_seconds = 3600.0;
    /// Consecutive trips before the engine goes permanently OFF;
    /// <= 0 means never (the breaker keeps suspending with max backoff).
    int off_after_consecutive_trips = 8;
  };

  /// Diagnostic snapshot of one engine's breaker.
  struct HealthSnapshot {
    EngineHealth health = EngineHealth::kOn;
    double suspended_until = 0.0;  // simulated seconds; kSuspended only
    int consecutive_trips = 0;
    uint64_t trips_total = 0;
  };

  EngineRegistry() = default;

  /// Registers an engine; names must be unique.
  Status Add(std::unique_ptr<SimulatedEngine> engine) EXCLUDES(health_mu_);

  SimulatedEngine* Find(const std::string& name);
  const SimulatedEngine* Find(const std::string& name) const;

  /// Names of all registered engines, sorted.
  std::vector<std::string> Names() const;

  /// Administrative ON/OFF override (the REST availability route and the
  /// single-engine benchmark baselines). `on` resets the breaker to ON;
  /// `off` is a manual OFF that only another SetAvailable(name, true)
  /// undoes — failure-driven recovery never resurrects a manually disabled
  /// engine.
  Status SetAvailable(const std::string& name, bool on)
      EXCLUDES(health_mu_);
  bool IsAvailable(const std::string& name) const;

  /// Records a failure indicting `name` (engine crash, exhausted retries):
  /// trips the breaker to SUSPENDED with exponential backoff on the
  /// simulated clock, or to OFF once the consecutive-trip limit is hit.
  /// Manual OFF states are left untouched.
  Status ReportFailure(const std::string& name) EXCLUDES(health_mu_);

  /// Records a successful use of `name`: closes a HALF_OPEN probe back to
  /// ON (recording time-to-recovery) and resets the consecutive-trip
  /// streak. No-op in every other state.
  Status ReportSuccess(const std::string& name) EXCLUDES(health_mu_);

  /// Advances the shared simulated clock (the executor adds each run's
  /// makespan) and promotes SUSPENDED engines whose deadline passed to
  /// HALF_OPEN. Returns the new clock value.
  double AdvanceSimClock(double delta_seconds) EXCLUDES(health_mu_);
  double sim_clock_seconds() const EXCLUDES(health_mu_);

  /// Breaker state of one engine (ON for engines never reported).
  Result<HealthSnapshot> HealthOf(const std::string& name) const
      EXCLUDES(health_mu_);

  void set_breaker_config(const BreakerConfig& config) EXCLUDES(health_mu_);
  BreakerConfig breaker_config() const EXCLUDES(health_mu_);

  /// Publishes `ires_engine_state` gauges, `ires_engine_trips_total`
  /// counters and the `ires_engine_recovery_sim_seconds` time-to-recovery
  /// histogram into `metrics`. Call once at wiring time.
  void EnableMetrics(MetricsRegistry* metrics) EXCLUDES(health_mu_);

  /// Journals every breaker transition as a process-scoped `breaker_state`
  /// event (the job-scoped `breaker_trip` companion is emitted by the
  /// recovering executor, which knows the indicting job). Call once at
  /// wiring time.
  void EnableJournal(EventJournal* journal) EXCLUDES(health_mu_);

  /// Monotonic counter bumped by every availability change (manual flips
  /// and breaker transitions); part of the plan-cache key.
  uint64_t availability_epoch() const {
    return availability_epoch_.load(std::memory_order_acquire);
  }

  /// Sum of the registered engines' calibration versions; part of the
  /// plan-cache key. Engines are only ever added and every calibration
  /// change replaces a token with a larger one, so the sum strictly grows
  /// and never returns to a value it had.
  uint64_t calibration_epoch() const;

  DataMovementModel& movement() { return movement_; }
  const DataMovementModel& movement() const { return movement_; }

  size_t size() const { return engines_.size(); }

 private:
  struct BreakerState {
    EngineHealth health = EngineHealth::kOn;
    bool manual_off = false;
    double suspended_until = 0.0;
    double tripped_at = 0.0;  // clock at the start of the current outage
    int consecutive_trips = 0;
    uint64_t trips_total = 0;
  };

  /// Applies `health` to the engine atomic + state gauge. Returns true
  /// when engine availability actually changed (the caller then bumps the
  /// epoch). Nests journal shard and metrics-registry locks under
  /// health_mu_ — the blessed direction (kEngineRegistry <
  /// kEventJournalShard < kMetricsRegistry).
  bool TransitionLocked(const std::string& name, BreakerState* state,
                        EngineHealth health) REQUIRES(health_mu_);
  void BumpEpoch() {
    availability_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  std::map<std::string, std::unique_ptr<SimulatedEngine>> engines_;
  DataMovementModel movement_;
  std::atomic<uint64_t> availability_epoch_{0};

  mutable Mutex health_mu_{LockRank::kEngineRegistry, "engines.health"};
  std::map<std::string, BreakerState> health_ GUARDED_BY(health_mu_);
  BreakerConfig breaker_ GUARDED_BY(health_mu_);
  double sim_clock_ GUARDED_BY(health_mu_) = 0.0;
  MetricsRegistry* metrics_ GUARDED_BY(health_mu_) = nullptr;
  Histogram* recovery_seconds_ GUARDED_BY(health_mu_) = nullptr;
  EventJournal* journal_ GUARDED_BY(health_mu_) = nullptr;
};

}  // namespace ires

#endif  // IRES_ENGINES_ENGINE_REGISTRY_H_
