#ifndef IRES_SERVICE_CONTROL_PLANE_H_
#define IRES_SERVICE_CONTROL_PLANE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos_scheduler.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "service/job_journal.h"
#include "service/job_service.h"

namespace ires {

/// The sharded control plane: N in-process JobService replicas behind
/// consistent-hash routing of workflow fingerprints, a shared write-ahead
/// job journal, and per-tenant weighted-fair admission.
///
/// Resilience contract (the reason this layer exists):
///
///   - every accepted job is journaled before it reaches a replica queue,
///     so killing a replica loses in-flight work but never accepted work;
///   - on a kill (or a heartbeat timeout) the plane fences the dead
///     incarnation via JobJournal::Reassign and resubmits each open job to
///     a live replica, seeding DpPlanner's materialized-intermediates
///     pruning with the job's journaled step outputs — resumed jobs skip
///     already-completed steps instead of restarting;
///   - the journal's terminal record is exactly-once per job even when the
///     "dead" replica was merely partitioned and finished behind the
///     plane's back (the stale incarnation's append is fenced);
///   - a client-supplied idempotency key dedupes resubmission across
///     replicas: the second Submit returns the first job id.
///
/// Execution itself is at-least-once — a mid-run kill cannot un-run a
/// step on the dead replica — but the journal accounting is exactly-once,
/// which is the invariant the chaos soak reconciles.
///
/// The plane also owns graceful degradation: per-tenant QoS classes and
/// quotas, saturation-based shedding of the lowest classes first, and
/// Retry-After hints derived from replica backlog.
class ControlPlane {
 public:
  /// Per-tenant admission policy. Unregistered tenants get the defaults.
  struct TenantConfig {
    /// 0 = gold, 1 = silver, 2 = bronze. Gold dispatches first and is
    /// shed last; bronze is shed first under saturation.
    int qos_class = 1;
    /// Weighted-fair share within the class (see JobService::SubmitMeta).
    double weight = 1.0;
    /// Open (non-terminal) jobs this tenant may hold across the plane;
    /// 0 = unlimited. Enforced against the journal's open count.
    size_t max_open_jobs = 0;
  };

  struct Options {
    /// Replica shards. 1 reproduces the single-service behavior (plus
    /// journaling); kills then have no failover target.
    int replicas = 1;
    /// Options applied to every owned replica.
    JobService::Options replica_options;
    /// Virtual nodes per replica on the hash ring: more gives smoother
    /// balance at slightly larger routing tables.
    int virtual_nodes = 16;
    /// Graceful degradation: shed bronze once aggregate queue saturation
    /// (queued / total capacity) reaches this, silver at the higher bar.
    /// <= 0 disables shedding for that class (the default).
    double shed_bronze_at = 0.0;
    double shed_silver_at = 0.0;
    /// Heartbeat state machine: seconds without a heartbeat before a
    /// replica turns SUSPECT, then DOWN (DOWN triggers failover).
    double suspect_after_seconds = 2.0;
    double down_after_seconds = 5.0;
    /// Control-plane fault injection (kills at phase boundaries, torn
    /// journal appends, heartbeat partitions). Disabled by default.
    ControlPlaneChaosConfig chaos;
  };

  /// Constructs and owns `options.replicas` JobService shards.
  explicit ControlPlane(IresServer* server);
  ControlPlane(IresServer* server, Options options);

  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Everything one plane submission carries beyond the graph.
  struct SubmitRequest {
    std::string workflow_name;
    OptimizationPolicy policy = OptimizationPolicy::MinimizeTime();
    IresServer::ExecutionOptions exec;
    std::string slo_class = "dag";
    std::string tenant = "default";
    /// Optional client dedupe key: a resubmission carrying a known key
    /// returns the original job id instead of a new job.
    std::string idempotency_key;
  };

  /// Admission pipeline: idempotency dedupe -> tenant quota -> saturation
  /// shedding -> consistent-hash routing to a live replica -> journal
  /// Open + replica Submit. Errors map to the REST layer as 429
  /// (ResourceExhausted: quota / full queue) and 503 (Unavailable:
  /// shedding / no live replica).
  Result<std::string> Submit(const WorkflowGraph& graph,
                             const SubmitRequest& request) EXCLUDES(mu_);

  /// Reads and cancels route via the plane's assignment table: a job is
  /// found on the replica that owns its current incarnation. Ids the
  /// plane never admitted are NotFound.
  Result<JobRecord> Get(const std::string& id) const EXCLUDES(mu_);
  /// Union of all replicas' records, deduped by job id keeping the
  /// highest incarnation (a failed-over job leaves a CANCELLED tombstone
  /// on the dead replica), sorted by id (= submission order for minted
  /// ids).
  std::vector<JobRecord> List() const EXCLUDES(mu_);
  Status Cancel(const std::string& id) EXCLUDES(mu_);

  void SetTenant(const std::string& tenant, TenantConfig config)
      EXCLUDES(mu_);

  enum class ReplicaState { kUp, kSuspect, kDown };
  static const char* ReplicaStateName(ReplicaState state);

  struct ReplicaHealth {
    int id = 0;
    ReplicaState state = ReplicaState::kUp;
    bool partitioned = false;
    size_t queue_depth = 0;
    size_t running = 0;
    double backlog_seconds = 0.0;
    uint64_t journal_lag = 0;
  };
  struct Health {
    std::vector<ReplicaHealth> replicas;
    /// True when any replica is not UP — the healthz "degraded" signal.
    bool degraded = false;
    size_t queue_depth = 0;     // summed over replicas
    size_t queue_capacity = 0;  // summed over replicas
    size_t running = 0;
    int workers = 0;  // summed dispatch width
  };
  Health health() const EXCLUDES(mu_);

  /// Plane-wide stats. Lifecycle counters are shared registry instruments
  /// (every replica resolves the same series), so they are read once —
  /// never summed per replica; queue depth / running / workers are summed.
  JobService::Stats AggregateStats() const EXCLUDES(mu_);

  /// Retry-After hint: seconds until the least-backlogged live replica
  /// frees capacity, clamped to >= 1. 0 only when nothing is queued.
  double RetryAfterSeconds() const EXCLUDES(mu_);

  /// Kills a replica: marks it DOWN, crashes the service role, fences and
  /// resubmits its open jobs to live replicas. No-op on an already-down
  /// replica. With no live replica left the open jobs stay journaled and
  /// recover on the next RestartReplica.
  void KillReplica(int replica) EXCLUDES(mu_);
  /// Restarts a killed replica: clears the crash flag, heals partitions,
  /// marks it UP and re-adopts any still-open jobs stranded on it.
  void RestartReplica(int replica) EXCLUDES(mu_);
  /// Stops the replica's heartbeats without stopping its work — the
  /// asymmetric partition. Tick() eventually declares it DOWN and fails
  /// its jobs over; journal fencing keeps the partitioned incarnation's
  /// late appends out.
  void PartitionReplica(int replica) EXCLUDES(mu_);
  void HealReplica(int replica) EXCLUDES(mu_);

  /// Heartbeat evaluation at simulated time `now_seconds` (monotonic,
  /// caller-supplied so tests control the clock): live unpartitioned
  /// replicas heartbeat, then ages are classified UP/SUSPECT/DOWN. A
  /// DOWN transition triggers failover. Chaos may partition one replica
  /// per tick.
  void Tick(double now_seconds) EXCLUDES(mu_);

  JobJournal& journal() { return journal_; }
  const JobJournal& journal() const { return journal_; }
  int replica_count() const { return static_cast<int>(services_.size()); }
  /// The replica a fingerprint routes to while all replicas are up
  /// (test helper; live routing skips down replicas).
  int RouteOf(uint64_t fingerprint) const EXCLUDES(mu_);
  /// Direct access to one replica (tests install phase probes on it;
  /// jobs submitted straight to it bypass the plane and are invisible to
  /// Get/Cancel).
  JobService* replica(int index) { return services_[index].get(); }
  uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  ControlPlaneChaos* chaos() { return chaos_.get(); }

  /// Blocks until every replica is idle, model refits included (see
  /// JobService::WaitForIdle), or `timeout_seconds` elapses.
  bool WaitForIdle(double timeout_seconds) const;

 private:
  struct Replica {
    JobService* service = nullptr;  // == services_[i].get()
    ReplicaState state = ReplicaState::kUp;
    bool partitioned = false;
    /// Simulated-clock heartbeat bookkeeping; <0 means "no tick seen yet"
    /// so the first Tick bootstraps instead of declaring everyone dead.
    double last_heartbeat = -1.0;
  };

  /// What failover needs to resubmit a job from scratch: the full
  /// submission, kept until the job's journal record turns terminal.
  struct JobSpec {
    WorkflowGraph graph;
    std::string workflow_name;
    OptimizationPolicy policy;
    IresServer::ExecutionOptions exec;
    std::string slo_class;
    int qos_class = 1;
    double weight = 1.0;
  };

  /// The replica owning `id`'s current incarnation; -1 when the plane
  /// never admitted it.
  int AssignedReplica(const std::string& id) const EXCLUDES(mu_);
  void BuildRingLocked() REQUIRES(mu_);
  /// First live replica at or clockwise of `hash`; -1 when none is live.
  int RouteLiveLocked(uint64_t hash) const REQUIRES(mu_);
  int LiveCountLocked() const REQUIRES(mu_);
  void MarkDownAndFailoverLocked(int replica) REQUIRES(mu_);
  /// Fences `open`'s incarnation and resubmits it to `target` with its
  /// journaled step outputs seeding the resume. No-op (false) when the
  /// job raced to terminal or has no retained spec.
  bool ResubmitLocked(const JobJournal::OpenJob& open, int target)
      REQUIRES(mu_);
  /// Phase probe from replica `replica`'s job threads (no locks held).
  void OnPhase(int replica, const std::string& job_id, int completed_steps,
               char phase) EXCLUDES(mu_);
  void EmitReplicaState(int replica, const char* state) const;

  IresServer* server_;
  const Options options_;
  JobJournal journal_;
  std::unique_ptr<ControlPlaneChaos> chaos_;  // null when disabled

  std::vector<std::unique_ptr<JobService>> services_;

  mutable Mutex mu_{LockRank::kControlPlane, "control.plane"};
  std::vector<Replica> replicas_ GUARDED_BY(mu_);
  /// Sorted (hash, replica) ring of virtual nodes.
  std::vector<std::pair<uint64_t, int>> ring_ GUARDED_BY(mu_);
  std::map<std::string, TenantConfig> tenants_ GUARDED_BY(mu_);
  std::map<std::string, JobSpec> specs_ GUARDED_BY(mu_);
  std::map<std::string, int> assignment_ GUARDED_BY(mu_);
  std::map<std::string, std::string> idempotency_ GUARDED_BY(mu_);
  /// The plane mints every job id, so ids are unique across replicas.
  uint64_t next_job_number_ GUARDED_BY(mu_) = 1;
  /// Round-robins chaos partitions over replicas.
  int partition_cursor_ GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> failovers_{0};

  Counter* failovers_total_;
  Counter* rejected_total_;
  Gauge* replicas_up_gauge_;
};

}  // namespace ires

#endif  // IRES_SERVICE_CONTROL_PLANE_H_
