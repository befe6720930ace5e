#ifndef IRES_SERVICE_JOB_SERVICE_H_
#define IRES_SERVICE_JOB_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/ires_server.h"
#include "threading/task_scheduler.h"
#include "telemetry/event_journal.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace_context.h"

namespace ires {

class JobJournal;

/// Lifecycle of one submitted workflow job:
///
///   QUEUED ──► PLANNING ──► RUNNING ──► SUCCEEDED
///     │            │            │
///     │(cancel)    │(cancel     └──────► FAILED
///     ▼            ▼  before execute)
///  CANCELLED ◄─────┘
///
/// Execution itself is not preemptible (the discrete-event enforcer runs a
/// plan to completion), so a cancel that arrives during RUNNING is
/// recorded but the job still reaches SUCCEEDED/FAILED.
enum class JobState {
  kQueued,
  kPlanning,
  kRunning,
  kSucceeded,
  kFailed,
  kCancelled,
};

const char* JobStateName(JobState state);
bool IsTerminal(JobState state);

/// Everything the serving layer records about one submission.
struct JobRecord {
  std::string id;
  std::string workflow;          // caller-supplied workflow name
  OptimizationPolicy policy;
  JobState state = JobState::kQueued;
  std::string error;             // terminal failure message, if any

  /// SLO workload class this job is accounted under ("dag" for workflow
  /// submissions, "sql" for the SQL route).
  std::string slo_class = "dag";

  /// Admission tenant and QoS class (0 = gold … 2 = bronze) the job was
  /// accounted under; "default"/1 for direct submissions.
  std::string tenant = "default";
  int qos_class = 1;
  /// Client-supplied dedupe key, empty when none was given.
  std::string idempotency_key;
  /// Control-plane placement: the replica index serving this record and
  /// the journal fencing token of this execution incarnation.
  int replica = 0;
  uint64_t incarnation = 1;
  /// Set when this record is a failover resubmission that resumed from
  /// journaled checkpoints; resumed_steps counts the step outputs it
  /// inherited instead of re-executing.
  bool resumed = false;
  int resumed_steps = 0;

  /// Flight-recorder snapshot attached when the job reaches FAILED: the
  /// last K journal events carrying this job's id, in sequence order — the
  /// postmortem survives even after the ring buffer wraps past them.
  std::vector<JournalEvent> event_snapshot;

  // Chosen-plan summary (available once PLANNING completes; no re-planning
  // needed thanks to IresServer::WorkflowRunResult).
  std::string plan_summary;
  int plan_steps = 0;
  double estimated_seconds = 0.0;
  double estimated_cost = 0.0;
  bool plan_cache_hit = false;

  // Execution outcome (valid once RUNNING finishes).
  RecoveryOutcome outcome;

  // What the job's chaos schedule injected (all zero without chaos).
  ChaosScheduler::Counts chaos_injected;

  // Wall-clock timestamps, seconds since the Unix epoch (0 = not yet).
  double submitted_at = 0.0;
  double started_at = 0.0;
  double finished_at = 0.0;

  // Wall-clock phase durations (seconds). Every terminal job carries the
  // durations of the phases it reached — including FAILED and CANCELLED
  // jobs, whose latency would otherwise vanish from the record: a job
  // cancelled while queued still reports its queue wait, a job that failed
  // planning still reports queue + planning time.
  double queue_seconds = 0.0;
  double plan_seconds = 0.0;
  double exec_wall_seconds = 0.0;

  /// Span trace for this job, created at submission and shared with the
  /// REST layer (GET /apiv1/jobs/{id}/trace renders it as Chrome
  /// trace-event JSON). Never null for jobs created through Submit.
  std::shared_ptr<TraceContext> trace;
};

/// The concurrent serving layer: accepts workflow submissions into a
/// bounded admission queue and drives the plan→execute→refine pipeline on
/// the server's shared TaskScheduler, holding at most `workers` jobs
/// in flight at once (the concurrency cap the private worker pool used to
/// provide — but idle capacity is now shared with every other subsystem).
/// Submissions beyond the queue bound are rejected with ResourceExhausted
/// (HTTP 429 through the REST mapping) — the admission-control primitive
/// that lets a long-lived multi-user IReS deployment shed load instead of
/// collapsing under it.
///
/// Telemetry: lifecycle counters (`ires_jobs_total{outcome=...}`), queue
/// depth / active gauges, and queue-wait / job-duration histograms all live
/// in the server's MetricsRegistry; stats() is a thin read over them.
class JobService {
 public:
  struct Options {
    /// Maximum jobs dispatched to the scheduler concurrently — the job
    /// service's share of the substrate, not a thread count.
    int workers = 4;
    /// Jobs admitted but not yet picked up by a worker. Submissions are
    /// rejected once this many are waiting.
    size_t queue_capacity = 64;
    /// Execution substrate; null uses the server's shared scheduler.
    TaskScheduler* scheduler = nullptr;
  };

  struct Stats {
    uint64_t submitted = 0;   // accepted submissions
    uint64_t rejected = 0;    // bounced on a full queue
    uint64_t succeeded = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    size_t queue_depth = 0;   // currently QUEUED
    size_t running = 0;       // currently PLANNING or RUNNING
    int workers = 0;
  };

  /// Control-plane metadata riding one submission. Default-constructed it
  /// reproduces the legacy direct-submission behavior exactly (tenant
  /// "default", silver class, no journal, locally minted id).
  struct SubmitMeta {
    std::string tenant = "default";
    /// QoS class: 0 = gold, 1 = silver, 2 = bronze. Lower dispatches
    /// first, and a full queue preempts strictly-lower-class QUEUED jobs
    /// to admit a higher-class newcomer.
    int qos_class = 1;
    /// Weighted-fair share within the class: a tenant with weight 2 gets
    /// twice the dispatch rate of a weight-1 tenant under contention.
    double weight = 1.0;
    std::string idempotency_key;
    /// Control-plane-minted global job id; empty mints a local one.
    std::string id_override;
    /// Journal fencing token of this execution incarnation.
    uint64_t incarnation = 1;
    /// Replica index this service serves as (control-plane placement).
    int replica = 0;
    /// Write-ahead job journal receiving lifecycle records; null disables
    /// journaling (the legacy path).
    JobJournal* journal = nullptr;
    /// Failover resubmission: the job was validated and admitted once
    /// already, so the lint gate and the queue-capacity bound are skipped
    /// and execution resumes from exec.resume_materialized.
    bool recovered = false;
  };

  /// Probe invoked at job phase boundaries with no service lock held:
  /// 'p' just before planning, 'r' just before execution, 's' after each
  /// completed step (completed_steps carries the running count). The
  /// control plane's chaos layer uses it to kill replicas mid-plan and
  /// mid-run at deterministic points.
  using PhaseProbe =
      std::function<void(const std::string& job_id, int completed_steps,
                         char phase)>;

  explicit JobService(IresServer* server);
  JobService(IresServer* server, Options options);

  /// Drains in-flight jobs (queued jobs are cancelled) and joins workers.
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Admits one workflow for asynchronous execution. Returns the job id,
  /// or ResourceExhausted when the admission queue is full. `exec` carries
  /// the job's fault-tolerance regime — recovery strategy, replan budget,
  /// retry policy and chaos schedule — so every submission can run under
  /// its own failure discipline.
  /// `slo_class` tags the job's SLO workload class ("dag" or "sql").
  Result<std::string> Submit(
      const WorkflowGraph& graph, const std::string& workflow_name,
      OptimizationPolicy policy = OptimizationPolicy::MinimizeTime(),
      const IresServer::ExecutionOptions& exec =
          IresServer::ExecutionOptions(),
      const std::string& slo_class = "dag") EXCLUDES(mu_);

  /// Control-plane submission: same admission pipeline plus tenant
  /// accounting, weighted-fair queuing, QoS preemption and write-ahead
  /// journaling per `meta`.
  Result<std::string> Submit(const WorkflowGraph& graph,
                             const std::string& workflow_name,
                             OptimizationPolicy policy,
                             const IresServer::ExecutionOptions& exec,
                             const std::string& slo_class,
                             const SubmitMeta& meta) EXCLUDES(mu_);

  /// Installs the phase probe. Must be called before the first Submit —
  /// the probe pointer is read without synchronization from job threads.
  void set_phase_probe(PhaseProbe probe) { phase_probe_ = std::move(probe); }

  /// Simulated replica crash: admission starts refusing with Unavailable
  /// and every in-flight job abandons at its next phase boundary (its
  /// journal appends are fenced once the control plane reassigns it).
  /// The scheduler and existing records survive — this kills the replica
  /// *role*, not the process.
  void SimulateCrash() { crashed_.store(true, std::memory_order_release); }
  /// Replica restart: admission resumes. Local records from before the
  /// crash remain readable.
  void ClearCrash() { crashed_.store(false, std::memory_order_release); }
  bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  /// Estimated seconds until a newly queued job would start: queue depth
  /// times the EWMA job duration over the dispatch width. The Retry-After
  /// hint source.
  double BacklogSeconds() const EXCLUDES(mu_);

  /// Snapshot of one job (NotFound for unknown ids).
  Result<JobRecord> Get(const std::string& id) const EXCLUDES(mu_);

  /// Snapshots of all jobs, oldest submission first.
  std::vector<JobRecord> List() const EXCLUDES(mu_);

  /// Requests cancellation. A QUEUED job transitions to CANCELLED
  /// immediately; a PLANNING job is cancelled before execution starts; a
  /// RUNNING job records the request but completes (see the state machine
  /// above). Terminal jobs return FailedPrecondition.
  Status Cancel(const std::string& id) EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

  const Options& options() const { return options_; }

  /// Blocks until no job is QUEUED/PLANNING/RUNNING and the model refits
  /// finished jobs queued have completed, or `timeout_seconds` elapses;
  /// returns true when idle was reached. Test/benchmark helper.
  bool WaitForIdle(double timeout_seconds) const EXCLUDES(mu_);

  /// Stops admitting work, cancels queued jobs and joins the workers.
  /// Idempotent; the destructor calls it.
  void Shutdown() EXCLUDES(mu_);

 private:
  /// Per-job mutable state. The analysis cannot express "guarded by the
  /// owning service's mu_" on a nested struct, so the contract is
  /// documented instead: after Submit publishes a Job, `record`,
  /// `cancel_requested` and `queue_span` are only touched under mu_
  /// (`graph` and `exec` are immutable after Submit).
  struct Job {
    JobRecord record;
    WorkflowGraph graph;
    IresServer::ExecutionOptions exec;  // immutable after Submit
    bool cancel_requested = false;
    uint64_t queue_span = 0;  // open "job.queue_wait" span id
    // Weighted-fair queuing state (immutable after Submit): dispatch picks
    // the queued job with the lowest (qos_class, vfinish).
    int qos_class = 1;
    double weight = 1.0;
    double vfinish = 0.0;
    // Write-ahead journal handle + fencing token (immutable after Submit;
    // null journal disables journaling).
    JobJournal* journal = nullptr;
    uint64_t incarnation = 1;
    // Completed-step counter fed by the enforcer's step observer (its own
    // thread), read by the phase probe.
    std::atomic<int> completed_steps{0};
  };

  /// Scheduler-task wrapper: runs the job, then releases its dispatch slot
  /// and pulls the next queued job in.
  void RunJob(const std::shared_ptr<Job>& job) EXCLUDES(mu_);
  void ExecuteJob(const std::shared_ptr<Job>& job) EXCLUDES(mu_);
  /// Feeds queued jobs to the scheduler while dispatch slots are free.
  /// Jobs the scheduler refuses (shut down) are cancelled on the spot, so
  /// no record is ever stranded in QUEUED. Enqueueing under mu_ is safe:
  /// TaskScheduler::Submit only takes scheduler locks (all ranked above
  /// kJobService) and never blocks in TaskGroup::Wait.
  void DispatchLocked() REQUIRES(mu_);
  /// Closes out a job reaching a terminal state while holding mu_:
  /// timestamps, the terminal counter, the duration histogram and the idle
  /// broadcast. `job.state` must already be terminal.
  void FinalizeLocked(Job* job) REQUIRES(mu_);
  /// Marks an in-flight job CANCELLED because this replica crashed; the
  /// control plane re-runs it elsewhere under a fresh incarnation, so the
  /// local record is just a tombstone.
  void AbandonLocked(Job* job) REQUIRES(mu_);

  IresServer* server_;
  const Options options_;

  /// kJobService sits below every planner/registry/telemetry rank: job
  /// bookkeeping sections journal events, end trace spans and move gauges
  /// while holding mu_.
  mutable Mutex mu_{LockRank::kJobService, "jobs.service"};
  /// Waits on mu_ directly (condition_variable_any), so the rank registry
  /// sees every release/reacquire across the wait.
  mutable std::condition_variable_any idle_;
  std::map<std::string, std::shared_ptr<Job>> jobs_ GUARDED_BY(mu_);
  std::vector<std::string> submission_order_ GUARDED_BY(mu_);
  uint64_t next_job_number_ GUARDED_BY(mu_) = 1;
  size_t queued_ GUARDED_BY(mu_) = 0;
  size_t active_ GUARDED_BY(mu_) = 0;  // PLANNING or RUNNING
  /// Jobs handed to the scheduler whose RunJob has not returned yet;
  /// bounded by options_.workers.
  size_t dispatched_ GUARDED_BY(mu_) = 0;
  std::deque<std::shared_ptr<Job>> run_queue_ GUARDED_BY(mu_);
  bool shutting_down_ GUARDED_BY(mu_) = false;

  /// Replica-crash flag read at every phase boundary by job threads.
  std::atomic<bool> crashed_{false};
  /// Installed before the first Submit; read without synchronization.
  PhaseProbe phase_probe_;

  /// Weighted-fair queuing state: the service-wide virtual clock and each
  /// tenant's virtual finish time. A job's vfinish is
  /// max(vclock_, tenant_vtime_[tenant]) + 1/weight, and DispatchLocked
  /// picks the queued job with the lowest (qos_class, vfinish).
  double vclock_ GUARDED_BY(mu_) = 0.0;
  std::map<std::string, double> tenant_vtime_ GUARDED_BY(mu_);
  /// EWMA of terminal job durations (seconds); feeds BacklogSeconds.
  double ewma_seconds_ GUARDED_BY(mu_) = 0.0;

  // Registry-backed instruments (stats() reads the counters back, so the
  // legacy accessors and /apiv1/metrics can never disagree).
  Counter* submitted_total_;
  Counter* rejected_total_;
  Counter* succeeded_total_;
  Counter* failed_total_;
  Counter* cancelled_total_;
  Counter* preempted_total_;
  Gauge* queued_gauge_;
  Gauge* active_gauge_;
  Histogram* queue_wait_seconds_;
  Histogram* job_duration_seconds_;

  /// The shared substrate (not owned); Shutdown drains our dispatched jobs
  /// but never stops the scheduler itself.
  TaskScheduler* sched_;
};

}  // namespace ires

#endif  // IRES_SERVICE_JOB_SERVICE_H_
