#ifndef IRES_COMMON_MUTEX_RANKS_H_
#define IRES_COMMON_MUTEX_RANKS_H_

namespace ires {

/// The global lock-acquisition order of the serving stack. Every
/// `ires::Mutex`/`ires::SharedMutex` is constructed with one of these
/// ranks, and the debug-mode lock-rank registry (common/mutex.h) enforces
/// that a thread only ever acquires a mutex of *strictly greater* rank
/// than everything it already holds. Any violation — rank inversion,
/// recursive acquisition, shared→exclusive upgrade — aborts immediately
/// with both lock sets, turning a potential production deadlock into a
/// deterministic test failure.
///
/// Reading the table: low rank = outer lock (taken first, near the request
/// boundary), high rank = inner lock (leaf infrastructure). The blessed
/// cross-subsystem chains, with the rationale for each edge, are documented
/// in DESIGN.md "Concurrency correctness"; the load-bearing ones are
///
///   JobService -> scheduler gate/inject    (DispatchLocked submits tasks
///                                           while holding the job table)
///   JobService -> EventJournal/Trace       (admission + failure snapshots
///                                           are journaled under mu_)
///   EngineRegistry -> EventJournal/Metrics (breaker transitions journal
///                                           and gauge under health_mu_)
///   ModelLibraryMap -> ModelLibraryPair    (SaveToDirectory iterates pairs
///                                           under the map lock)
///   ModelLibraryPair -> ModelRefits        (refit queue accounting under
///                                           the pair lock)
///   scheduler gate -> inject -> park       (Enqueue's fixed internal chain)
///   anything -> MetricsRegistry -> (none)  (registration is a leaf; only
///                                           the Logger ranks below it)
///
/// Two rules of thumb keep the table stable:
///  1. Subsystems that *call into* other subsystems while holding their
///     lock must outrank-precede them (appear earlier / lower).
///  2. Never call TaskGroup::Wait / ParallelFor holding ANY ranked lock:
///     the caller-helps waiter executes arbitrary unrelated tasks, which
///     may acquire any rank in the table (see the scheduler's analysis
///     boundary in DESIGN.md).
///
/// Gaps between values are deliberate — new subsystems slot in without
/// renumbering.
enum class LockRank : int {
  /// RestApi's stored-workflow table; outermost, taken at the HTTP edge.
  kRestApiWorkflows = 100,
  /// ControlPlane routing/assignment table. Holds while calling into
  /// replica JobServices (Submit/stats) and the job journal, so it must
  /// precede both kJobService and kJobJournal.
  kControlPlane = 150,
  /// JobService job table / admission queue. Holds while submitting
  /// scheduler tasks, journaling and tracing — everything below.
  kJobService = 200,
  /// JobJournal record log. Appended to from under the control-plane lock
  /// *and* from replica finalization paths holding kJobService, hence it
  /// sits between kJobService and the caches below.
  kJobJournal = 230,
  /// SqlService parameterized-shape cache (lookup/insert only; never held
  /// across optimize).
  kSqlShapeCache = 250,
  /// PlanCache entry map (leaf within the planner: metric writes under it
  /// are atomic counters only).
  kPlanCache = 300,
  /// PlannerContext candidate-index shard. One shard at a time; resolution
  /// (library + engine reads) runs *between* the shard lock sections.
  kPlannerContextShard = 350,
  /// OperatorLibrary reader/writer lock.
  kOperatorLibrary = 400,
  /// ModelLibrary pair-map lock; held while taking per-pair locks during
  /// directory export, hence it precedes kModelLibraryPair.
  kModelLibraryMap = 450,
  /// ModelLibrary per-(algorithm,engine) estimator lock.
  kModelLibraryPair = 500,
  /// ModelLibrary background-refit drain latch (in-flight count + idle
  /// condvar). Taken under a pair lock when a refit is queued or takes its
  /// window; nothing is acquired under it.
  kModelRefits = 510,
  /// EngineRegistry breaker state; journals transitions and registers
  /// gauges while held.
  kEngineRegistry = 550,
  /// NsgaResourceProvisioner front snapshot (never held across the GA —
  /// the GA fans out onto the scheduler).
  kResourceProvisioner = 600,
  /// DriftObservatory pair map; registers metrics while held.
  kDriftObservatory = 650,
  /// SloMonitor history; visits the metrics registry while held.
  kSloMonitor = 700,
  /// TaskScheduler shutdown admission gate (shared by every Submit).
  kSchedulerGate = 750,
  /// TaskScheduler external-injection queue (nested inside the gate).
  kSchedulerInject = 760,
  /// TaskScheduler parking lot (nested inside gate+inject via NotifyOne).
  kSchedulerPark = 770,
  /// TaskScheduler backlog timer (standalone, polled by healthz).
  kSchedulerBacklog = 780,
  /// TaskGroup completion latch / inline-task list.
  kTaskGroup = 800,
  /// EventJournal ring shard. One shard at a time (queries lock
  /// sequentially, never simultaneously).
  kEventJournalShard = 850,
  /// TraceContext span list.
  kTraceContext = 900,
  /// MetricsRegistry family registration/render lock. Innermost subsystem
  /// lock: everything may register metrics while locked, the registry
  /// itself calls nothing (user callbacks in Visit* must not re-enter).
  kMetricsRegistry = 950,
  /// Logger sink; log lines may be emitted from under any lock above.
  kLogger = 990,
  /// Default for ad-hoc/test mutexes: nothing ranked may be acquired while
  /// holding a leaf.
  kLeaf = 1000,
};

constexpr int LockRankValue(LockRank rank) { return static_cast<int>(rank); }

}  // namespace ires

#endif  // IRES_COMMON_MUTEX_RANKS_H_
