#ifndef IRES_THREADING_TASK_SCHEDULER_H_
#define IRES_THREADING_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "telemetry/event_journal.h"
#include "telemetry/metrics_registry.h"

namespace ires {

class TaskScheduler;
class TaskGroup;

namespace sched_internal {

struct Task;

/// Chase–Lev work-stealing deque of Task pointers (Chase & Lev, SPAA'05;
/// memory orders per Lê et al., PPoPP'13). The owning worker pushes and pops
/// at the bottom (LIFO — the hot task is cache-warm), thieves take from the
/// top (FIFO — they get the oldest, largest-granularity work). Push/Pop are
/// owner-only; Steal is safe from any thread. The backing ring grows on
/// demand; retired rings are kept alive until destruction so a concurrent
/// thief can never read through a freed array.
class WorkDeque {
 public:
  explicit WorkDeque(size_t initial_capacity = 256);
  ~WorkDeque();

  WorkDeque(const WorkDeque&) = delete;
  WorkDeque& operator=(const WorkDeque&) = delete;

  // The deque is the analysis boundary of the thread-safety sweep: it is
  // lock-free (no capability to annotate), and its correctness rests on the
  // Chase–Lev ownership protocol — owner-only Push/Pop at the bottom,
  // CAS-claimed Steal at the top, memory orders per Lê et al. (PPoPP'13),
  // see the proof notes in task_scheduler.cc — not on any mutex the
  // analysis could check. NO_THREAD_SAFETY_ANALYSIS marks that boundary
  // explicitly rather than leaving the methods silently unchecked.

  /// Owner only: push one task at the bottom.
  void Push(Task* task) NO_THREAD_SAFETY_ANALYSIS;
  /// Owner only: pop the most recently pushed task; null when empty.
  Task* Pop() NO_THREAD_SAFETY_ANALYSIS;
  /// Any thread: take the oldest task; null when empty or lost a race.
  Task* Steal() NO_THREAD_SAFETY_ANALYSIS;

  /// Approximate (racy) size — telemetry only.
  size_t ApproxSize() const;

 private:
  struct Ring {
    explicit Ring(size_t capacity);
    const size_t capacity;  // power of two
    const size_t mask;
    std::unique_ptr<std::atomic<Task*>[]> slots;

    Task* Get(int64_t index) const {
      return slots[static_cast<size_t>(index) & mask].load(
          std::memory_order_relaxed);
    }
    void Put(int64_t index, Task* task) {
      slots[static_cast<size_t>(index) & mask].store(
          task, std::memory_order_relaxed);
    }
  };

  Ring* Grow(Ring* ring, int64_t top, int64_t bottom);

  std::atomic<int64_t> top_{0};     // next index thieves take from
  std::atomic<int64_t> bottom_{0};  // next index the owner pushes at
  std::atomic<Ring*> ring_;
  // Retired rings, freed at destruction (owner-only mutation under push).
  std::vector<std::unique_ptr<Ring>> retired_;
};

/// One schedulable node. Graph tasks are owned by their TaskGroup; detached
/// tasks (TaskScheduler::Submit) own themselves and are deleted after
/// running.
struct Task {
  std::function<void()> fn;
  /// Predecessors not yet finished; the task becomes runnable when this
  /// reaches zero. Counts down at runtime — dispatch decisions at Launch
  /// must use `prerequisites` (the static in-degree), because a fast
  /// predecessor can drive this to zero while Launch is still iterating,
  /// and reading it there would double-dispatch the task.
  std::atomic<int> pending{0};
  /// Static in-degree, fixed before Launch. Zero = root task.
  int prerequisites = 0;
  std::vector<Task*> successors;
  TaskGroup* group = nullptr;  // null for detached tasks
  bool detached = false;
  /// Non-empty labels get a flight-recorder task span on completion.
  std::string label;
  double enqueued_at = 0.0;  // steady seconds at ready time
};

}  // namespace sched_internal

/// The shared execution substrate of the serving stack: a work-stealing
/// task scheduler with one Chase–Lev deque per worker, dependency-counted
/// task nodes and a caller-helps wait primitive (TaskGroup). Planner
/// fan-outs, job execution, SQL optimization and model refits all run here
/// instead of fighting over per-subsystem pools — a blocked waiter executes
/// tasks instead of sleeping, so the substrate is work-conserving under any
/// mix of workloads.
///
/// Scheduling policy: a worker pops its own deque LIFO (locality), then
/// drains the external injection queue, then steals FIFO from a random
/// victim. Workers that find nothing park on a condition variable and are
/// woken by the next enqueue. External threads (REST handlers, tests,
/// benchmark drivers) submit through a mutex-guarded injection queue and
/// help-execute when they wait on a TaskGroup.
///
/// Substrate contract: tasks must not block indefinitely. A waiting thread
/// helps by running whatever it acquires — including tasks of unrelated
/// groups — so a task that parks forever wedges its helper too. Bounded
/// waits (a job step simulating I/O) are fine; open-ended ones belong on a
/// dedicated thread, not the scheduler.
///
/// Shutdown semantics: Shutdown() stops admission *deterministically* —
/// every Submit after it returns false and journals a `task_rejected`
/// event; tasks already queued are drained by the workers before they
/// join (nothing is silently dropped, fixing the old ThreadPool window
/// where Submit during the drain dropped tasks while workers still ran).
/// TaskGroup work is never lost even across Shutdown: refused group tasks
/// fall back to an inline list their waiter executes.
///
/// Telemetry (when built with a MetricsRegistry):
///   ires_sched_steals_total        successful steals
///   ires_sched_parks_total         worker park (sleep) transitions
///   ires_sched_tasks_total{event=submitted|executed|rejected}
///   ires_sched_pending_tasks       tasks queued, not yet running
///   ires_sched_task_wait_seconds   enqueue-to-pickup queue wait histogram
///   ires_sched_worker_runs_total{worker=...}  per-worker executed tasks
/// With an EventJournal, labelled tasks emit `task_span` events (value =
/// run seconds) and refused submissions emit `task_rejected`.
class TaskScheduler {
 public:
  struct Options {
    /// Worker threads; <=0 uses std::thread::hardware_concurrency().
    int workers = 0;
    MetricsRegistry* metrics = nullptr;
    EventJournal* journal = nullptr;
    /// Injectable wall clock (seconds) for the backlog/saturation tracker;
    /// null uses steady_clock. Tests march a fake clock forward.
    std::function<double()> clock;
    /// Queue depth above workers*backlog_per_worker arms the backlog
    /// timer that /apiv1/healthz reads (see BacklogSeconds).
    size_t backlog_per_worker = 4;
  };

  explicit TaskScheduler(int workers, MetricsRegistry* metrics = nullptr);
  explicit TaskScheduler(Options options);

  /// Shuts down: drains queued tasks, joins workers.
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueues a detached fire-and-forget task. Returns false — always, and
  /// only, after Shutdown() has been called — in which case the task is not
  /// run and a `task_rejected` journal event records the drop. A non-empty
  /// `label` opts the task into flight-recorder span events.
  bool Submit(std::function<void()> fn, const std::string& label = "");

  /// Stops admission, drains every queued task and joins the workers.
  /// Idempotent; called by the destructor.
  void Shutdown() EXCLUDES(gate_, park_mu_);

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Tasks enqueued (deques + injection queue) and not yet picked up.
  /// Approximate under concurrency — telemetry and saturation only.
  size_t pending() const;

  struct Stats {
    uint64_t submitted = 0;
    uint64_t executed = 0;
    uint64_t rejected = 0;
    uint64_t steals = 0;
    uint64_t parks = 0;
    std::vector<uint64_t> worker_runs;  // executed per worker
  };
  Stats stats() const;

  /// Sustained seconds the queue depth has exceeded
  /// workers*backlog_per_worker, measured across calls with the injected
  /// clock (poll-driven: healthz calls it on every scrape). Returns 0 and
  /// re-arms whenever the backlog clears — the saturation signal behind
  /// /apiv1/healthz "degraded".
  double BacklogSeconds() EXCLUDES(backlog_mu_);

 private:
  friend class TaskGroup;
  using Task = sched_internal::Task;

  struct Worker {
    sched_internal::WorkDeque deque;
    std::atomic<uint64_t> runs{0};
    Counter* runs_total = nullptr;
    uint64_t steal_seed = 0;
  };

  void WorkerLoop(int index);
  /// Enqueues a ready task: own deque on a worker thread, injection queue
  /// otherwise. Returns false (task untouched) after Shutdown.
  bool Enqueue(Task* task) EXCLUDES(gate_, inject_mu_, park_mu_);
  /// Dequeues one task for `worker_index` (own pop → inject → steal), or
  /// for an external helper (worker_index < 0: inject → steal).
  Task* TryAcquire(int worker_index) EXCLUDES(inject_mu_);
  /// Runs a task, fires successors, settles group/detached accounting.
  void Execute(Task* task, int worker_index);
  void NotifyOne() EXCLUDES(park_mu_);
  double ClockSeconds() const;
  /// This thread's worker index in *this* scheduler, or -1 (external
  /// helper — including workers of a different scheduler instance).
  int CurrentWorkerIndex() const;

  const size_t backlog_per_worker_;
  std::function<double()> clock_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  /// Submitters hold shared, Shutdown holds unique while flipping the
  /// flag — so "Submit returns false" and "the task will be drained" are
  /// mutually exclusive with no in-between window (the old ThreadPool
  /// dropped tasks submitted during its drain).
  SharedMutex gate_{LockRank::kSchedulerGate, "sched.gate"};
  std::atomic<bool> shutting_down_{false};
  /// Tasks enqueued anywhere, not yet dequeued. Parking and drain gate on
  /// this, so enqueue/dequeue keep it exactly consistent.
  std::atomic<int64_t> ready_count_{0};

  mutable Mutex inject_mu_{LockRank::kSchedulerInject, "sched.inject"};
  std::deque<Task*> inject_ GUARDED_BY(inject_mu_);

  Mutex park_mu_{LockRank::kSchedulerPark, "sched.park"};
  std::condition_variable_any park_cv_;
  std::atomic<int> parked_{0};

  Mutex backlog_mu_{LockRank::kSchedulerBacklog, "sched.backlog"};
  double backlog_since_ GUARDED_BY(backlog_mu_) = -1.0;

  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};

  EventJournal* journal_ = nullptr;
  Counter* steals_total_ = nullptr;
  Counter* parks_total_ = nullptr;
  Counter* submitted_total_ = nullptr;
  Counter* executed_total_ = nullptr;
  Counter* rejected_total_ = nullptr;
  Gauge* pending_gauge_ = nullptr;
  Histogram* wait_seconds_ = nullptr;
};

/// A batch of tasks with optional dependency edges, waited on as a unit.
/// The waiting caller *helps*: instead of sleeping it executes tasks —
/// its own group's refused/inline tasks first, then anything runnable in
/// the scheduler — so a caller blocked in Wait can never deadlock the
/// substrate, and Wait() makes progress even when every worker is busy or
/// the scheduler has shut down. Reentrant: a task may itself create a
/// TaskGroup and Wait on it.
///
/// Usage (graph):
///   TaskGroup group(&scheduler);
///   auto a = group.Defer(fa); auto b = group.Defer(fb);
///   auto d = group.Defer(fd);
///   group.DependsOn(d, a); group.DependsOn(d, b);
///   group.Launch();
///   group.Wait();
/// Usage (flat): group.Run(fn) any number of times, then Wait().
class TaskGroup {
 public:
  using TaskId = int;

  /// A null scheduler degrades gracefully: every task lands on the inline
  /// list and Wait() runs them on the caller in dependency order (queued,
  /// not recursed — a 100k-node chain cannot overflow the stack).
  explicit TaskGroup(TaskScheduler* scheduler);

  /// Waits for all tasks; never throws.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Creates a dependency-counted node (not yet runnable). Only valid
  /// before Launch().
  TaskId Defer(std::function<void()> fn, const std::string& label = "");

  /// Declares that `task` runs only after `prerequisite` finished. Only
  /// valid before Launch().
  void DependsOn(TaskId task, TaskId prerequisite);

  /// Freezes the graph and enqueues every task with no pending
  /// prerequisites. Call at most once.
  void Launch();

  /// Submits one independent task (usable before or after Launch, and for
  /// plain fan-out without Defer/Launch).
  void Run(std::function<void()> fn, const std::string& label = "")
      EXCLUDES(done_mu_);

  /// Blocks until every task in the group has finished, executing tasks
  /// (help) instead of sleeping whenever any are runnable. Reentrant.
  /// Never call Wait (or ParallelFor) while holding ANY ranked mutex: the
  /// caller helps by executing arbitrary unrelated tasks, which may
  /// acquire any rank in the table — the lock-rank registry turns such a
  /// call into a deterministic abort instead of a latent deadlock.
  void Wait() EXCLUDES(done_mu_);

  /// Tasks not yet finished (telemetry/tests).
  int64_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

 private:
  friend class TaskScheduler;
  using Task = sched_internal::Task;

  /// Called by the scheduler (or inline execution) when one task finishes.
  void OnTaskFinished() EXCLUDES(done_mu_);
  /// Fallback for tasks the scheduler refused (shutdown) — the waiter runs
  /// them inline, preserving the no-work-lost guarantee.
  void PushInline(Task* task) EXCLUDES(done_mu_);
  Task* PopInline() EXCLUDES(done_mu_);
  /// Routes a ready task to the scheduler or the inline list.
  void Dispatch(Task* task);
  /// Runs a task on the caller without a scheduler (null-scheduler groups).
  void ExecuteInline(Task* task);

  TaskScheduler* scheduler_;
  /// Not GUARDED_BY(done_mu_): Defer/DependsOn/Launch run in the owner's
  /// single-threaded setup phase by contract (asserted via launched_);
  /// after Launch only Run appends, and it does lock done_mu_ because it
  /// may race the scheduler's Execute reading task pointers.
  std::vector<std::unique_ptr<Task>> tasks_;
  bool launched_ = false;
  std::atomic<int64_t> outstanding_{0};
  Mutex done_mu_{LockRank::kTaskGroup, "sched.group"};
  std::condition_variable_any done_cv_;
  std::deque<Task*> inline_ready_ GUARDED_BY(done_mu_);
};

/// Runs `fn(0) .. fn(n-1)` across the scheduler, blocking until every index
/// has finished — a thin shim over a TaskGroup. Indices are claimed from a
/// shared atomic counter by up to worker_count helper tasks plus the calling
/// thread, so the call makes progress (degrading to serial on the caller)
/// even when every worker is busy or the scheduler has shut down — it can
/// never deadlock on itself. A null scheduler runs everything inline.
///
/// `fn` is invoked concurrently and must be thread-safe; writes keyed by
/// index keep results deterministic (bit-identical to a serial run)
/// regardless of scheduling.
void ParallelFor(TaskScheduler* scheduler, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace ires

#endif  // IRES_THREADING_TASK_SCHEDULER_H_
