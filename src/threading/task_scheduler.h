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

/// One submitted task. It owns itself: Execute deletes it after running.
struct Task {
  std::function<void()> fn;
  /// Non-empty labels get a flight-recorder task span on completion.
  std::string label;
  double enqueued_at = 0.0;  // steady seconds at enqueue time
};

}  // namespace sched_internal

/// The shared execution substrate of the serving stack: a work-stealing
/// task scheduler with one Chase–Lev deque per worker. Submit is the only
/// way in, and every task is detached: job execution (`job.run`) and
/// background model refits (`model.refit`) are its production callers. The
/// planners — Algorithm 1's DP, the Pareto DP, NSGA-II and MuSQLE's DPccp —
/// are serial searches and run on the calling thread.
///
/// Scheduling policy: a worker pops its own deque LIFO (locality), then
/// drains the external injection queue, then steals FIFO from a random
/// victim. Workers that find nothing park on a condition variable and are
/// woken by the next enqueue. External threads (REST handlers, tests,
/// benchmark clients) submit through a mutex-guarded injection queue; a
/// task submitted from a worker goes onto that worker's own deque.
///
/// A task holds its worker until it returns and no other thread ever runs
/// or waits on it, so a task that blocks (a job step simulating I/O) costs
/// exactly one worker of capacity. Open-ended waits belong on a dedicated
/// thread, not the scheduler.
///
/// Shutdown semantics: Shutdown() stops admission *deterministically* —
/// every Submit after it returns false and journals a `task_rejected`
/// event; tasks already queued are drained by the workers before they
/// join (nothing is silently dropped, fixing the old ThreadPool window
/// where Submit during the drain dropped tasks while workers still ran).
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
  using Task = sched_internal::Task;

  struct Worker {
    sched_internal::WorkDeque deque;
    std::atomic<uint64_t> runs{0};
    Counter* runs_total = nullptr;
  };

  void WorkerLoop(int index);
  /// Enqueues a task: own deque on a worker thread, injection queue
  /// otherwise. Returns false (task untouched) after Shutdown.
  bool Enqueue(Task* task) EXCLUDES(gate_, inject_mu_, park_mu_);
  /// Dequeues one task for worker `worker_index`: own pop → inject → steal.
  Task* TryAcquire(int worker_index) EXCLUDES(inject_mu_);
  /// Runs a task on worker `worker_index`, counts it and deletes it.
  void Execute(Task* task, int worker_index);
  void NotifyOne() EXCLUDES(park_mu_);
  double ClockSeconds() const;
  /// This thread's worker index in *this* scheduler, or -1 (an external
  /// thread — including workers of a different scheduler instance).
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

}  // namespace ires

#endif  // IRES_THREADING_TASK_SCHEDULER_H_
