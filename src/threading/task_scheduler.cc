#include "threading/task_scheduler.h"

#include <algorithm>
#include <chrono>

namespace ires {

namespace {

// Worker-thread identity: which scheduler (if any) owns the current thread,
// and its worker index there. Lets Enqueue push a task submitted from inside
// a task straight onto the local deque. Workers of *another* scheduler
// instance resolve to "external" for this one.
thread_local TaskScheduler* tls_scheduler = nullptr;
thread_local int tls_worker = -1;

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

namespace sched_internal {

// ---------------------------------------------------------------- WorkDeque
//
// Memory-order notes: this is the Chase–Lev deque with the fence-free
// formulation (seq_cst on the bottom-store/top-load pair in Pop and on the
// top/bottom loads in Steal) instead of standalone
// std::atomic_thread_fence — equivalent ordering, but ThreadSanitizer
// models operations on atomics precisely while it ignores free fences, so
// this version is provably clean under the CI tsan job.

WorkDeque::Ring::Ring(size_t cap)
    : capacity(cap), mask(cap - 1),
      slots(std::make_unique<std::atomic<Task*>[]>(cap)) {}

WorkDeque::WorkDeque(size_t initial_capacity) {
  auto ring = std::make_unique<Ring>(
      RoundUpPow2(std::max<size_t>(initial_capacity, 8)));
  ring_.store(ring.get(), std::memory_order_relaxed);
  retired_.push_back(std::move(ring));
}

WorkDeque::~WorkDeque() = default;

WorkDeque::Ring* WorkDeque::Grow(Ring* ring, int64_t top, int64_t bottom) {
  auto grown = std::make_unique<Ring>(ring->capacity * 2);
  for (int64_t i = top; i < bottom; ++i) grown->Put(i, ring->Get(i));
  Ring* raw = grown.get();
  // Publish before the slot at `bottom` is written; thieves that still read
  // the old ring see identical values at every live index, so a stale ring
  // pointer is harmless (and the old ring stays allocated in retired_).
  ring_.store(raw, std::memory_order_release);
  retired_.push_back(std::move(grown));
  return raw;
}

void WorkDeque::Push(Task* task) {
  const int64_t b = bottom_.load(std::memory_order_relaxed);
  const int64_t t = top_.load(std::memory_order_acquire);
  Ring* ring = ring_.load(std::memory_order_relaxed);
  if (b - t >= static_cast<int64_t>(ring->capacity) - 1) {
    ring = Grow(ring, t, b);
  }
  ring->Put(b, task);
  // Release: a thief that observes bottom > its top also observes the slot.
  bottom_.store(b + 1, std::memory_order_release);
}

Task* WorkDeque::Pop() {
  const int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Ring* ring = ring_.load(std::memory_order_relaxed);
  // seq_cst store/load pair: the bottom decrement must be globally visible
  // before we read top, or a concurrent Steal of the same last element
  // could also succeed (both taking the task).
  bottom_.store(b, std::memory_order_seq_cst);
  int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Deque was empty; restore.
    bottom_.store(b + 1, std::memory_order_relaxed);
    return nullptr;
  }
  Task* task = ring->Get(b);
  if (t == b) {
    // Single element left: race the thieves for it via CAS on top.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      task = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return task;
}

Task* WorkDeque::Steal() {
  int64_t t = top_.load(std::memory_order_seq_cst);
  const int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Ring* ring = ring_.load(std::memory_order_acquire);
  Task* task = ring->Get(t);
  // The CAS claims index t; on failure another thief (or the owner's Pop of
  // the last element) got it first.
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;
  }
  return task;
}

}  // namespace sched_internal

// ------------------------------------------------------------ TaskScheduler

TaskScheduler::TaskScheduler(int workers, MetricsRegistry* metrics)
    : TaskScheduler([&] {
        Options options;
        options.workers = workers;
        options.metrics = metrics;
        return options;
      }()) {}

TaskScheduler::TaskScheduler(Options options)
    : backlog_per_worker_(std::max<size_t>(options.backlog_per_worker, 1)),
      clock_(std::move(options.clock)),
      journal_(options.journal) {
  int workers = options.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 4;
  }
  if (options.metrics != nullptr) {
    MetricsRegistry& m = *options.metrics;
    steals_total_ = m.GetCounter("ires_sched_steals_total",
                                 "Successful work-steals between workers");
    parks_total_ = m.GetCounter("ires_sched_parks_total",
                                "Worker park (sleep) transitions");
    submitted_total_ =
        m.GetCounter("ires_sched_tasks_total", "Scheduler task lifecycle",
                     {{"event", "submitted"}});
    executed_total_ =
        m.GetCounter("ires_sched_tasks_total", "Scheduler task lifecycle",
                     {{"event", "executed"}});
    rejected_total_ =
        m.GetCounter("ires_sched_tasks_total", "Scheduler task lifecycle",
                     {{"event", "rejected"}});
    pending_gauge_ = m.GetGauge("ires_sched_pending_tasks",
                                "Tasks enqueued and not yet running");
    wait_seconds_ = m.GetHistogram(
        "ires_sched_task_wait_seconds",
        "Queue wait from enqueue to a worker picking the task up");
  }
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    auto worker = std::make_unique<Worker>();
    if (options.metrics != nullptr) {
      worker->runs_total = options.metrics->GetCounter(
          "ires_sched_worker_runs_total", "Tasks executed, per worker",
          {{"worker", std::to_string(i)}});
    }
    workers_.push_back(std::move(worker));
  }
  threads_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() { Shutdown(); }

double TaskScheduler::ClockSeconds() const {
  return clock_ ? clock_() : SteadySeconds();
}

int TaskScheduler::CurrentWorkerIndex() const {
  return tls_scheduler == this ? tls_worker : -1;
}

bool TaskScheduler::Enqueue(Task* task) {
  // Shared lock vs. Shutdown's unique lock: once Shutdown returns, no
  // enqueue can still be in flight with the flag unseen, so "false" and
  // "will be drained" are exhaustive and exclusive outcomes.
  ReaderLock gate(gate_);
  if (shutting_down_.load(std::memory_order_relaxed)) return false;
  task->enqueued_at = ClockSeconds();
  ready_count_.fetch_add(1, std::memory_order_seq_cst);
  const int self = CurrentWorkerIndex();
  if (self >= 0) {
    workers_[self]->deque.Push(task);
  } else {
    MutexLock lock(inject_mu_);
    inject_.push_back(task);
  }
  if (pending_gauge_ != nullptr) pending_gauge_->Add(1.0);
  NotifyOne();
  return true;
}

void TaskScheduler::NotifyOne() {
  // seq_cst pairing with the parking protocol: the enqueuer's ready_count
  // increment and the parker's parked_ increment are both seq_cst, so either
  // the parker sees the new task on its re-check, or we see parked_ > 0 and
  // take the lock to wake it. No lost wakeup either way.
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    MutexLock lock(park_mu_);
    park_cv_.notify_one();
  }
}

TaskScheduler::Task* TaskScheduler::TryAcquire(int worker_index) {
  Task* task = workers_[worker_index]->deque.Pop();
  if (task == nullptr) {
    MutexLock lock(inject_mu_);
    if (!inject_.empty()) {
      task = inject_.front();
      inject_.pop_front();
    }
  }
  if (task == nullptr) {
    // Steal sweep: one full pass over the other workers starting from a
    // per-thread pseudo-random offset (xorshift), so thieves spread out.
    thread_local uint64_t steal_rng = 0x2545f4914f6cdd1dull;
    steal_rng ^= steal_rng << 13;
    steal_rng ^= steal_rng >> 7;
    steal_rng ^= steal_rng << 17;
    const size_t n = workers_.size();
    const size_t start = static_cast<size_t>(steal_rng % n);
    for (size_t i = 0; i < n && task == nullptr; ++i) {
      const size_t victim = (start + i) % n;
      if (static_cast<int>(victim) == worker_index) continue;
      task = workers_[victim]->deque.Steal();
    }
    if (task != nullptr) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      if (steals_total_ != nullptr) steals_total_->Increment();
    }
  }
  if (task != nullptr) {
    ready_count_.fetch_sub(1, std::memory_order_seq_cst);
    if (pending_gauge_ != nullptr) pending_gauge_->Add(-1.0);
  }
  return task;
}

void TaskScheduler::Execute(Task* task, int worker_index) {
  if (wait_seconds_ != nullptr) {
    const double wait = ClockSeconds() - task->enqueued_at;
    wait_seconds_->Observe(wait > 0.0 ? wait : 0.0);
  }
  const bool span = journal_ != nullptr && journal_->enabled() &&
                    !task->label.empty();
  const double started = span ? SteadySeconds() : 0.0;
  task->fn();
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (executed_total_ != nullptr) executed_total_->Increment();
  Worker& worker = *workers_[worker_index];
  worker.runs.fetch_add(1, std::memory_order_relaxed);
  if (worker.runs_total != nullptr) worker.runs_total->Increment();
  if (span) {
    JournalEvent event;
    event.kind = EventKind::kTaskSpan;
    event.value = SteadySeconds() - started;
    event.detail = task->label;
    journal_->Append(std::move(event));
  }
  delete task;
}

void TaskScheduler::WorkerLoop(int index) {
  tls_scheduler = this;
  tls_worker = index;
  for (;;) {
    Task* task = TryAcquire(index);
    if (task != nullptr) {
      Execute(task, index);
      continue;
    }
    if (shutting_down_.load(std::memory_order_acquire) &&
        ready_count_.load(std::memory_order_seq_cst) == 0) {
      break;
    }
    // Park. The seq_cst parked_ increment happens-before the ready_count
    // re-check; see NotifyOne for the pairing. The timed wait is
    // belt-and-suspenders against any missed signal (worst case: one 50ms
    // hiccup, not a hang). condition_variable_any waits directly on the
    // ires::Mutex, so the rank registry tracks the release/reacquire
    // inside wait_for.
    MutexLock lock(park_mu_);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    if (ready_count_.load(std::memory_order_seq_cst) == 0 &&
        !shutting_down_.load(std::memory_order_acquire)) {
      parks_.fetch_add(1, std::memory_order_relaxed);
      if (parks_total_ != nullptr) parks_total_->Increment();
      park_cv_.wait_for(park_mu_, std::chrono::milliseconds(50));
    }
    parked_.fetch_sub(1, std::memory_order_seq_cst);
  }
  tls_scheduler = nullptr;
  tls_worker = -1;
}

bool TaskScheduler::Submit(std::function<void()> fn,
                           const std::string& label) {
  Task* task = new Task();
  task->fn = std::move(fn);
  task->label = label;
  if (!Enqueue(task)) {
    delete task;
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    if (journal_ != nullptr) {
      JournalEvent event;
      event.kind = EventKind::kTaskRejected;
      event.code = "shutdown";
      event.detail = label;
      journal_->Append(std::move(event));
    }
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (submitted_total_ != nullptr) submitted_total_->Increment();
  return true;
}

void TaskScheduler::Shutdown() {
  {
    // A second caller sees exchange(true) return true but still waits for
    // the joins below (idempotent, and the destructor must not return
    // while threads run).
    WriterLock gate(gate_);
    shutting_down_.exchange(true);
  }
  {
    // Taken so a parker between its re-check and wait cannot miss the wake.
    MutexLock lock(park_mu_);
    park_cv_.notify_all();
  }
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

size_t TaskScheduler::pending() const {
  const int64_t n = ready_count_.load(std::memory_order_relaxed);
  return n > 0 ? static_cast<size_t>(n) : 0;
}

TaskScheduler::Stats TaskScheduler::stats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.parks = parks_.load(std::memory_order_relaxed);
  stats.worker_runs.reserve(workers_.size());
  for (const auto& worker : workers_) {
    stats.worker_runs.push_back(worker->runs.load(std::memory_order_relaxed));
  }
  return stats;
}

double TaskScheduler::BacklogSeconds() {
  const size_t depth = pending();
  const size_t threshold = workers_.size() * backlog_per_worker_;
  MutexLock lock(backlog_mu_);
  if (depth <= threshold) {
    backlog_since_ = -1.0;
    return 0.0;
  }
  const double now = ClockSeconds();
  if (backlog_since_ < 0.0) backlog_since_ = now;
  return now - backlog_since_;
}

}  // namespace ires
