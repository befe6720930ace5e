// TaskScheduler suite — the shared work-stealing execution substrate. CI
// runs this binary under ThreadSanitizer: the Chase-Lev deques and the
// parking protocol are exactly the kind of code whose bugs only surface as
// races. Covers: an 8-worker steal storm of detached tasks submitted from
// worker threads, deterministic shutdown with pending tasks, the
// fake-clock backlog timer and the per-task telemetry.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/event_journal.h"
#include "telemetry/metrics_registry.h"
#include "threading/task_scheduler.h"

namespace ires {
namespace {

// ----------------------------------------------------------- steal storm

// Recursive binary fan-out driven entirely from worker threads: every node
// submits its two children, which lands them on its own worker's deque, so
// the only way the other workers get work is by stealing. Only the root
// comes from the test thread (through the injection queue); the test thread
// then waits on a countdown over all nodes instead of taking part. Leaves
// burn a few microseconds each so the storm outlives worker wake-up latency
// and thieves get a real window.
TEST(TaskSchedulerTest, StealStormRunsEveryLeafExactlyOnce) {
  constexpr int kDepth = 12;
  constexpr int kNodes = (1 << (kDepth + 1)) - 1;  // 8191
  MetricsRegistry metrics;
  TaskScheduler scheduler(8, &metrics);
  std::atomic<int> leaves{0};
  std::atomic<int> remaining{kNodes};
  std::atomic<uint64_t> sink{0};
  std::promise<void> storm_done;

  std::function<void(int)> node = [&](int depth) {
    if (depth == 0) {
      uint64_t acc = 1469598103934665603ull;
      for (int i = 0; i < 2000; ++i) acc = (acc ^ i) * 1099511628211ull;
      sink.fetch_add(acc, std::memory_order_relaxed);
      leaves.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (int child = 0; child < 2; ++child) {
        EXPECT_TRUE(scheduler.Submit([&node, depth] { node(depth - 1); }));
      }
    }
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      storm_done.set_value();
    }
  };
  ASSERT_TRUE(scheduler.Submit([&node] { node(kDepth); }));
  storm_done.get_future().wait();
  // Join the workers before the locals the tasks reference go away.
  scheduler.Shutdown();

  EXPECT_EQ(leaves.load(), 1 << kDepth);
  const TaskScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kNodes));
  EXPECT_EQ(stats.executed, static_cast<uint64_t>(kNodes));
  EXPECT_EQ(stats.rejected, 0u);
  // 8190 child tasks across 8 workers, all pushed onto the submitters' own
  // deques: the storm cannot spread without steals migrating the work.
  EXPECT_GT(stats.steals, 0u);
}

// ----------------------------------------------------------------- shutdown

TEST(TaskSchedulerTest, ShutdownDrainsAcceptedTasksAndRejectsLater) {
  EventJournal journal;
  TaskScheduler::Options options;
  options.workers = 4;
  options.journal = &journal;
  TaskScheduler scheduler(std::move(options));

  std::atomic<int> ran{0};
  int accepted = 0;
  for (int i = 0; i < 500; ++i) {
    if (scheduler.Submit([&ran] { ran.fetch_add(1); })) ++accepted;
  }
  scheduler.Shutdown();

  // Every accepted task ran before the workers joined; nothing was dropped.
  EXPECT_EQ(ran.load(), accepted);
  EXPECT_EQ(scheduler.stats().executed, static_cast<uint64_t>(accepted));

  // Post-shutdown submission: deterministic false + a task_rejected event.
  EXPECT_FALSE(scheduler.Submit([&ran] { ran.fetch_add(1); }, "late.task"));
  EXPECT_EQ(ran.load(), accepted);
  EventJournal::Filter filter;
  filter.has_kind = true;
  filter.kind = EventKind::kTaskRejected;
  const std::vector<JournalEvent> rejected = journal.Query(filter);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].code, "shutdown");
  EXPECT_EQ(rejected[0].detail, "late.task");
}

// ------------------------------------------------------- backlog fake clock

TEST(TaskSchedulerTest, BacklogSecondsTracksSustainedDepthOnFakeClock) {
  std::atomic<double> now{100.0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();

  TaskScheduler::Options options;
  options.workers = 1;
  options.backlog_per_worker = 2;
  options.clock = [&now] { return now.load(); };
  TaskScheduler scheduler(std::move(options));

  ASSERT_TRUE(scheduler.Submit([released] { released.wait(); }));
  // Wait until the worker has picked the blocker up, so the queued tasks
  // below are pure backlog.
  while (scheduler.pending() != 0) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scheduler.Submit([released] { released.wait(); }));
  }
  ASSERT_GT(scheduler.pending(), 2u);  // above workers * backlog_per_worker

  EXPECT_EQ(scheduler.BacklogSeconds(), 0.0);  // arms the timer
  now.store(103.5);
  EXPECT_DOUBLE_EQ(scheduler.BacklogSeconds(), 3.5);

  release.set_value();
  while (scheduler.pending() != 0) std::this_thread::yield();
  EXPECT_EQ(scheduler.BacklogSeconds(), 0.0);  // drained => disarmed
}

// --------------------------------------------------------------- telemetry

TEST(TaskSchedulerTest, StatsAndMetricsAccountForEveryTask) {
  MetricsRegistry metrics;
  TaskScheduler scheduler(4, &metrics);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(scheduler.Submit([&ran] { ran.fetch_add(1); }));
  }
  scheduler.Shutdown();

  const TaskScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 200u);
  EXPECT_EQ(stats.executed, 200u);
  uint64_t runs = 0;
  for (uint64_t w : stats.worker_runs) runs += w;
  EXPECT_EQ(runs, 200u);

  const std::string text = metrics.RenderPrometheus();
  EXPECT_NE(text.find("ires_sched_tasks_total{event=\"executed\"} 200"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_sched_task_wait_seconds_count 200"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_sched_pending_tasks 0"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace ires
