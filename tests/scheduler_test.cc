// TaskScheduler suite — the shared work-stealing execution substrate. CI
// runs this binary under ThreadSanitizer: the Chase-Lev deques, the parking
// protocol and the TaskGroup wait path are exactly the kind of code whose
// bugs only surface as races. Covers: an 8-worker steal storm, dependency
// ordering (diamond + a 4000-node chain), help-while-wait reentrancy,
// deterministic shutdown with pending tasks, the fake-clock backlog timer,
// and bit-identity of ParallelFor-backed ParetoPlanner results against its
// serial path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "planner/pareto_planner.h"
#include "telemetry/event_journal.h"
#include "telemetry/metrics_registry.h"
#include "threading/task_scheduler.h"
#include "workloadgen/pegasus.h"

namespace ires {
namespace {

// ----------------------------------------------------------- steal storm

// Recursive binary fan-out driven entirely from worker threads: every task
// spawns two children onto its own worker's deque, so the only way the
// other workers get work is by stealing. The whole storm runs inside one
// submitted driver task (spawns from external threads would route through
// the injection queue, which workers drain without stealing), and the main
// thread waits on a future instead of helping for the same reason. Leaves
// burn a few microseconds each so the storm outlives worker wake-up
// latency and thieves get a real window.
TEST(TaskSchedulerTest, StealStormRunsEveryLeafExactlyOnce) {
  MetricsRegistry metrics;
  TaskScheduler scheduler(8, &metrics);
  std::atomic<int> leaves{0};
  std::atomic<uint64_t> sink{0};
  std::promise<void> storm_done;

  ASSERT_TRUE(scheduler.Submit([&] {
    TaskGroup group(&scheduler);
    std::function<void(int)> spawn = [&](int depth) {
      if (depth == 0) {
        uint64_t acc = 1469598103934665603ull;
        for (int i = 0; i < 2000; ++i) acc = (acc ^ i) * 1099511628211ull;
        sink.fetch_add(acc, std::memory_order_relaxed);
        leaves.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      group.Run([&spawn, depth] { spawn(depth - 1); });
      group.Run([&spawn, depth] { spawn(depth - 1); });
    };
    spawn(12);
    group.Wait();  // nested wait on a worker: helps from its own deque
    storm_done.set_value();
  }));
  storm_done.get_future().wait();

  EXPECT_EQ(leaves.load(), 1 << 12);
  const TaskScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.rejected, 0u);
  // 8190 tree tasks across 8 workers, all pushed onto the spawners' own
  // deques: the storm cannot complete without steals migrating the work.
  EXPECT_GT(stats.steals, 0u);
}

// --------------------------------------------------------- dependency DAG

TEST(TaskSchedulerTest, DiamondDependenciesRunInTopologicalOrder) {
  TaskScheduler scheduler(4);
  TaskGroup group(&scheduler);
  std::atomic<int> stage{0};
  std::atomic<bool> order_ok{true};

  const TaskGroup::TaskId a = group.Defer([&] {
    if (stage.fetch_add(1) != 0) order_ok = false;
  });
  const TaskGroup::TaskId b = group.Defer([&] {
    const int s = stage.fetch_add(1);
    if (s != 1 && s != 2) order_ok = false;
  });
  const TaskGroup::TaskId c = group.Defer([&] {
    const int s = stage.fetch_add(1);
    if (s != 1 && s != 2) order_ok = false;
  });
  const TaskGroup::TaskId d = group.Defer([&] {
    if (stage.fetch_add(1) != 3) order_ok = false;
  });
  group.DependsOn(b, a);
  group.DependsOn(c, a);
  group.DependsOn(d, b);
  group.DependsOn(d, c);
  group.Launch();
  group.Wait();

  EXPECT_EQ(stage.load(), 4);
  EXPECT_TRUE(order_ok.load());
}

// A 4000-node chain has exactly one runnable task at any moment; it must
// complete in order without unbounded stack growth (successor dispatch is
// queued, never recursed) — on the scheduler and on the inline fallback.
void RunChain(TaskScheduler* scheduler) {
  constexpr int kNodes = 4000;
  TaskGroup group(scheduler);
  std::atomic<int> next_expected{0};
  std::atomic<bool> order_ok{true};
  std::vector<TaskGroup::TaskId> ids;
  ids.reserve(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    ids.push_back(group.Defer([&next_expected, &order_ok, i] {
      if (next_expected.fetch_add(1) != i) order_ok = false;
    }));
    if (i > 0) group.DependsOn(ids[i], ids[i - 1]);
  }
  group.Launch();
  group.Wait();
  EXPECT_EQ(next_expected.load(), kNodes);
  EXPECT_TRUE(order_ok.load());
}

TEST(TaskSchedulerTest, FourThousandNodeChainRunsInOrder) {
  TaskScheduler scheduler(8);
  RunChain(&scheduler);
}

TEST(TaskSchedulerTest, FourThousandNodeChainRunsInlineWithoutScheduler) {
  RunChain(nullptr);
}

// ------------------------------------------------------- help-while-wait

// With the single worker wedged on a latch, a Wait() from the external
// thread must help-execute the group's tasks itself instead of sleeping —
// caller-blocks would deadlock here.
TEST(TaskSchedulerTest, ExternalWaiterHelpsWhenWorkersAreBusy) {
  TaskScheduler scheduler(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_TRUE(scheduler.Submit([released] { released.wait(); }));
  // Let the worker pick the blocker up before queueing group work: a helper
  // runs whatever it acquires, so if the blocker were still queued the
  // waiting thread could wedge itself on it instead.
  while (scheduler.pending() != 0) std::this_thread::yield();

  std::atomic<int> ran{0};
  TaskGroup group(&scheduler);
  for (int i = 0; i < 64; ++i) {
    group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();  // must not block on the wedged worker
  EXPECT_EQ(ran.load(), 64);
  release.set_value();
}

// A task that itself creates a group and waits on it (nested wait on a
// worker thread) must help-execute too; with one worker this would
// otherwise self-deadlock.
TEST(TaskSchedulerTest, NestedWaitInsideWorkerTaskCompletes) {
  TaskScheduler scheduler(1);
  std::atomic<int> inner_ran{0};
  TaskGroup outer(&scheduler);
  outer.Run([&] {
    TaskGroup inner(&scheduler);
    for (int i = 0; i < 16; ++i) {
      inner.Run([&inner_ran] { inner_ran.fetch_add(1); });
    }
    inner.Wait();
  });
  outer.Wait();
  EXPECT_EQ(inner_ran.load(), 16);
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

// ------------------------------------------------ ParallelFor bit-identity

TEST(TaskSchedulerTest, ParallelForMatchesSerialLoopBitForBit) {
  TaskScheduler scheduler(8);
  constexpr size_t kN = 10000;
  std::vector<double> serial(kN), parallel(kN);
  const auto body = [](size_t i) {
    double x = static_cast<double>(i) * 1.000000059604644775390625;
    for (int r = 0; r < 8; ++r) x = x * 0.75 + static_cast<double>(i % 7);
    return x;
  };
  for (size_t i = 0; i < kN; ++i) serial[i] = body(i);
  ParallelFor(&scheduler, kN, [&](size_t i) { parallel[i] = body(i); });
  EXPECT_EQ(serial, parallel);
}

// ParetoPlanner's parallel phase stages per-candidate results and merges in
// candidate order, so the frontier must match the serial planner exactly.
TEST(TaskSchedulerTest, ParetoPlannerParallelFrontierIsBitIdentical) {
  PegasusGenerator gen(7);
  GeneratedWorkload w = gen.Generate(PegasusType::kEpigenomics, 16, 4);
  EngineRegistry registry;
  PegasusGenerator::RegisterSyntheticEngines(&registry, 4);
  TaskScheduler scheduler(4);

  ParetoPlanner planner(&w.library, &registry);
  ParetoPlanner::Options serial;
  ParetoPlanner::Options parallel;
  parallel.scheduler = &scheduler;

  auto serial_frontier = planner.PlanFrontier(w.graph, serial);
  auto parallel_frontier = planner.PlanFrontier(w.graph, parallel);
  ASSERT_TRUE(serial_frontier.ok()) << serial_frontier.status();
  ASSERT_TRUE(parallel_frontier.ok()) << parallel_frontier.status();
  ASSERT_EQ(serial_frontier.value().size(), parallel_frontier.value().size());
  for (size_t i = 0; i < serial_frontier.value().size(); ++i) {
    const auto& s = serial_frontier.value()[i];
    const auto& p = parallel_frontier.value()[i];
    EXPECT_EQ(s.seconds, p.seconds);
    EXPECT_EQ(s.cost, p.cost);
    ASSERT_EQ(s.plan.steps.size(), p.plan.steps.size());
    for (size_t j = 0; j < s.plan.steps.size(); ++j) {
      EXPECT_EQ(s.plan.steps[j].name, p.plan.steps[j].name);
      EXPECT_EQ(s.plan.steps[j].engine, p.plan.steps[j].engine);
      EXPECT_EQ(s.plan.steps[j].estimated_seconds,
                p.plan.steps[j].estimated_seconds);
    }
  }
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
