// Tests for the rank-checked mutex wrappers (common/mutex.h): the runtime
// lock-order registry (inversion / recursive / upgrade death tests, the
// blessed cross-subsystem chain), condition-variable integration, and
// regression coverage for the concurrency bugs the thread-safety sweep
// fixed (operator-library move assignment, pooled provisioner advise,
// logger sink swaps, REST workflow-store races).

#include "common/mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/rest_api.h"
#include "engines/standard_engines.h"
#include "operators/operator_library.h"
#include "provisioning/resource_provisioner.h"

namespace ires {
namespace {

using lock_rank::DescribeHeld;
using lock_rank::HeldCount;
using lock_rank::ScopedChecksForTest;

TEST(LockRankRegistryTest, TracksHeldLocks) {
  ScopedChecksForTest checks(true);
  Mutex low(LockRank::kJobService, "test.low");
  Mutex high(LockRank::kEngineRegistry, "test.high");
  EXPECT_EQ(HeldCount(), 0);
  {
    MutexLock a(low);
    EXPECT_EQ(HeldCount(), 1);
    MutexLock b(high);
    EXPECT_EQ(HeldCount(), 2);
    const std::string held = DescribeHeld();
    EXPECT_NE(held.find("test.low"), std::string::npos) << held;
    EXPECT_NE(held.find("test.high"), std::string::npos) << held;
  }
  EXPECT_EQ(HeldCount(), 0);
}

TEST(LockRankRegistryTest, RankInversionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedChecksForTest checks(true);
        Mutex high(LockRank::kEngineRegistry, "test.high");
        Mutex low(LockRank::kPlanCache, "test.low");
        MutexLock a(high);
        MutexLock b(low);  // 550 then 300: inversion
      },
      "lock-rank violation");
}

TEST(LockRankRegistryTest, RecursiveAcquireAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedChecksForTest checks(true);
        Mutex mu(LockRank::kPlanCache, "test.recursive");
        mu.Lock();
        mu.Lock();  // same instance, same thread
      },
      "recursive acquire");
}

TEST(LockRankRegistryTest, SharedToExclusiveUpgradeAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedChecksForTest checks(true);
        SharedMutex mu(LockRank::kOperatorLibrary, "test.upgrade");
        mu.LockShared();
        mu.Lock();  // reader hold upgraded in place
      },
      "upgrade");
}

TEST(LockRankRegistryTest, EqualRankNestingAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedChecksForTest checks(true);
        Mutex a(LockRank::kEventJournalShard, "test.shard_a");
        Mutex b(LockRank::kEventJournalShard, "test.shard_b");
        MutexLock la(a);
        MutexLock lb(b);  // equal ranks may never nest
      },
      "lock-rank violation");
}

TEST(LockRankRegistryTest, EqualRankSequentialIsAllowed) {
  ScopedChecksForTest checks(true);
  Mutex a(LockRank::kEventJournalShard, "test.shard_a");
  Mutex b(LockRank::kEventJournalShard, "test.shard_b");
  { MutexLock la(a); }
  { MutexLock lb(b); }  // one shard at a time, like the journal
  EXPECT_EQ(HeldCount(), 0);
}

TEST(LockRankRegistryTest, TryLockParticipatesInOrdering) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedChecksForTest checks(true);
        Mutex high(LockRank::kMetricsRegistry, "test.high");
        Mutex low(LockRank::kJobService, "test.low");
        MutexLock a(high);
        (void)low.TryLock();  // cannot deadlock, still rot
      },
      "lock-rank violation");
}

TEST(LockRankRegistryTest, TryLockInOrderSucceeds) {
  ScopedChecksForTest checks(true);
  Mutex low(LockRank::kJobService, "test.low");
  Mutex high(LockRank::kMetricsRegistry, "test.high");
  MutexLock a(low);
  ASSERT_TRUE(high.TryLock());
  EXPECT_EQ(HeldCount(), 2);
  high.Unlock();
}

TEST(LockRankRegistryTest, DisabledChecksEnforceNothing) {
  ScopedChecksForTest checks(false);
  Mutex high(LockRank::kEngineRegistry, "test.high");
  Mutex low(LockRank::kPlanCache, "test.low");
  MutexLock a(high);
  MutexLock b(low);  // inversion, but checking is off
  EXPECT_EQ(HeldCount(), 0);  // bookkeeping only runs while enabled
}

/// The serving stack's blessed chain: job bookkeeping -> plan cache ->
/// engine registry. Nesting in rank order passes; the reverse aborts with
/// both lock sets in the message.
TEST(LockRankRegistryTest, BlessedCrossSubsystemChainPasses) {
  ScopedChecksForTest checks(true);
  Mutex jobs(LockRank::kJobService, "jobs.service");
  Mutex plans(LockRank::kPlanCache, "planner.plan_cache");
  Mutex engines(LockRank::kEngineRegistry, "engines.health");
  MutexLock a(jobs);
  MutexLock b(plans);
  MutexLock c(engines);
  EXPECT_EQ(HeldCount(), 3);
}

TEST(LockRankRegistryTest, ReversedCrossSubsystemChainAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedChecksForTest checks(true);
        Mutex jobs(LockRank::kJobService, "jobs.service");
        Mutex engines(LockRank::kEngineRegistry, "engines.health");
        MutexLock c(engines);
        MutexLock a(jobs);
      },
      "lock-rank violation");
}

TEST(LockRankRegistryTest, ViolationMessageNamesBothLockSets) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedChecksForTest checks(true);
        Mutex jobs(LockRank::kJobService, "jobs.service");
        Mutex engines(LockRank::kEngineRegistry, "engines.health");
        // Bless the jobs -> engines edge so the violation can cite the
        // witness thread's lock set for the opposite direction.
        {
          MutexLock a(jobs);
          MutexLock b(engines);
        }
        MutexLock c(engines);
        MutexLock d(jobs);
      },
      "engines.health");
}

TEST(MutexTest, ConditionVariableWaitKeepsBookkeeping) {
  ScopedChecksForTest checks(true);
  Mutex mu(LockRank::kJobService, "test.cv");
  std::condition_variable_any cv;
  bool ready = false;

  std::thread notifier([&] {
    ScopedChecksForTest thread_checks(true);
    MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });

  {
    MutexLock lock(mu);
    // The wait releases mu (bookkeeping drops to 0 for this thread) and
    // reacquires it before returning.
    cv.wait(mu, [&] { return ready; });
    EXPECT_EQ(HeldCount(), 1);
  }
  EXPECT_EQ(HeldCount(), 0);
  notifier.join();
}

/// TSan target: hammer the blessed order from many threads. Any missed
/// synchronization in the wrappers or registry shows up as a race; any
/// ordering slip aborts.
TEST(MutexTest, BlessedOrderStressIsClean) {
  ScopedChecksForTest checks(true);
  Mutex low(LockRank::kJobService, "stress.low");
  Mutex high(LockRank::kMetricsRegistry, "stress.high");
  SharedMutex shared(LockRank::kOperatorLibrary, "stress.shared");
  int guarded = 0;
  std::atomic<int> reads{0};

  constexpr int kThreads = 8;
  constexpr int kIterations = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedChecksForTest thread_checks(true);
      for (int i = 0; i < kIterations; ++i) {
        if ((t + i) % 3 == 0) {
          ReaderLock r(shared);
          reads.fetch_add(1, std::memory_order_relaxed);
        } else {
          MutexLock a(low);
          MutexLock b(high);
          ++guarded;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(HeldCount(), 0);
  int expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kIterations; ++i) {
      if ((t + i) % 3 != 0) ++expected;
    }
  }
  MutexLock a(low);
  EXPECT_EQ(guarded, expected);
}

// ------------------------------------------------- sweep regression tests

/// Move assignment used to scoped_lock both libraries' same-rank locks at
/// once — an equal-rank double acquire (and a latent ABBA deadlock). It now
/// drains the source and installs under each lock in turn.
TEST(SweepRegressionTest, OperatorLibraryMoveAssignUnderRankChecks) {
  ScopedChecksForTest checks(true);
  OperatorLibrary source;
  MetadataTree meta;
  meta.Set("Constraints.Engine", "Spark");
  meta.Set("Constraints.OpSpecification.Algorithm.name", "LineCount");
  ASSERT_TRUE(
      source.AddMaterialized(MaterializedOperator("LC_Spark", std::move(meta)))
          .ok());

  OperatorLibrary destination;
  destination = std::move(source);
  EXPECT_EQ(destination.materialized_count(), 1u);
  EXPECT_NE(destination.FindMaterializedByName("LC_Spark"), nullptr);
  EXPECT_EQ(HeldCount(), 0);
}

/// Advise used to hold the provisioner mutex across the pooled GA run —
/// a ranked lock held while waiting on scheduler tasks. The GA now runs
/// serially with no lock held, and the front memo takes its lock only for
/// one lookup and one insert. With the registry live, concurrent Advise
/// calls on overlapping keys must pass cleanly and agree on every answer.
TEST(SweepRegressionTest, ProvisionerMemoAdviseUnderRankChecks) {
  ScopedChecksForTest checks(true);
  std::unique_ptr<EngineRegistry> registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");
  ASSERT_NE(spark, nullptr);

  NsgaResourceProvisioner::Limits limits;
  Nsga2::Options ga;
  ga.population = 12;
  ga.generations = 6;
  NsgaResourceProvisioner provisioner(limits, ga);

  constexpr int kThreads = 3;
  constexpr int kKeys = 4;
  auto request_for = [&](int k) {
    OperatorRunRequest request;
    request.algorithm = "TF_IDF";
    request.input_bytes = 1e9 * (k + 1);
    request.input_records = 1e6;
    request.resources = spark->default_resources();
    return request;
  };
  std::vector<std::vector<Resources>> advised(kThreads,
                                              std::vector<Resources>(kKeys));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedChecksForTest thread_checks(true);
      for (int i = 0; i < 2 * kKeys; ++i) {
        const int k = (i + t) % kKeys;  // overlapping, staggered keys
        advised[t][k] = provisioner.Advise(*spark, request_for(k),
                                           OptimizationPolicy::MinimizeTime());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_FALSE(provisioner.Front(*spark, request_for(k))->empty());
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(advised[t][k].ToString(), advised[0][k].ToString());
    }
  }
  EXPECT_EQ(HeldCount(), 0);
}

/// Logger sink swaps race logging from worker threads; both paths now go
/// through the ranked sink mutex, so every captured line arrives complete.
TEST(SweepRegressionTest, LoggerSinkSwapConcurrentWithLogging) {
  ScopedChecksForTest checks(true);
  std::atomic<int> captured{0};
  std::atomic<bool> stop{false};

  std::thread logger([&] {
    ScopedChecksForTest thread_checks(true);
    while (!stop.load(std::memory_order_acquire)) {
      Logger::Log(LogLevel::kError, "sink swap race probe");
    }
  });
  for (int i = 0; i < 200; ++i) {
    Logger::SetSink([&captured](LogLevel, const std::string& line) {
      EXPECT_NE(line.find("sink swap race probe"), std::string::npos);
      captured.fetch_add(1, std::memory_order_relaxed);
    });
    Logger::SetSink(nullptr);
  }
  stop.store(true, std::memory_order_release);
  logger.join();
  Logger::SetSink(nullptr);
  SUCCEED();  // completion without a race/abort is the assertion
}

/// The REST workflow store is the outermost lock of the stack: concurrent
/// stores, lists and executes must interleave cleanly with the rank
/// registry enabled (the execute path takes service locks downstream).
TEST(SweepRegressionTest, RestApiWorkflowRoutesConcurrent) {
  ScopedChecksForTest checks(true);
  IresServer server;
  RestApi api(&server);
  ASSERT_EQ(api.Handle("POST", "/apiv1/datasets/asapServerLog",
                       "Constraints.Engine.FS=HDFS\n"
                       "Execution.path=hdfs:///log\n"
                       "Optimization.size=5e8\n"
                       "Optimization.documents=1000\n")
                .code,
            201);
  ASSERT_EQ(api.Handle("POST", "/apiv1/abstractOperators/LineCount",
                       "Constraints.OpSpecification.Algorithm.name="
                       "LineCount\n")
                .code,
            201);
  ASSERT_EQ(api.Handle("POST", "/apiv1/operators/LineCount_Spark",
                       "Constraints.Engine=Spark\n"
                       "Constraints.OpSpecification.Algorithm.name="
                       "LineCount\n"
                       "Constraints.Input0.Engine.FS=HDFS\n"
                       "Constraints.Output0.Engine.FS=HDFS\n")
                .code,
            201);
  const std::string graph =
      "asapServerLog,LineCount,0\n"
      "LineCount,d1,0\n"
      "d1,$$target\n";

  constexpr int kWriters = 4;
  std::atomic<int> stored{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      ScopedChecksForTest thread_checks(true);
      const std::string name = "wf" + std::to_string(t);
      if (api.Handle("POST", "/apiv1/workflows/" + name, graph).code == 201) {
        stored.fetch_add(1, std::memory_order_relaxed);
      }
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(api.Handle("GET", "/apiv1/workflows").code, 200);
      }
      EXPECT_EQ(
          api.Handle("POST", "/apiv1/workflows/" + name + "/materialize")
              .code,
          200);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(stored.load(), kWriters);
  const ApiResponse list = api.Handle("GET", "/apiv1/workflows");
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_NE(list.body.find("wf" + std::to_string(t)), std::string::npos);
  }
}

}  // namespace
}  // namespace ires
