// Tests of the observability layer: span recording and thread
// attribution, Chrome trace JSON structure, per-thread counter shards, and
// ExecutionProfile aggregation through the window executor.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mst/merge_sort_tree.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tests/window_test_util.h"
#include "window/executor.h"

namespace hwf {
namespace {

using test::MakeRandomTable;

/// Resets the global tracer around each test so the global singleton does
/// not leak spans across tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Get().Disable();
    obs::Tracer::Get().Clear();
  }
  void TearDown() override {
    obs::Tracer::Get().Disable();
    obs::Tracer::Get().Clear();
  }
};

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  { HWF_TRACE_SCOPE("test.should_not_appear"); }
  EXPECT_TRUE(obs::Tracer::Get().Snapshot().empty());
}

// The span-recording tests need the macros compiled in; with
// HWF_ENABLE_TRACING=OFF they would (correctly) observe nothing.
#if HWF_TRACING_ENABLED

TEST_F(ObsTest, SpansNestWithinTheirParent) {
  obs::Tracer::Get().Enable();
  {
    HWF_TRACE_SCOPE("test.outer");
    { HWF_TRACE_SCOPE_ARG("test.inner", "k", 42); }
  }
  obs::Tracer::Get().Disable();

  std::vector<obs::TraceEvent> events = obs::Tracer::Get().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "test.outer") outer = &e;
    if (std::string(e.name) == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Same thread, and the inner interval is contained in the outer one.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_GE(outer->start_ns + outer->dur_ns, inner->start_ns + inner->dur_ns);
  EXPECT_STREQ(inner->arg_name, "k");
  EXPECT_EQ(inner->arg_value, 42);
}

TEST_F(ObsTest, SpansAreAttributedToTheRecordingThread) {
  obs::Tracer::Get().Enable();
  { HWF_TRACE_SCOPE("test.main_thread"); }
  std::thread other([] { HWF_TRACE_SCOPE("test.other_thread"); });
  other.join();
  obs::Tracer::Get().Disable();

  std::vector<obs::TraceEvent> events = obs::Tracer::Get().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent* main_event = nullptr;
  const obs::TraceEvent* other_event = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "test.main_thread") main_event = &e;
    if (std::string(e.name) == "test.other_thread") other_event = &e;
  }
  ASSERT_NE(main_event, nullptr);
  ASSERT_NE(other_event, nullptr);
  EXPECT_NE(main_event->tid, other_event->tid);
}

TEST_F(ObsTest, ChromeTraceJsonHasRequiredStructure) {
  obs::Tracer::Get().Enable();
  {
    HWF_TRACE_SCOPE("test.alpha");
    { HWF_TRACE_SCOPE_ARG("test.beta", "n", 7); }
  }
  obs::Tracer::Get().Disable();

  const std::string json = obs::Tracer::Get().ToChromeTraceJson();
  // Top-level object with the trace_event container and time unit.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // Complete events carry name/cat/ph/ts/dur/pid/tid.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"hwf\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"n\": 7}"), std::string::npos);
  // Thread-name metadata events.
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Balanced braces/brackets (span names never contain either).
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

#endif  // HWF_TRACING_ENABLED

TEST_F(ObsTest, CountersAreAtomicUnderParallelFor) {
  ThreadPool pool(4);
  const obs::CounterSnapshot before = obs::SnapshotCounters();
  constexpr size_t kN = 100000;
  ParallelFor(
      0, kN,
      [](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          obs::Add(obs::Counter::kMstCascadeLookups);
        }
      },
      pool, /*min_morsel=*/128);
  const obs::CounterSnapshot delta =
      obs::SnapshotDelta(before, obs::SnapshotCounters());
  EXPECT_EQ(delta[obs::Counter::kMstCascadeLookups], kN);
  // The runner instrumentation itself is visible too.
  EXPECT_GT(delta[obs::Counter::kParallelForMorsels], 0u);
}

// ---------------------------------------------------------------------------
// Per-thread counter shards
// ---------------------------------------------------------------------------

TEST(CounterShards, ConcurrentAddsSumExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kAdds = 20000;
  const obs::CounterSnapshot before = obs::SnapshotCounters();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (uint64_t i = 0; i < kAdds; ++i) {
        obs::Add(obs::Counter::kMstCascadeLookups);
        obs::Add(obs::Counter::kMstMergeElementsMoved, 3);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const obs::CounterSnapshot delta =
      obs::SnapshotDelta(before, obs::SnapshotCounters());
  EXPECT_EQ(delta[obs::Counter::kMstCascadeLookups], kThreads * kAdds);
  EXPECT_EQ(delta[obs::Counter::kMstMergeElementsMoved], 3 * kThreads * kAdds);
}

TEST(CounterShards, ExitedThreadsCountsSurvive) {
  const uint64_t value_before = obs::Value(obs::Counter::kCacheInsertBytes);
  const obs::CounterSnapshot before = obs::SnapshotCounters();
  const size_t live_before = obs::LiveCounterShardsForTest();
  std::thread([] { obs::Add(obs::Counter::kCacheInsertBytes, 41); }).join();
  std::thread([] { obs::Add(obs::Counter::kCacheInsertBytes, 1); }).join();
  // Both threads are gone and their shards with them; the totals are not.
  EXPECT_EQ(obs::LiveCounterShardsForTest(), live_before);
  EXPECT_EQ(obs::Value(obs::Counter::kCacheInsertBytes) - value_before, 42u);
  EXPECT_EQ(obs::SnapshotDelta(before, obs::SnapshotCounters())
                [obs::Counter::kCacheInsertBytes],
            42u);
}

TEST(CounterShards, SnapshotsNeverDecreaseWhileThreadsComeAndGo) {
  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int round = 0; round < 200; ++round) {
      std::thread a([] { obs::Add(obs::Counter::kPoolIdleWakeups, 5); });
      std::thread b([] { obs::Add(obs::Counter::kPoolIdleWakeups, 7); });
      a.join();
      b.join();
    }
    done.store(true, std::memory_order_release);
  });
  uint64_t last = obs::SnapshotCounters()[obs::Counter::kPoolIdleWakeups];
  uint64_t last_value = obs::Value(obs::Counter::kPoolIdleWakeups);
  size_t decreases = 0;
  while (!done.load(std::memory_order_acquire)) {
    const uint64_t now =
        obs::SnapshotCounters()[obs::Counter::kPoolIdleWakeups];
    const uint64_t now_value = obs::Value(obs::Counter::kPoolIdleWakeups);
    decreases += now < last;
    decreases += now_value < last_value;
    last = now;
    last_value = now_value;
  }
  churn.join();
  EXPECT_EQ(decreases, 0u);
}

TEST(CounterShards, ResetClearsLiveAndRetiredShards) {
  // One thread exits (its counts are folded into the retired totals) and
  // one stays alive holding a live shard while the reset runs.
  std::thread([] { obs::Add(obs::Counter::kMemSpillBytesRead, 10); }).join();
  std::mutex mutex;
  std::condition_variable cv;
  bool added = false;
  bool reset = false;
  std::thread live([&] {
    obs::Add(obs::Counter::kMemSpillBytesRead, 20);
    std::unique_lock<std::mutex> lock(mutex);
    added = true;
    cv.notify_all();
    cv.wait(lock, [&] { return reset; });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return added; });
  }
  obs::Add(obs::Counter::kMemSpillBytesRead, 30);  // this thread's shard
  ASSERT_GE(obs::Value(obs::Counter::kMemSpillBytesRead), 60u);

  obs::ResetCountersForTest();
  EXPECT_EQ(obs::Value(obs::Counter::kMemSpillBytesRead), 0u);
  const obs::CounterSnapshot zero = obs::SnapshotCounters();
  for (size_t i = 0; i < obs::kNumCounters; ++i) EXPECT_EQ(zero.values[i], 0u);
  {
    std::lock_guard<std::mutex> lock(mutex);
    reset = true;
  }
  cv.notify_all();
  live.join();
  // The live thread's cleared shard folds in as zero.
  EXPECT_EQ(obs::Value(obs::Counter::kMemSpillBytesRead), 0u);
}

/// Counts one event when destroyed at thread exit.
struct AddOnThreadExit {
  ~AddOnThreadExit() { obs::Add(obs::Counter::kMemSpillFilesCreated); }
};

TEST(CounterShards, AddFromThreadLocalDestructorAfterRetirementCounts) {
  const uint64_t before = obs::Value(obs::Counter::kMemSpillFilesCreated);
  const size_t live_before = obs::LiveCounterShardsForTest();
  std::thread([] {
    // Constructed before the thread's first Add, so destroyed after the
    // counter shard has been folded at thread exit.
    static thread_local AddOnThreadExit late;
    (void)&late;
    obs::Add(obs::Counter::kMemSpillFilesCreated);
  }).join();
  EXPECT_EQ(obs::Value(obs::Counter::kMemSpillFilesCreated) - before, 2u);
  // The late Add went to the retired totals; it did not register a new
  // shard that no thread would ever fold.
  EXPECT_EQ(obs::LiveCounterShardsForTest(), live_before);
}

TEST_F(ObsTest, ExecutorProfilePhasesSumWithinWallTime) {
  // Serial pool: partitions evaluate one after another, so the disjoint
  // phase intervals must nest within the executor's wall time. (With
  // parallel partitions the per-partition phases sum CPU-style and may
  // legitimately exceed the wall total.)
  ThreadPool serial(0);
  Table table = MakeRandomTable(4000, 17);
  WindowSpec spec;
  spec.order_by = {SortKey{1}};
  spec.frame.begin = FrameBound::Preceding(200);
  WindowFunctionCall call;
  call.kind = WindowFunctionKind::kMedian;
  call.argument = 3;

  obs::ExecutionProfile profile;
  WindowExecutorOptions options;
  options.profile = &profile;
  ASSERT_TRUE(EvaluateWindowFunction(table, spec, call, options, serial).ok());

  EXPECT_EQ(profile.rows(), table.num_rows());
  EXPECT_GT(profile.partitions(), 0u);
  EXPECT_GT(profile.total_seconds(), 0.0);
  double phase_sum = 0;
  for (size_t p = 0; p < obs::kNumProfilePhases; ++p) {
    const double s =
        profile.phase_seconds(static_cast<obs::ProfilePhase>(p));
    EXPECT_GE(s, 0.0) << obs::ProfilePhaseName(
        static_cast<obs::ProfilePhase>(p));
    phase_sum += s;
  }
  // Allow a little slack for clock granularity on the phase boundaries.
  EXPECT_LE(phase_sum, profile.total_seconds() * 1.05 + 1e-4);
  // A median over a 201-row frame goes through the merge sort tree.
  EXPECT_GT(profile.phase_seconds(obs::ProfilePhase::kTreeBuild), 0.0);
  EXPECT_GT(profile.counters()[obs::Counter::kExecutorPartitions], 0u);
}

TEST_F(ObsTest, TreeBuildReportsPerLevelSeconds) {
  ThreadPool serial(0);
  std::vector<uint32_t> keys(20000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint32_t>((i * 2654435761u) >> 8);
  }
  obs::ExecutionProfile profile;
  MergeSortTreeOptions options;
  options.profile = &profile;
  auto tree = MergeSortTree<uint32_t>::Build(keys, options, serial);
  ASSERT_EQ(tree.size(), keys.size());

  const std::vector<double> levels = profile.tree_level_seconds();
  ASSERT_FALSE(levels.empty());
  double level_sum = 0;
  for (double s : levels) {
    EXPECT_GE(s, 0.0);
    level_sum += s;
  }
  // Per-level seconds and the kTreeBuild phase are the same accumulation.
  EXPECT_DOUBLE_EQ(level_sum,
                   profile.phase_seconds(obs::ProfilePhase::kTreeBuild));
}

TEST_F(ObsTest, ProfileJsonAndExplainAreWellFormed) {
  obs::ExecutionProfile profile;
  profile.AddPhaseSeconds(obs::ProfilePhase::kSort, 0.25);
  profile.AddTreeLevelSeconds(0, 0.5);
  profile.SetRows(1000);
  profile.SetPartitions(2);
  profile.SetEngine("merge_sort_tree");
  profile.SetTotalSeconds(1.0);

  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"rows\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"engine\": \"merge_sort_tree\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"tree_build_levels\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  int braces = 0;
  for (char c : json) braces += c == '{' ? 1 : c == '}' ? -1 : 0;
  EXPECT_EQ(braces, 0);

  const std::string text = profile.Explain();
  EXPECT_NE(text.find("sort"), std::string::npos);
  EXPECT_NE(text.find("tree_build"), std::string::npos);

  profile.Clear();
  EXPECT_EQ(profile.rows(), 0u);
  EXPECT_EQ(profile.total_seconds(), 0.0);
  EXPECT_TRUE(profile.tree_level_seconds().empty());
}

}  // namespace
}  // namespace hwf
