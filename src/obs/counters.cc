#include "obs/counters.h"

#include <algorithm>
#include <mutex>
#include <vector>

namespace hwf {
namespace obs {

namespace internal_counters {
namespace {

/// Every live shard plus the totals of shards whose threads have exited.
/// Leaked on purpose: threads (and static destructors) may still count
/// during process teardown, after a destructible registry would be gone.
struct Registry {
  std::mutex mutex;
  std::vector<Shard*> live;
  std::atomic<uint64_t> retired[kNumCounters] = {};
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

/// Set once this thread's shard has been folded into `retired`, so a later
/// Add (from another thread_local's destructor) does not register a shard
/// whose owner would never be destroyed again.
thread_local constinit bool t_retired = false;

/// Folds the thread's shard into the retired totals at thread exit.
struct ShardOwner {
  Shard* shard = nullptr;

  ~ShardOwner() {
    if (shard == nullptr) return;
    Registry& registry = GetRegistry();
    {
      std::lock_guard<std::mutex> lock(registry.mutex);
      for (size_t i = 0; i < kNumCounters; ++i) {
        registry.retired[i].fetch_add(
            shard->values[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      auto it = std::find(registry.live.begin(), registry.live.end(), shard);
      *it = registry.live.back();
      registry.live.pop_back();
    }
    t_shard = nullptr;
    t_retired = true;
    delete shard;
  }
};

thread_local ShardOwner t_owner;

/// Sums the live shards and the retired totals. Caller holds the mutex.
uint64_t SumLocked(const Registry& registry, size_t i) {
  uint64_t total = registry.retired[i].load(std::memory_order_relaxed);
  for (const Shard* shard : registry.live) {
    total += shard->values[i].load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace

void AddUnsharded(Counter counter, uint64_t delta) noexcept {
  const size_t i = static_cast<size_t>(counter);
  Registry& registry = GetRegistry();
  if (t_retired) {
    registry.retired[i].fetch_add(delta, std::memory_order_relaxed);
    return;
  }
  Shard* shard = new Shard;
  shard->values[i].store(delta, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.live.push_back(shard);
  }
  t_shard = shard;
  t_owner.shard = shard;  // first use arms the owner's destructor
}

}  // namespace internal_counters

const char* CounterName(Counter counter) {
  switch (counter) {
    case Counter::kPoolTasksSubmitted:
      return "pool.tasks_submitted";
    case Counter::kPoolTasksRunByCaller:
      return "pool.tasks_run_by_caller";
    case Counter::kPoolIdleWakeups:
      return "pool.idle_wakeups";
    case Counter::kParallelForMorsels:
      return "parallel_for.morsels";
    case Counter::kSortComparisons:
      return "sort.comparisons";
    case Counter::kSortOvcResolved:
      return "sort.ovc_resolved";
    case Counter::kMstLevelsBuilt:
      return "mst.levels_built";
    case Counter::kMstMergeElementsMoved:
      return "mst.merge_elements_moved";
    case Counter::kMstLevelBytesAllocated:
      return "mst.level_bytes_allocated";
    case Counter::kMstPreprocessFusedRows:
      return "mst.preprocess_fused_rows";
    case Counter::kMstCascadeLookups:
      return "mst.cascade_lookups";
    case Counter::kMstBinarySearchFallbacks:
      return "mst.binary_search_fallbacks";
    case Counter::kMstProbeBatches:
      return "mst.probe.batches";
    case Counter::kMstProbeBatchQueries:
      return "mst.probe.batch_queries";
    case Counter::kMstProbeBatchRounds:
      return "mst.probe.batch_rounds";
    case Counter::kMstProbePrefetches:
      return "mst.probe.prefetches";
    case Counter::kExecutorPartitions:
      return "executor.partitions";
    case Counter::kExecutorIndex32Dispatches:
      return "executor.index32_dispatches";
    case Counter::kExecutorIndex64Dispatches:
      return "executor.index64_dispatches";
    case Counter::kExecutorSortsShared:
      return "executor.sorts_shared";
    case Counter::kExecutorSortsElided:
      return "executor.sorts_elided";
    case Counter::kExecutorHashPartitionedRows:
      return "executor.hash_partitioned_rows";
    case Counter::kMemSpillFilesCreated:
      return "mem.spill_files_created";
    case Counter::kMemSpillBytesWritten:
      return "mem.spill_bytes_written";
    case Counter::kMemSpillBytesRead:
      return "mem.spill_bytes_read";
    case Counter::kMemBudgetDeniedReservations:
      return "mem.budget_denied_reservations";
    case Counter::kMemForcedOverBudgetBytes:
      return "mem.forced_over_budget_bytes";
    case Counter::kMemMstLevelsEvicted:
      return "mem.mst_levels_evicted";
    case Counter::kMemExternalSortRuns:
      return "mem.external_sort_runs";
    case Counter::kCacheHits:
      return "cache.hits";
    case Counter::kCacheMisses:
      return "cache.misses";
    case Counter::kCacheEvictions:
      return "cache.evictions";
    case Counter::kCacheInsertBytes:
      return "cache.insert_bytes";
    case Counter::kServiceQueriesAdmitted:
      return "service.queries_admitted";
    case Counter::kServiceQueriesRejected:
      return "service.queries_rejected";
    case Counter::kServiceQueriesCancelled:
      return "service.queries_cancelled";
    case Counter::kServiceQueriesCompleted:
      return "service.queries_completed";
    case Counter::kServiceRejectedQueueFull:
      return "service.rejected_queue_full";
    case Counter::kServiceRejectedMemory:
      return "service.rejected_memory";
    case Counter::kIngestRowsAppended:
      return "ingest.rows_appended";
    case Counter::kIngestRowsUpserted:
      return "ingest.rows_upserted";
    case Counter::kIngestBatches:
      return "ingest.batches";
    case Counter::kIngestCompactions:
      return "ingest.compactions";
    case Counter::kIngestCompactionsFailed:
      return "ingest.compactions_failed";
    case Counter::kIngestDeltaMerges:
      return "ingest.delta_merges";
    case Counter::kIngestMergedCursorBuilds:
      return "ingest.merged_cursor_builds";
    case Counter::kNumCounters:
      break;
  }
  return "unknown";
}

uint64_t Value(Counter counter) noexcept {
  internal_counters::Registry& registry = internal_counters::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return internal_counters::SumLocked(registry, static_cast<size_t>(counter));
}

CounterSnapshot SnapshotCounters() noexcept {
  internal_counters::Registry& registry = internal_counters::GetRegistry();
  CounterSnapshot snapshot;
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (size_t i = 0; i < kNumCounters; ++i) {
    snapshot.values[i] = internal_counters::SumLocked(registry, i);
  }
  return snapshot;
}

CounterSnapshot SnapshotDelta(const CounterSnapshot& before,
                              const CounterSnapshot& after) noexcept {
  CounterSnapshot delta;
  for (size_t i = 0; i < kNumCounters; ++i) {
    delta.values[i] = after.values[i] - before.values[i];
  }
  return delta;
}

void ResetCountersForTest() noexcept {
  internal_counters::Registry& registry = internal_counters::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (size_t i = 0; i < kNumCounters; ++i) {
    registry.retired[i].store(0, std::memory_order_relaxed);
    for (internal_counters::Shard* shard : registry.live) {
      shard->values[i].store(0, std::memory_order_relaxed);
    }
  }
}

size_t LiveCounterShardsForTest() noexcept {
  internal_counters::Registry& registry = internal_counters::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.live.size();
}

}  // namespace obs
}  // namespace hwf
