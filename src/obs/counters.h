#ifndef HWF_OBS_COUNTERS_H_
#define HWF_OBS_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hwf {
namespace obs {

/// Process-wide event counters, sharded per thread.
///
/// Counters are always compiled in (unlike trace spans). Each thread's first
/// Add registers a cache-line-aligned shard holding one slot per counter;
/// afterwards only the owning thread writes its shard, with a relaxed load +
/// store and no locked instruction, so increments from a worker pool never
/// contend on a shared cache line and are cheap enough for per-probe call
/// sites (the scalar tree descent counts every cascade step). Readers
/// (SnapshotCounters, Value) sum the live shards plus a `retired` array under
/// a registry mutex that is taken only at thread start, thread exit and read
/// time; an exiting thread folds its shard into `retired`, so totals survive
/// thread exit. Counters only ever grow; consumers that want per-execution
/// numbers capture a snapshot before and after and subtract
/// (ExecutionProfile does exactly that).
enum class Counter : size_t {
  // Parallel runtime.
  kPoolTasksSubmitted,    // tasks enqueued on a ThreadPool
  kPoolTasksRunByCaller,  // queued tasks executed by a waiting/helping thread
  kPoolIdleWakeups,       // waits that woke up and found nothing to do
  kParallelForMorsels,    // morsels claimed by ParallelFor runners

  // Parallel sort (offset-value-coded merge kernel).
  kSortComparisons,   // element comparisons performed by OVC-coded merges
  kSortOvcResolved,   // comparisons resolved by the code compare alone

  // Merge sort tree build.
  kMstLevelsBuilt,          // tree levels constructed (above level 0)
  kMstMergeElementsMoved,   // elements written by level merges
  kMstLevelBytesAllocated,  // bytes allocated for level data + cascades
  kMstPreprocessFusedRows,  // rows preprocessed by the fused pipeline

  // Merge sort tree probe.
  kMstCascadeLookups,           // child searches narrowed by cascade samples
  kMstBinarySearchFallbacks,    // child searches over the full child run
  kMstProbeBatches,             // batched probe kernel invocations
  kMstProbeBatchQueries,        // queries answered by the batch kernel
  kMstProbeBatchRounds,         // lockstep rounds executed by the kernel
  kMstProbePrefetches,          // software prefetches issued by the kernel

  // Window executor.
  kExecutorPartitions,        // partitions processed
  kExecutorIndex32Dispatches, // per-partition 32-bit index-width decisions
  kExecutorIndex64Dispatches, // per-partition 64-bit index-width decisions
  kExecutorSortsShared,       // specs served by another spec's sort (any reuse)
  kExecutorSortsElided,       // subset reused verbatim (identical ORDER BY)
  kExecutorHashPartitionedRows, // rows routed through the hash partitioner

  // Memory governance / spilling.
  kMemSpillFilesCreated,          // temp files opened for spilled runs/levels
  kMemSpillBytesWritten,          // bytes written to spill files
  kMemSpillBytesRead,             // bytes read back from spill files
  kMemBudgetDeniedReservations,   // TryReserve calls rejected by the budget
  kMemForcedOverBudgetBytes,      // bytes reserved past the limit (degrade)
  kMemMstLevelsEvicted,           // MST levels evicted to spill files
  kMemExternalSortRuns,           // sorted runs written by the external sort

  // Cross-query tree cache (src/mst/tree_cache.h).
  kCacheHits,         // lookups answered from the cache
  kCacheMisses,       // lookups that had to build
  kCacheEvictions,    // entries evicted by the byte cap
  kCacheInsertBytes,  // bytes admitted into the cache

  // Query service (src/service/).
  kServiceQueriesAdmitted,   // queries accepted into the run queue
  kServiceQueriesRejected,   // queries refused by admission control
  kServiceQueriesCancelled,  // queries stopped by cancel or deadline
  kServiceQueriesCompleted,  // queries finished successfully
  kServiceRejectedQueueFull, // rejections caused by a full admission queue
  kServiceRejectedMemory,    // rejections caused by the memory reservation

  // Streaming ingest (src/ingest/).
  kIngestRowsAppended,        // rows accepted by APPEND batches
  kIngestRowsUpserted,        // rows accepted by UPSERT batches
  kIngestBatches,             // APPEND/UPSERT batches applied
  kIngestCompactions,         // delta-into-base compactions completed
  kIngestCompactionsFailed,   // compactions cancelled or errored
  kIngestDeltaMerges,         // sort artifacts built by delta merge (not cold)
  kIngestMergedCursorBuilds,  // merged two-tree cursors built (no rebuild)

  kNumCounters,
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kNumCounters);

/// Stable snake_case name of a counter ("pool.tasks_submitted", ...), used
/// as the JSON key in profile emission.
const char* CounterName(Counter counter);

namespace internal_counters {

/// One thread's counter slots. Written only by its owning thread; read by
/// snapshots under the registry mutex, hence atomics (relaxed) throughout.
struct alignas(64) Shard {
  std::atomic<uint64_t> values[kNumCounters] = {};
};

/// The calling thread's shard, or null before its first Add and after its
/// shard was folded at thread exit.
inline thread_local constinit Shard* t_shard = nullptr;

/// Slow path of Add: registers the thread's shard (first Add), or counts
/// straight into the retired totals once the shard is gone (an Add from a
/// thread_local destructor that runs after the fold).
void AddUnsharded(Counter counter, uint64_t delta) noexcept;

}  // namespace internal_counters

/// Adds `delta` to `counter`. Safe from any thread; touches only the calling
/// thread's shard.
inline void Add(Counter counter, uint64_t delta = 1) noexcept {
  internal_counters::Shard* shard = internal_counters::t_shard;
  if (shard == nullptr) [[unlikely]] {
    internal_counters::AddUnsharded(counter, delta);
    return;
  }
  std::atomic<uint64_t>& slot = shard->values[static_cast<size_t>(counter)];
  slot.store(slot.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

/// Current total of `counter` across every thread, live and exited.
uint64_t Value(Counter counter) noexcept;

/// A plain copy of every counter at one point in time.
struct CounterSnapshot {
  std::array<uint64_t, kNumCounters> values{};

  uint64_t operator[](Counter counter) const {
    return values[static_cast<size_t>(counter)];
  }
};

/// Captures all counters.
CounterSnapshot SnapshotCounters() noexcept;

/// Per-counter difference `after - before` (counters are monotonic, so this
/// is the activity between the two snapshots).
CounterSnapshot SnapshotDelta(const CounterSnapshot& before,
                              const CounterSnapshot& after) noexcept;

/// Resets every counter to zero: every live shard and the retired totals.
/// Test-only: an owner's increment racing the reset may survive it or undo
/// it; production readers should use snapshots + deltas instead.
void ResetCountersForTest() noexcept;

/// Number of threads with a live (not yet folded) counter shard. Test-only.
size_t LiveCounterShardsForTest() noexcept;

/// Tracks counter activity since a baseline snapshot.
///
/// The shared snapshot-diff helper behind per-query attribution (what did
/// THIS query add to the process counters?) and the STATS / slow-query-log
/// reporting paths. Construction captures the baseline; Delta() reads the
/// live counters and subtracts; Rebase() moves the baseline to "now".
class CounterDeltaTracker {
 public:
  CounterDeltaTracker() : baseline_(SnapshotCounters()) {}

  /// Activity on every counter since the baseline.
  CounterSnapshot Delta() const {
    return SnapshotDelta(baseline_, SnapshotCounters());
  }

  /// Activity on one counter since the baseline.
  uint64_t DeltaOf(Counter counter) const {
    return Value(counter) - baseline_[counter];
  }

  /// Moves the baseline to the current counter values.
  void Rebase() { baseline_ = SnapshotCounters(); }

  const CounterSnapshot& baseline() const { return baseline_; }

 private:
  CounterSnapshot baseline_;
};

}  // namespace obs
}  // namespace hwf

#endif  // HWF_OBS_COUNTERS_H_
