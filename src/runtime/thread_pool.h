// ThreadPool: the library's fixed-size threading substrate.
//
// Everything parallel in the repository — sharded predicate scans, mask
// combiners, masked histograms, the concurrent QueryService — runs on this
// pool. The design goals, in order:
//
//   1. No deadlock under nesting. A task running on a pool worker may itself
//      call ParallelForBlocked on the same pool. This works because the
//      *calling* thread always participates: chunks are claimed from a
//      lock-free atomic counter, so the caller drains whatever the workers
//      have not picked up and never blocks on an unclaimed chunk.
//   2. No per-chunk allocation or locking on the hot path. The loop state is
//      a stack-allocated block of atomics; the mutex + condvar pair is
//      touched only for the final "last chunk finished" hand-off.
//   3. Determinism of *results* is the responsibility of the work being
//      sharded (each chunk writes to disjoint state); the pool itself
//      guarantees only that fn runs at most once per chunk (exactly once
//      when no chunk throws).
//   4. Exception safety. A chunk that throws never reaches std::terminate:
//      ParallelForBlocked captures the first exception, stops claiming
//      further chunks, waits for in-flight chunks to finish, and rethrows in
//      the *calling* thread — so callers handle pool-task failures with
//      ordinary try/catch, and worker threads survive to serve the next loop.
//
// No external dependencies: <thread>, <mutex>, <condition_variable>, <atomic>.

#ifndef OSDP_RUNTIME_THREAD_POOL_H_
#define OSDP_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace osdp {

/// \brief Fixed-size worker pool with a blocked-range parallel-for helper.
///
/// A pool with `num_threads == 0` is valid and fully serial: Submit() runs
/// the task inline and ParallelForBlocked degenerates to a plain loop. This
/// is the natural "parallelism off" configuration — no special casing in
/// callers.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = run everything inline on the caller).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for the inline pool).
  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `task` for asynchronous execution (inline when num_threads()
  /// is 0). Tasks must not throw.
  void Submit(std::function<void()> task);

  /// \brief Runs fn(chunk_begin, chunk_end) over [begin, end) split into
  /// chunks of at most `chunk` elements, in parallel, and returns when every
  /// chunk has finished.
  ///
  /// The calling thread participates, so this is safe to call from inside a
  /// pool task (nested parallelism) and correct even on the inline pool.
  /// Chunk boundaries are deterministic functions of (begin, end, chunk);
  /// which thread runs which chunk is not — fn must write only to
  /// chunk-local or per-chunk state.
  ///
  /// If fn throws in any chunk, no further chunks are started, in-flight
  /// chunks run to completion, and the *first* captured exception is
  /// rethrown here, in the calling thread, after the barrier — never
  /// std::terminate, and the pool remains fully usable. Which exception is
  /// "first" is a race when several chunks throw concurrently; callers that
  /// need determinism should make fn throw deterministically (the fault
  /// registry's hit-counted schedules do).
  void ParallelForBlocked(size_t begin, size_t end, size_t chunk,
                          const std::function<void(size_t, size_t)>& fn);

  /// \brief The process-wide default pool, created on first use with
  /// OSDP_NUM_THREADS workers (env var), defaulting to
  /// std::thread::hardware_concurrency(). OSDP_NUM_THREADS=0 gives the
  /// inline (serial) pool; unparsable values fall back to
  /// hardware_concurrency (see ParseNumThreads).
  static ThreadPool& Default();

  /// Pool telemetry, disabled by default: an unmetered pool pays one relaxed
  /// load per instrumented site and reads no clocks (the same armed-gate
  /// discipline as the fault registry). QueryService::Create enables it on
  /// the pool it is handed when its own metrics are on. Pool telemetry never
  /// influences scheduling — it is write-only from the dispatch paths.
  void set_metrics_enabled(bool enabled) {
    metrics_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool metrics_enabled() const {
    return metrics_enabled_.load(std::memory_order_relaxed);
  }

  /// Accumulated pool telemetry (all zero until set_metrics_enabled(true)).
  struct Stats {
    uint64_t tasks_submitted = 0;
    uint64_t tasks_executed = 0;   // by workers; inline-pool tasks count too
    uint64_t parallel_fors = 0;    // ParallelForBlocked calls (any path)
    uint64_t chunks_executed = 0;  // chunks run, by workers and callers
    size_t queue_depth = 0;        // now (under the queue lock)
    uint64_t peak_queue_depth = 0;
    /// The workers' summed task time (task_histogram()'s exact sum) over
    /// num_threads × pool lifetime: the fraction of worker capacity spent
    /// executing, in [0, 1]. Chunks a caller runs itself, serial loops
    /// included, are not worker time and do not count. 0 for the inline
    /// pool (no workers to utilize).
    double utilization = 0.0;
  };
  Stats stats() const;

  /// Latency distribution of individual submitted tasks (worker-side; on
  /// the inline pool, the caller's inline Submit runs).
  const obs::LatencyHistogram& task_histogram() const { return task_hist_; }
  /// Latency distribution of ParallelForBlocked chunks: one sample per
  /// chunk a worker or helping caller claims, and one per serial call (no
  /// workers, or a single chunk) holding that call's mean chunk time.
  const obs::LatencyHistogram& chunk_histogram() const { return chunk_hist_; }

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;

  std::atomic<bool> metrics_enabled_{false};
  uint64_t start_ns_ = 0;  // construction time, for utilization
  std::atomic<uint64_t> tasks_submitted_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> parallel_fors_{0};
  std::atomic<uint64_t> chunks_executed_{0};
  uint64_t peak_queue_depth_ = 0;  // under mu_, alongside the queue it tracks
  obs::LatencyHistogram task_hist_;
  obs::LatencyHistogram chunk_hist_;
};

/// \brief Parses an OSDP_NUM_THREADS-style value: a base-10 integer with
/// optional surrounding whitespace. Negative values clamp to 0 (the inline
/// pool). Anything unparsable — empty, no digits, trailing garbage
/// ("garbage", "4x"), out of range — returns `fallback` instead of silently
/// becoming 0: a typo in the env var must not quietly serialize the service.
size_t ParseNumThreads(const char* value, size_t fallback);

/// \brief Shard boundaries for row-range sharding at a given alignment.
///
/// Splits `num_rows` rows into at most `num_shards` contiguous ranges whose
/// interior boundaries are multiples of `alignment` (a power of two).
/// Returns the shard edges: shard i covers [edges[i], edges[i+1]). Fewer
/// shards than requested are returned when there are not enough
/// alignment-sized blocks to go around; an empty row range yields a single
/// empty shard.
///
/// Mask-word sharding uses alignment 64 (each shard owns whole 64-bit
/// RowMask words); table scans use
/// kChunkRows so every interior shard edge is also a chunk edge and a
/// shard's typed inner loops never straddle two chunks. Any alignment that
/// is a multiple of 64 preserves the disjoint-words property, so the
/// sharded scan stays bit-identical to serial either way.
std::vector<size_t> AlignedShards(size_t num_rows, size_t num_shards,
                                  size_t alignment);

}  // namespace osdp

#endif  // OSDP_RUNTIME_THREAD_POOL_H_
