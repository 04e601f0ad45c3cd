#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cctype>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/common/fault.h"

namespace osdp {

ThreadPool::ThreadPool(size_t num_threads) {
  start_ns_ = obs::NowNs();
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const bool metrics = metrics_enabled_.load(std::memory_order_relaxed);
  if (threads_.empty()) {
    if (metrics) {
      tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t t0 = obs::NowNs();
      task();
      const uint64_t dt = obs::NowNs() - t0;
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      busy_ns_.fetch_add(dt, std::memory_order_relaxed);
      task_hist_.Record(dt);
    } else {
      task();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    if (metrics) {
      tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
      if (queue_.size() > peak_queue_depth_) {
        peak_queue_depth_ = queue_.size();
      }
    }
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (metrics_enabled_.load(std::memory_order_relaxed)) {
      const uint64_t t0 = obs::NowNs();
      task();
      const uint64_t dt = obs::NowNs() - t0;
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      busy_ns_.fetch_add(dt, std::memory_order_relaxed);
      task_hist_.Record(dt);
    } else {
      task();
    }
  }
}

namespace {

// Shared state of one ParallelForBlocked call. Stack-allocated by the caller;
// helper tasks capture a shared_ptr so a helper that wakes up after the
// caller has already returned (because the caller drained every chunk) finds
// valid — if exhausted — state rather than a dangling reference.
struct LoopState {
  size_t begin;
  size_t chunk;
  size_t num_chunks;
  const std::function<void(size_t, size_t)>* fn;
  size_t end;

  std::atomic<size_t> next{0};  // next unclaimed chunk index
  std::atomic<size_t> done{0};  // chunks fully executed (or skipped)

  // First exception thrown by any chunk, rethrown by the caller after the
  // barrier. `failed` is the fast-path gate claimers poll to stop starting
  // new chunks; `error` is written once under `mu` and read by the caller
  // only after the done-counter barrier (the acq_rel fetch_add below
  // publishes it).
  std::atomic<bool> failed{false};
  std::exception_ptr error;

  std::mutex mu;
  std::condition_variable cv;

  // Telemetry hooks, owned by the pool; both null when pool metrics are
  // disabled (the gate is checked once per ParallelForBlocked call, not per
  // chunk). Busy time is NOT accrued here — helper drains are timed at the
  // task level by WorkerLoop and the caller's drain by ParallelForBlocked,
  // so chunk time is never double-counted.
  obs::LatencyHistogram* chunk_hist = nullptr;
  std::atomic<uint64_t>* chunks_executed = nullptr;

  // Claims and runs chunks until none are left. Returns the number executed.
  // Never throws: a chunk exception is captured for the caller's rethrow,
  // remaining claims are fast-forwarded (counted done without running fn) so
  // the barrier still completes and worker threads survive.
  size_t Drain() {
    size_t ran = 0;
    for (;;) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      if (!failed.load(std::memory_order_relaxed)) {
        const size_t lo = begin + c * chunk;
        const size_t hi = lo + chunk < end ? lo + chunk : end;
        try {
          OSDP_FAULT_POINT("thread_pool/chunk");
          if (chunk_hist != nullptr) {
            const uint64_t t0 = obs::NowNs();
            (*fn)(lo, hi);
            chunk_hist->Record(obs::NowNs() - t0);
            chunks_executed->fetch_add(1, std::memory_order_relaxed);
          } else {
            (*fn)(lo, hi);
          }
          ++ran;
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mu);
            if (error == nullptr) error = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
    return ran;
  }
};

}  // namespace

void ThreadPool::ParallelForBlocked(
    size_t begin, size_t end, size_t chunk,
    const std::function<void(size_t, size_t)>& fn) {
  OSDP_CHECK(chunk > 0);
  if (begin >= end) return;
  const bool metrics = metrics_enabled_.load(std::memory_order_relaxed);
  if (metrics) parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  const size_t n = end - begin;
  const size_t num_chunks = (n + chunk - 1) / chunk;
  if (num_chunks == 1 || threads_.empty()) {
    // Serial degeneration: exceptions propagate to the caller directly —
    // the same contract as the parallel path's capture-and-rethrow. The
    // fault point fires here too, so hit-counted schedules are invariant
    // across thread counts.
    // The loop is timed once, not per chunk: two clock reads per call
    // whatever the chunk count, and one chunk_ns sample holding the call's
    // mean chunk time (a serial loop of many tiny chunks — a batch of cached
    // queries — would otherwise pay a clock read and a histogram write per
    // query).
    const uint64_t t0 = metrics ? obs::NowNs() : 0;
    for (size_t lo = begin; lo < end; lo += chunk) {
      OSDP_FAULT_POINT("thread_pool/chunk");
      const size_t hi = lo + chunk < end ? lo + chunk : end;
      fn(lo, hi);
    }
    if (metrics) {
      const uint64_t dt = obs::NowNs() - t0;
      chunk_hist_.Record(dt / num_chunks);
      chunks_executed_.fetch_add(num_chunks, std::memory_order_relaxed);
      busy_ns_.fetch_add(dt, std::memory_order_relaxed);
    }
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->begin = begin;
  state->chunk = chunk;
  state->num_chunks = num_chunks;
  state->fn = &fn;
  state->end = end;
  if (metrics) {
    state->chunk_hist = &chunk_hist_;
    state->chunks_executed = &chunks_executed_;
  }

  // One helper per worker (capped by the chunk count minus the caller's
  // share); a helper that finds the counter exhausted is a cheap no-op.
  const size_t helpers =
      std::min(threads_.size(), num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Submit([state] { state->Drain(); });
  }

  if (metrics) {
    // The caller's drain is productive chunk time the task-level timing in
    // WorkerLoop never sees (helpers are timed there); count it here.
    const uint64_t t0 = obs::NowNs();
    state->Drain();
    busy_ns_.fetch_add(obs::NowNs() - t0, std::memory_order_relaxed);
  } else {
    state->Drain();
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->num_chunks;
  });
  // Every chunk is accounted for; helpers that wake later find the counter
  // exhausted and never touch fn. Surface the first chunk failure here, in
  // the calling thread — the only thread with a caller to surface it to.
  // Ownership of the exception moves out of the shared state (leaving
  // state->error null) so the final release of the exception object always
  // happens on a thread mutex-ordered after the throw: exception_ptr
  // refcounting lives in uninstrumented libstdc++, so a last release inside
  // a helper's lambda destructor is invisible to TSan and reports as a race
  // on the exception object's free.
  std::exception_ptr error = std::move(state->error);
  lock.unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.parallel_fors = parallel_fors_.load(std::memory_order_relaxed);
  s.chunks_executed = chunks_executed_.load(std::memory_order_relaxed);
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = queue_.size();
    s.peak_queue_depth = peak_queue_depth_;
  }
  if (!threads_.empty()) {
    const uint64_t lifetime = obs::NowNs() - start_ns_;
    if (lifetime > 0) {
      s.utilization = static_cast<double>(s.busy_ns) /
                      (static_cast<double>(threads_.size()) *
                       static_cast<double>(lifetime));
    }
  }
  return s;
}

size_t ParseNumThreads(const char* value, size_t fallback) {
  long long parsed = 0;
  // Strict base-10 parse (src/common/env.h): no digits, trailing garbage
  // ("4x", "2.5"), or overflow all fall back rather than silently becoming 0.
  if (!ParseInt64Strict(value, &parsed)) return fallback;
  // Negative values mean "no workers" (the inline pool), not a size_t
  // wraparound's worth of threads.
  return parsed > 0 ? static_cast<size_t>(parsed) : 0;
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = [] {
    const size_t hw = std::thread::hardware_concurrency();
    return new ThreadPool(
        ParseNumThreads(std::getenv("OSDP_NUM_THREADS"), hw));
  }();
  return *pool;
}

std::vector<size_t> AlignedShards(size_t num_rows, size_t num_shards,
                                  size_t alignment) {
  if (num_shards == 0) num_shards = 1;
  if (alignment == 0) alignment = 1;
  const size_t blocks = (num_rows + alignment - 1) / alignment;
  const size_t shards = std::min(num_shards, blocks == 0 ? 1 : blocks);
  const size_t blocks_per_shard =
      blocks == 0 ? 0 : (blocks + shards - 1) / shards;
  std::vector<size_t> edges;
  edges.reserve(shards + 1);
  edges.push_back(0);
  for (size_t s = 1; s < shards; ++s) {
    const size_t edge = s * blocks_per_shard * alignment;
    // The ceil-divided width can overshoot; emit fewer shards rather than an
    // unaligned (or duplicate) interior edge.
    if (edge >= num_rows) break;
    edges.push_back(edge);
  }
  edges.push_back(num_rows);
  return edges;
}

}  // namespace osdp
