// Per-query trace spans: the stage timeline of one request (admit → cache
// lookup / scan → accumulate → mechanism → budget charge → deliver) captured
// into a fixed inline event array, plus a bounded ring of recent traces for
// post-hoc inspection (text/JSON dump).
//
// Same ground rules as metrics.h: tracing is write-only from the runtime
// (never read on a decision path), the disabled path is gated out before any
// clock is read, and a TraceSpan allocates nothing — all event storage is an
// inline std::array, and the ring's slots are preallocated at construction
// (the bounded-memory property pinned by tests/obs_test.cc).

#ifndef OSDP_OBS_TRACE_H_
#define OSDP_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace osdp {
namespace obs {

/// The stages a request can pass through, in pipeline order. A trace records
/// the subset that actually ran: a cache hit records kCacheLookup and no
/// kScan; an admission-shed request records only kAdmit. kAccumulate is the
/// exact aggregate of the WHERE rows (a count's |WHERE ∧ x_ns|, a histogram's
/// x and/or x_ns) and kMechanism the noisy release of it; a sample has no
/// kAccumulate.
enum class Stage : uint8_t {
  kAdmit = 0,
  kValidate,
  kReserve,
  kCacheLookup,
  kScan,
  kAccumulate,
  kMechanism,
  kBudgetCharge,
  kDeliver,
};

const char* StageName(Stage stage);

/// One completed request's timeline. Plain data, fixed size: at most
/// kMaxEvents (stage, duration) pairs plus identity and outcome fields.
struct Trace {
  // Every stage can appear at most once per request, and kCacheLookup and
  // kScan exclude each other, so 8 covers the longest timeline (tests pin
  // it).
  static constexpr size_t kMaxEvents = 8;

  struct Event {
    Stage stage;
    uint64_t duration_ns;
  };

  uint64_t session = 0;
  uint64_t seq = 0;
  uint64_t generation = 0;
  uint64_t start_ns = 0;  // NowNs() at span start
  uint64_t total_ns = 0;
  int status_code = 0;  // Status as int; 0 = OK
  bool cache_hit = false;
  bool is_histogram = false;
  uint8_t num_events = 0;
  std::array<Event, kMaxEvents> events{};
};

/// \brief Bounded ring of recent traces. Push overwrites the oldest entry;
/// memory is fixed at construction. Push takes a short mutex — it runs once
/// per *request* (not per event), off the per-row hot path, and only when
/// telemetry is enabled.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity) : slots_(capacity) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Push(const Trace& trace);

  size_t capacity() const { return slots_.size(); }

  /// Number of traces ever pushed (monotone; size() = min(pushed, capacity)).
  uint64_t pushed() const;

  /// Copies the live traces, oldest first.
  std::vector<Trace> Snapshot() const;

  /// One line per trace: identity, outcome, and the stage timeline.
  std::string DumpText() const;

  /// JSON array of trace objects, oldest first.
  std::string DumpJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<Trace> slots_;
  uint64_t pushed_ = 0;  // next slot = pushed_ % capacity
};

/// \brief Builder for one request's Trace: stamp stage durations as the
/// request moves down the pipeline, then Finish() into a ring.
///
/// Not thread-safe — a span belongs to the one thread driving its request
/// (worker threads under Execute never touch it). The caller is expected to
/// construct it only on the telemetry-enabled path; a span is cheap but not
/// free (one clock read at start).
class TraceSpan {
 public:
  TraceSpan(uint64_t session, uint64_t seq, uint64_t generation) {
    trace_.session = session;
    trace_.seq = seq;
    trace_.generation = generation;
    trace_.start_ns = NowNs();
    mark_ns_ = trace_.start_ns;
  }

  /// Records `stage` with an explicit duration (for callers that already
  /// hold both timestamps — the shared-timestamp discipline that keeps the
  /// clock-read count per request low).
  void Add(Stage stage, uint64_t duration_ns) {
    if (trace_.num_events < Trace::kMaxEvents) {
      trace_.events[trace_.num_events++] = {stage, duration_ns};
    }
  }

  /// Records `stage` as ending at `now_ns`, with duration measured from the
  /// previous Mark (or span construction) — one clock read shared between
  /// consecutive stages. Returns the duration so the caller can feed the
  /// same value into a latency histogram without re-reading the clock.
  uint64_t Mark(Stage stage, uint64_t now_ns) {
    const uint64_t dt = now_ns - mark_ns_;
    Add(stage, dt);
    mark_ns_ = now_ns;
    return dt;
  }

  Trace& trace() { return trace_; }

  /// Stamps total duration and outcome, then pushes into `ring`.
  void Finish(int status_code, TraceRing& ring, uint64_t end_ns) {
    trace_.status_code = status_code;
    trace_.total_ns = end_ns - trace_.start_ns;
    ring.Push(trace_);
  }

 private:
  Trace trace_;
  uint64_t mark_ns_ = 0;
};

}  // namespace obs
}  // namespace osdp

#endif  // OSDP_OBS_TRACE_H_
