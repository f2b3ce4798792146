// TraceRecorder: low-overhead, thread-safe span recording for end-to-end
// query tracing.
//
// The serving layer answers "why was *this* query slow?" by recording one
// TraceEvent per phase a request passes through (queue wait, base-set
// derivation, per-tuple relaxation, individual probes, similarity ranking),
// all correlated by the request id the wire protocol round-trips. Events
// land in a fixed-capacity ring buffer — a steady stream of traffic
// overwrites the oldest spans instead of growing without bound — and
// serialize to Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing for a flame-graph view of one request.
//
// Cost model:
//  - No recorder attached (the default): TraceSpan construction is one
//    null-pointer test. Nothing else happens.
//  - Recorder attached but disabled: one relaxed atomic load per span.
//  - Enabled: two clock reads plus one short mutex-guarded ring write per
//    span. The mutex guards only the ring bookkeeping, never any probe.
//
// The clock is injectable (TraceClock) so tests assert exact timestamps;
// production uses the default steady_clock.

#ifndef AIMQ_UTIL_TRACE_H_
#define AIMQ_UTIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace aimq {

/// Injectable monotonic time source for the recorder. The default reads
/// std::chrono::steady_clock; tests substitute a hand-advanced fake.
class TraceClock {
 public:
  virtual ~TraceClock() = default;

  /// Monotonic nanoseconds since an arbitrary epoch.
  virtual uint64_t NowNanos() const;
};

/// One completed span ("X" phase in Chrome trace-event terms): a named,
/// categorized duration on one thread, tagged with the request it served.
struct TraceEvent {
  std::string name;      ///< span name ("probe", "queue_wait", ...)
  std::string category;  ///< subsystem ("service", "engine")
  uint64_t request_id = 0;
  uint64_t thread_id = 0;
  uint64_t start_nanos = 0;
  uint64_t duration_nanos = 0;
  /// Small numeric annotations ("cache_hit":1, "base_index":3).
  std::vector<std::pair<std::string, double>> args;
};

/// \brief Thread-safe ring buffer of trace events.
class TraceRecorder {
 public:
  /// \p capacity bounds the retained events (oldest overwritten first);
  /// \p clock, when given, must outlive the recorder (nullptr = steady
  /// clock). Recorders start enabled.
  explicit TraceRecorder(size_t capacity, const TraceClock* clock = nullptr);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Toggles recording. While disabled, Record() is a no-op and spans cost
  /// one relaxed atomic load.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The recorder's notion of "now", from the injected clock.
  uint64_t NowNanos() const;

  /// Appends one event; when the ring is full the oldest event is
  /// overwritten (counted in dropped()). Dropped silently while disabled.
  void Record(TraceEvent event);

  /// Events currently retained, oldest first. Safe against concurrent
  /// Record() (the snapshot is taken under the ring lock).
  std::vector<TraceEvent> Snapshot() const;

  /// Events overwritten because the ring was full.
  uint64_t dropped() const;

  size_t capacity() const { return capacity_; }

  /// Drops all retained events and resets the dropped counter.
  void Clear();

  /// The retained events as one Chrome trace-event JSON document:
  ///   {"displayTimeUnit":"ms","traceEvents":[
  ///     {"name":..,"cat":..,"ph":"X","ts":<µs>,"dur":<µs>,"pid":1,
  ///      "tid":..,"args":{"request_id":..,...}},...]}
  /// Load the dump in Perfetto / chrome://tracing.
  Json ChromeTraceJson() const;
  static Json ToChromeTraceJson(const std::vector<TraceEvent>& events);

  /// Small, stable per-thread id for the "tid" field (threads are numbered
  /// in first-use order, process-wide).
  static uint64_t CurrentThreadId();

  /// The request id installed on this thread by the innermost live
  /// TraceRequestScope (0 when none). Lets layers below the engine — e.g. a
  /// sharded source facade that never sees a QueryControl — tag their
  /// spans with the request being served.
  static uint64_t CurrentRequestId();

 private:
  const size_t capacity_;
  const TraceClock* clock_;  // nullptr = built-in steady clock
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // guarded by mu_
  size_t next_ = 0;               // guarded by mu_
  uint64_t total_ = 0;            // guarded by mu_
};

/// \brief RAII span: times its own scope and records on destruction.
///
/// Construction with a null or disabled recorder arms nothing — the
/// destructor then does no clock read and no recording.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, const char* name, const char* category,
            uint64_t request_id);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan();

  /// Attaches one numeric annotation (no-op when the span is unarmed).
  void AddArg(const char* key, double value);

 private:
  TraceRecorder* recorder_;  // nullptr when unarmed
  TraceEvent event_;
};

/// \brief RAII: installs \p request_id as this thread's current request id
/// (TraceRecorder::CurrentRequestId) for the scope's lifetime, restoring the
/// previous value on exit. Costs two thread-local writes; safe to nest.
class TraceRequestScope {
 public:
  explicit TraceRequestScope(uint64_t request_id);
  ~TraceRequestScope();

  TraceRequestScope(const TraceRequestScope&) = delete;
  TraceRequestScope& operator=(const TraceRequestScope&) = delete;

 private:
  uint64_t previous_;
};

}  // namespace aimq

#endif  // AIMQ_UTIL_TRACE_H_
