// Lightweight tracing keyed on *simulated* time.
//
// The replication stack emits spans (checkpoint pauses, per-thread migrator
// copies, seeding rounds), instants (epoch commits, packet releases,
// failover milestones) and counters through a `Tracer`. A null sink makes
// every emission a two-instruction no-op, so instrumentation can stay in the
// hot paths permanently. Components that borrow an optional tracer resolve it
// once against `Tracer::none()` and then emit unconditionally.
//
// Because the simulation is deterministic, a trace is a *testable artifact*:
// two runs from the same seed must produce byte-identical exports, and every
// paper invariant (output commit, monotone epochs, degradation arithmetic)
// is checkable post-hoc from the event stream — see tests/obs/.
//
// Exports:
//   * to_jsonl()        — one JSON object per line; the canonical machine-
//                         readable form consumed by tests and bench tooling.
//   * to_chrome_trace() — Chrome trace_event JSON, loadable in
//                         chrome://tracing or https://ui.perfetto.dev.
//
// Event names and categories are stored as string_view and MUST point at
// storage that outlives the sink — in practice, string literals.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "obs/json.h"
#include "sim/time.h"

namespace here::obs {

// Chrome trace_event phase letters.
enum class TracePhase : char {
  kComplete = 'X',  // span with a duration
  kInstant = 'i',
  kCounter = 'C',
};

struct TraceArg {
  std::string_view key;
  JsonValue value;
};

struct TraceEvent {
  std::int64_t ts_ns = 0;   // simulated time since simulation start
  std::int64_t dur_ns = 0;  // kComplete only
  TracePhase phase = TracePhase::kInstant;
  std::uint32_t tid = 0;    // migrator-thread index for per-thread spans
  std::string_view name;
  std::string_view category;
  std::vector<std::pair<std::string_view, JsonValue>> args;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(TraceEvent event) = 0;
};

// Fixed-capacity ring recorder: keeps the newest `capacity` events,
// overwriting the oldest. The ring is preallocated up front; recording an
// event only moves it into its slot (the event's own arg vector is the one
// allocation the caller already paid for). Recording is thread-safe under a
// ranked mutex (obs.trace_sink, the highest rank): migrator workers may emit
// while holding any other ranked lock, never the reverse.
class RingBufferRecorder final : public TraceSink {
 public:
  explicit RingBufferRecorder(std::size_t capacity = 1u << 16);

  void record(TraceEvent event) override;

  // Events oldest-to-newest (emission order; ties in ts preserve emission
  // order, which consumers rely on for happens-before checks).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return size_;
  }
  [[nodiscard]] std::uint64_t recorded_total() const {
    std::lock_guard lock(mu_);
    return total_;
  }
  // Events lost to ring wrap-around (coverage gap indicator, never silent).
  [[nodiscard]] std::uint64_t overwritten() const {
    std::lock_guard lock(mu_);
    return total_ - size_;
  }
  void clear();

 private:
  mutable common::RankedMutex mu_{common::LockRank::kTraceSink,
                                  "obs.trace_sink"};
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // slot for the next event
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

// The emission front-end handed to instrumented components. Copyable-cheap
// facade over an unowned sink; all costs vanish when no sink is attached.
// Emitting does not change the tracer, so components hold it by const
// reference (never by copy: the owner may attach the sink later).
class Tracer {
 public:
  explicit Tracer(TraceSink* sink = nullptr) : sink_(sink) {}

  // The shared sink-less tracer: what a component uses when it was given no
  // tracer at all.
  [[nodiscard]] static const Tracer& none();

  void set_sink(TraceSink* sink) { sink_ = sink; }
  [[nodiscard]] bool enabled() const { return sink_ != nullptr; }

  void instant(sim::TimePoint t, std::string_view name,
               std::string_view category,
               std::initializer_list<TraceArg> args = {}) const;

  // A span covering [start, start + duration); `tid` distinguishes
  // per-thread lanes (migrator worker index).
  void complete(sim::TimePoint start, sim::Duration duration,
                std::string_view name, std::string_view category,
                std::uint32_t tid = 0,
                std::initializer_list<TraceArg> args = {}) const;

  void counter(sim::TimePoint t, std::string_view name,
               std::string_view category,
               std::initializer_list<TraceArg> args) const;

 private:
  void emit(sim::TimePoint t, sim::Duration duration, TracePhase phase,
            std::uint32_t tid, std::string_view name, std::string_view category,
            std::initializer_list<TraceArg> args) const;

  TraceSink* sink_;
};

// One JSON object per line:
//   {"ts":<ns>,"ph":"X","tid":0,"name":"...","cat":"...","dur":<ns>,"args":{...}}
// ("dur" only for complete spans.) Deterministic byte-for-byte.
[[nodiscard]] std::string to_jsonl(const std::vector<TraceEvent>& events);

// Chrome trace_event format ({"traceEvents":[...]}); ts/dur in microseconds
// as the format requires.
[[nodiscard]] std::string to_chrome_trace(const std::vector<TraceEvent>& events);

}  // namespace here::obs
