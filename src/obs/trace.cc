#include "obs/trace.h"

namespace here::obs {

RingBufferRecorder::RingBufferRecorder(std::size_t capacity) {
  ring_.resize(capacity == 0 ? 1 : capacity);
}

void RingBufferRecorder::record(TraceEvent event) {
  std::lock_guard lock(mu_);
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++total_;
}

std::vector<TraceEvent> RingBufferRecorder::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t start = (next_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void RingBufferRecorder::clear() {
  std::lock_guard lock(mu_);
  next_ = 0;
  size_ = 0;
  total_ = 0;
}

const Tracer& Tracer::none() {
  static const Tracer tracer;
  return tracer;
}

void Tracer::emit(sim::TimePoint t, sim::Duration duration, TracePhase phase,
                  std::uint32_t tid, std::string_view name,
                  std::string_view category,
                  std::initializer_list<TraceArg> args) const {
  TraceEvent e;
  e.ts_ns = t.ns();
  e.dur_ns = duration.count();
  e.phase = phase;
  e.tid = tid;
  e.name = name;
  e.category = category;
  e.args.reserve(args.size());
  for (const TraceArg& a : args) e.args.emplace_back(a.key, a.value);
  sink_->record(std::move(e));
}

void Tracer::instant(sim::TimePoint t, std::string_view name,
                     std::string_view category,
                     std::initializer_list<TraceArg> args) const {
  if (sink_ == nullptr) return;
  emit(t, sim::Duration{0}, TracePhase::kInstant, 0, name, category, args);
}

void Tracer::complete(sim::TimePoint start, sim::Duration duration,
                      std::string_view name, std::string_view category,
                      std::uint32_t tid,
                      std::initializer_list<TraceArg> args) const {
  if (sink_ == nullptr) return;
  emit(start, duration, TracePhase::kComplete, tid, name, category, args);
}

void Tracer::counter(sim::TimePoint t, std::string_view name,
                     std::string_view category,
                     std::initializer_list<TraceArg> args) const {
  if (sink_ == nullptr) return;
  emit(t, sim::Duration{0}, TracePhase::kCounter, 0, name, category, args);
}

namespace {

JsonValue args_object(const TraceEvent& e) {
  JsonValue args = JsonValue::object();
  for (const auto& [key, value] : e.args) args.set(key, value);
  return args;
}

}  // namespace

std::string to_jsonl(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& e : events) {
    JsonValue line = JsonValue::object();
    line.set("ts", e.ts_ns);
    line.set("ph", std::string(1, static_cast<char>(e.phase)));
    line.set("tid", e.tid);
    line.set("name", e.name);
    line.set("cat", e.category);
    if (e.phase == TracePhase::kComplete) line.set("dur", e.dur_ns);
    if (!e.args.empty()) line.set("args", args_object(e));
    line.dump_to(out);
    out.push_back('\n');
  }
  return out;
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events) {
  JsonValue doc = JsonValue::object();
  JsonValue& list = doc.set("traceEvents", JsonValue::array());
  for (const TraceEvent& e : events) {
    JsonValue ev = JsonValue::object();
    ev.set("name", e.name);
    ev.set("cat", e.category);
    ev.set("ph", std::string(1, static_cast<char>(e.phase)));
    // Chrome's clock unit is microseconds; keep sub-us precision as decimals.
    ev.set("ts", static_cast<double>(e.ts_ns) / 1000.0);
    if (e.phase == TracePhase::kComplete) {
      ev.set("dur", static_cast<double>(e.dur_ns) / 1000.0);
    }
    ev.set("pid", 1);
    ev.set("tid", e.tid);
    if (!e.args.empty()) ev.set("args", args_object(e));
    list.push_back(std::move(ev));
  }
  doc.set("displayTimeUnit", "ms");
  return doc.dump();
}

}  // namespace here::obs
