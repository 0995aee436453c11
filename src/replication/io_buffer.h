// Remus-style outbound I/O buffering (§3.2 step 6, §5.2).
//
// Every packet the protected VM emits during execution epoch N is held until
// checkpoint N commits on the replica; only then is it released to the
// external network. This is the output-commit property: an external client
// can never observe state that a failover would roll back.
#pragma once

#include <cstdint>
#include <deque>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "simnet/fabric.h"

namespace here::rep {

class OutboundBuffer {
 public:
  explicit OutboundBuffer(net::Fabric& fabric) : fabric_(fabric) {}

  // Tags the packet with the current execution epoch and holds it.
  void capture(const net::Packet& packet, std::uint64_t epoch,
               sim::TimePoint now);

  // Releases (sends, in capture order) every packet with epoch <= `epoch`.
  // Returns the number released.
  std::size_t release_up_to(std::uint64_t epoch, sim::TimePoint now);

  // Drops all unreleased packets (primary died; their epoch never
  // committed, so clients must never see them). Returns how many were lost.
  std::size_t drop_all();

  [[nodiscard]] std::size_t pending() const { return held_.size(); }
  [[nodiscard]] std::uint64_t captured_total() const { return captured_; }
  [[nodiscard]] std::uint64_t released_total() const { return released_; }
  [[nodiscard]] std::uint64_t dropped_total() const { return dropped_; }
  [[nodiscard]] std::uint64_t pending_bytes() const { return pending_bytes_; }

  // Distribution of buffering delays (ms), for the Fig. 17 analysis.
  [[nodiscard]] const sim::Histogram& delay_ms() const { return delay_ms_; }

  // Observability hooks (src/obs); pointers are borrowed, either may be
  // null. With a tracer attached, every released packet emits an "io.release"
  // instant tagged with the packet's *own* epoch — the trace-level witness of
  // the output-commit property (no release event may precede its epoch's
  // commit event; checked by tests/obs/trace_invariants_test.cc).
  void attach_obs(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

 private:
  struct Held {
    net::Packet packet;
    std::uint64_t epoch;
    sim::TimePoint captured_at;
  };

  net::Fabric& fabric_;
  std::deque<Held> held_;
  std::uint64_t captured_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t pending_bytes_ = 0;
  sim::Histogram delay_ms_;

  // Per-packet emitters: null guards spare untraced runs the args/histograms.
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_captured_ = nullptr;
  obs::Counter* m_released_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::FixedHistogram* m_delay_ms_ = nullptr;
};

}  // namespace here::rep
