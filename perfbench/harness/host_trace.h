// Host-clock instrumentation attached from outside the replication stack.
//
// Everything here plugs into public extension points — obs::TraceSink
// (ReplicationConfig::tracer), hv::GuestProgram and rep::EngineObserver — so
// the stack itself never reads a wall clock (detlint rule D1 keeps wall-clock
// code out of src/, bench/ and tests/; this directory is not scanned).
//
// Attribution rule of the traced run: the simulation executes one event at a
// time on one thread, so the host interval since the previous stamp belongs
// to the stage that the closing stamp ends:
//
//   closing stamp            stage
//   -----------------------  ------------------------------------------
//   guest tick / rx end      guest     (TimedProgram, around tick/on_packet)
//   guest tick / rx begin    residual  (event queue, fabric, heartbeats, ...)
//   "pool.grant"             residual  (work before the epoch's pool grant)
//   "epoch.encode"           capture+encode
//   "ckpt.pause"             frame     (seal, digest fold, transmit, verify)
//   "epoch.commit"           commit    (staging decode/apply, digests, WAL)
//   "period.decide"          release   (observers, output release, Alg. 1)
//
// Stage totals plus the residual therefore sum to the stamped window.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "hv/guest_program.h"
#include "hv/host.h"
#include "obs/trace.h"
#include "replication/engine_observer.h"
#include "sim/stats.h"

namespace here::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Stage : std::uint8_t {
  kGuest,
  kCaptureEncode,
  kFrame,
  kCommit,
  kRelease,
  kResidual,
};
inline constexpr std::size_t kStageCount = 6;

// Trace sink that turns the engine's stage-boundary events into host-time
// intervals. Spans are kept in memory (per-stage histograms) and read
// out when the run ends.
class StageClock final : public obs::TraceSink {
 public:
  // Opens the stamped window; everything before it is ignored.
  void start();
  // Closes the window (the tail goes to the residual) and returns its length.
  double stop();

  void record(obs::TraceEvent event) override;

  void guest_begin() { close(Stage::kResidual); }
  void guest_end() { close(Stage::kGuest); }

  [[nodiscard]] double total_s(Stage stage) const {
    return totals_[static_cast<std::size_t>(stage)];
  }
  // Per-interval samples in milliseconds (the per-epoch stages only).
  [[nodiscard]] const sim::Histogram& samples_ms(Stage stage) const {
    return samples_[static_cast<std::size_t>(stage)];
  }

 private:
  void close(Stage stage);

  bool active_ = false;
  Clock::time_point window_start_{};
  Clock::time_point last_{};
  std::array<double, kStageCount> totals_{};
  std::array<sim::Histogram, kStageCount> samples_{};
};

// Delegating guest program: runs `inner` unchanged and stamps the host clock
// around its tick() and on_packet() so guest work is its own stage.
class TimedProgram final : public hv::GuestProgram {
 public:
  TimedProgram(std::unique_ptr<hv::GuestProgram> inner, StageClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void start(hv::GuestEnv& env) override { inner_->start(env); }
  void tick(hv::GuestEnv& env, sim::Duration dt) override;
  void on_packet(hv::GuestEnv& env, const net::Packet& packet) override;
  void on_device_switch(hv::GuestEnv& env) override {
    inner_->on_device_switch(env);
  }
  [[nodiscard]] std::unique_ptr<hv::GuestProgram> clone() const override {
    return std::make_unique<TimedProgram>(inner_->clone(), clock_);
  }

  [[nodiscard]] hv::GuestProgram& inner() { return *inner_; }

 private:
  std::unique_ptr<hv::GuestProgram> inner_;
  StageClock* clock_;
};

// Two guest programs sharing one VM: a dirtying writer plus a network
// service, so every workload has client-visible output behind the
// replication engine's output buffer.
class GuestMix final : public hv::GuestProgram {
 public:
  GuestMix(std::unique_ptr<hv::GuestProgram> a,
           std::unique_ptr<hv::GuestProgram> b)
      : a_(std::move(a)), b_(std::move(b)) {}

  void start(hv::GuestEnv& env) override;
  void tick(hv::GuestEnv& env, sim::Duration dt) override;
  void on_packet(hv::GuestEnv& env, const net::Packet& packet) override;
  void on_device_switch(hv::GuestEnv& env) override;
  [[nodiscard]] std::unique_ptr<hv::GuestProgram> clone() const override {
    return std::make_unique<GuestMix>(a_->clone(), b_->clone());
  }

  [[nodiscard]] hv::GuestProgram& first() { return *a_; }
  [[nodiscard]] hv::GuestProgram& second() { return *b_; }

 private:
  std::unique_ptr<hv::GuestProgram> a_;
  std::unique_ptr<hv::GuestProgram> b_;
};

// What the per-engine observers share with the harness.
struct EpochTally {
  bool measuring = false;
  // Host ms between consecutive commits of one engine, measured phase only.
  std::vector<double> epoch_host_ms;
  std::uint64_t aborts_in_phase = 0;
  // Aborts while both of the engine's hosts were alive: no injected fault
  // explains them.
  std::uint64_t unexplained_aborts = 0;
};

// Per-engine lifecycle observer feeding an EpochTally.
class EpochClock final : public rep::EngineObserver {
 public:
  EpochClock(EpochTally* tally, const hv::Host* primary,
             const hv::Host* secondary)
      : tally_(tally), primary_(primary), secondary_(secondary) {}

  void on_checkpoint_committed(const rep::CheckpointRecord& record) override;
  void on_degraded(const rep::DegradedEvent& event) override;

 private:
  EpochTally* tally_;
  const hv::Host* primary_;
  const hv::Host* secondary_;
  Clock::time_point last_{};
  bool have_last_ = false;
};

}  // namespace here::perfbench
