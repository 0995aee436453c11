#include "harness/host_trace.h"

namespace here::perfbench {

void StageClock::start() {
  active_ = true;
  window_start_ = Clock::now();
  last_ = window_start_;
}

double StageClock::stop() {
  close(Stage::kResidual);
  active_ = false;
  return seconds_between(window_start_, last_);
}

void StageClock::record(obs::TraceEvent event) {
  // Migrator workers may emit from their own threads; the stage-boundary
  // events below are emitted only from the simulation thread, so the name
  // test comes before any state is touched.
  const std::string_view name = event.name;
  if (name == "epoch.encode") {
    close(Stage::kCaptureEncode);
  } else if (name == "ckpt.pause") {
    close(Stage::kFrame);
  } else if (name == "epoch.commit") {
    close(Stage::kCommit);
  } else if (name == "period.decide") {
    close(Stage::kRelease);
  } else if (name == "pool.grant") {
    close(Stage::kResidual);
  }
}

void StageClock::close(Stage stage) {
  if (!active_) return;
  const Clock::time_point now = Clock::now();
  const double s = seconds_between(last_, now);
  last_ = now;
  const auto i = static_cast<std::size_t>(stage);
  totals_[i] += s;
  if (stage != Stage::kGuest && stage != Stage::kResidual) {
    samples_[i].add(s * 1e3);
  }
}

void TimedProgram::tick(hv::GuestEnv& env, sim::Duration dt) {
  clock_->guest_begin();
  inner_->tick(env, dt);
  clock_->guest_end();
}

void TimedProgram::on_packet(hv::GuestEnv& env, const net::Packet& packet) {
  clock_->guest_begin();
  inner_->on_packet(env, packet);
  clock_->guest_end();
}

void GuestMix::start(hv::GuestEnv& env) {
  a_->start(env);
  b_->start(env);
}

void GuestMix::tick(hv::GuestEnv& env, sim::Duration dt) {
  a_->tick(env, dt);
  b_->tick(env, dt);
}

void GuestMix::on_packet(hv::GuestEnv& env, const net::Packet& packet) {
  a_->on_packet(env, packet);
  b_->on_packet(env, packet);
}

void GuestMix::on_device_switch(hv::GuestEnv& env) {
  a_->on_device_switch(env);
  b_->on_device_switch(env);
}

void EpochClock::on_checkpoint_committed(const rep::CheckpointRecord&) {
  const Clock::time_point now = Clock::now();
  if (tally_->measuring && have_last_) {
    tally_->epoch_host_ms.push_back(seconds_between(last_, now) * 1e3);
  }
  last_ = now;
  have_last_ = true;
}

void EpochClock::on_degraded(const rep::DegradedEvent& event) {
  if (event.kind != rep::DegradedKind::kEpochAborted) return;
  if (tally_->measuring) ++tally_->aborts_in_phase;
  if (primary_->alive() && secondary_->alive()) ++tally_->unexplained_aborts;
}

}  // namespace here::perfbench
