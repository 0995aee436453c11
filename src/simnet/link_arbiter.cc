#include "simnet/link_arbiter.h"

#include <algorithm>
#include <stdexcept>

namespace here::net {

LinkArbiter::LinkArbiter(sim::Simulation& simulation, double bytes_per_second)
    : sim_(simulation), capacity_(bytes_per_second) {
  if (!(capacity_ > 0.0)) {
    throw std::invalid_argument("LinkArbiter: capacity must be positive");
  }
  attach_obs(nullptr, nullptr);
}

LinkArbiter::FlowId LinkArbiter::register_flow(std::string name,
                                               double weight) {
  Flow flow;
  flow.stats.name = std::move(name);
  flow.weight = weight > 0.0 ? weight : 1.0;
  flows_.push_back(std::move(flow));
  register_flow_metrics(flows_.back());
  return static_cast<FlowId>(flows_.size() - 1);
}

void LinkArbiter::set_weight(FlowId flow, double weight) {
  if (flow >= flows_.size()) {
    throw std::invalid_argument("LinkArbiter: unknown flow id");
  }
  flows_[flow].weight = weight > 0.0 ? weight : 1.0;
}

double LinkArbiter::flow_weight(FlowId flow) const {
  if (flow >= flows_.size()) {
    throw std::invalid_argument("LinkArbiter: unknown flow id");
  }
  return flows_[flow].weight;
}

const LinkArbiter::FlowStats& LinkArbiter::stats(FlowId flow) const {
  if (flow >= flows_.size()) {
    throw std::invalid_argument("LinkArbiter: unknown flow id");
  }
  return flows_[flow].stats;
}

sim::TimePoint LinkArbiter::plan_reservation(FlowId flow, std::uint64_t bytes,
                                             sim::TimePoint now,
                                             std::vector<Segment>& plan) const {
  const double w_self = flows_[flow].weight;
  double remaining = static_cast<double>(bytes);
  sim::TimePoint t = now;
  // Each iteration either finishes the transfer or advances t to the next
  // segment boundary; boundaries are finite, so this terminates. The guard
  // bounds pathological float behaviour, not expected control flow.
  for (int guard = 0; guard < 1000000; ++guard) {
    double reserved = 0.0;
    double weight_sum = w_self;
    bool have_next = false;
    sim::TimePoint next{};
    std::vector<char> counted(flows_.size(), 0);
    for (const Segment& s : segments_) {
      if (s.end <= t) continue;
      if (s.start <= t) {
        reserved += s.rate;
        // One weight per *flow* active on the interval, self never twice.
        if (s.flow != flow && counted[s.flow] == 0) {
          counted[s.flow] = 1;
          weight_sum += flows_[s.flow].weight;
        }
        if (!have_next || s.end < next) {
          next = s.end;
          have_next = true;
        }
      } else if (!have_next || s.start < next) {
        next = s.start;
        have_next = true;
      }
    }
    // Leftover capacity, capped at the weighted fair share. Taking only
    // leftover keeps the instantaneous aggregate <= capacity even though
    // earlier grants are never re-planned.
    const double share = capacity_ * w_self / weight_sum;
    const double allowed = std::min(capacity_ - reserved, share);
    if (allowed < 1.0) {
      // Fully booked (sub-byte/s leftovers queue too): wait for the next
      // boundary. reserved > 0 here, so a covering segment supplied `next`.
      t = next;
      continue;
    }
    const sim::Duration finish = sim::from_seconds(remaining / allowed);
    if (!have_next || t + finish <= next) {
      plan.push_back({t, t + finish, allowed, flow});
      return t + finish;
    }
    plan.push_back({t, next, allowed, flow});
    remaining -= allowed * sim::to_seconds(next - t);
    t = next;
  }
  // Unreachable in practice; drain the remainder at full rate.
  const sim::Duration finish = sim::from_seconds(remaining / capacity_);
  plan.push_back({t, t + finish, capacity_, flow});
  return t + finish;
}

void LinkArbiter::prune(sim::TimePoint now) {
  std::erase_if(segments_, [now](const Segment& s) { return s.end <= now; });
}

double LinkArbiter::current_reserved_rate() const {
  const sim::TimePoint now = sim_.now();
  double sum = 0.0;
  for (const Segment& s : segments_) {
    if (s.start <= now && s.end > now) sum += s.rate;
  }
  return sum;
}

LinkArbiter::Reservation LinkArbiter::request(FlowId flow,
                                              std::uint64_t bytes) {
  if (flow >= flows_.size()) {
    throw std::invalid_argument("LinkArbiter: unknown flow id");
  }
  const sim::TimePoint now = sim_.now();
  prune(now);

  Reservation r;
  r.ideal = sim::from_seconds(static_cast<double>(bytes) / capacity_);
  if (bytes > 0) {
    std::vector<Segment> plan;
    const sim::TimePoint end = plan_reservation(flow, bytes, now, plan);
    segments_.insert(segments_.end(), plan.begin(), plan.end());
    // Rates are piecewise constant with breakpoints only at segment starts;
    // plan segments break at every pre-existing boundary, so the new peak
    // (if any) is at one of the plan segments' starts.
    for (const Segment& p : plan) {
      double sum = 0.0;
      for (const Segment& s : segments_) {
        if (s.start <= p.start && s.end > p.start) sum += s.rate;
      }
      peak_reserved_rate_ = std::max(peak_reserved_rate_, sum);
    }
    r.actual = end - now;
    if (r.actual < r.ideal) r.actual = r.ideal;  // rounding guard
  }

  Flow& f = flows_[flow];
  ++f.stats.requests;
  f.stats.bytes += bytes;
  f.stats.ideal_time += r.ideal;
  f.stats.actual_time += r.actual;
  f.stats.queueing += r.actual - r.ideal;
  total_bytes_ += bytes;

  tracer_->instant(now, "arb.grant", "net",
                   {{"flow", f.stats.name},
                    {"bytes", bytes},
                    {"ideal_ns", r.ideal.count()},
                    {"actual_ns", r.actual.count()}});
  m_requests_->add(1);
  m_bytes_->add(bytes);
  m_queue_ms_->add(sim::to_millis(r.actual - r.ideal));
  if (r.actual > r.ideal) m_queued_->add(1);
  if (r.actual > sim::Duration::zero()) {
    f.m_goodput->set(static_cast<double>(bytes) * 8.0 / 1e6 /
                     sim::to_seconds(r.actual));
  }
  f.m_queue_ms->set(sim::to_millis(f.stats.queueing));
  return r;
}

LinkArbiter::Reservation LinkArbiter::estimate(FlowId flow,
                                               std::uint64_t bytes) const {
  if (flow >= flows_.size()) {
    throw std::invalid_argument("LinkArbiter: unknown flow id");
  }
  Reservation r;
  r.ideal = sim::from_seconds(static_cast<double>(bytes) / capacity_);
  if (bytes > 0) {
    std::vector<Segment> plan;
    const sim::TimePoint end =
        plan_reservation(flow, bytes, sim_.now(), plan);
    r.actual = end - sim_.now();
    if (r.actual < r.ideal) r.actual = r.ideal;
  }
  return r;
}

void LinkArbiter::register_flow_metrics(Flow& flow) {
  const std::string prefix = "net.arb." + flow.stats.name + ".";
  flow.m_goodput = &metrics_->gauge(prefix + "goodput_mbps");
  flow.m_queue_ms = &metrics_->gauge(prefix + "queue_ms");
}

void LinkArbiter::attach_obs(const obs::Tracer* tracer,
                             obs::MetricsRegistry* metrics) {
  tracer_ = tracer != nullptr ? tracer : &obs::Tracer::none();
  metrics_ = metrics != nullptr ? metrics : &own_metrics_;
  m_requests_ = &metrics_->counter("net.arb.requests");
  m_bytes_ = &metrics_->counter("net.arb.bytes");
  m_queued_ = &metrics_->counter("net.arb.queued_requests");
  m_queue_ms_ = &metrics_->histogram(
      "net.arb.queue_ms", {0.1, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500});
  for (Flow& flow : flows_) register_flow_metrics(flow);
}

}  // namespace here::net
