// Weighted-fair-queuing bandwidth arbiter for a shared replication link.
//
// N replication engines funneling checkpoints into one secondary host share
// its ingest link, but each engine's time model priced transfers as if the
// wire were dedicated. The LinkArbiter closes that gap: every epoch transfer
// reserves capacity on the shared link, and contention surfaces as extra
// serialization time that the engine folds into its pause — which Algorithm 1
// then feeds back into that VM's period. Per-flow goodput and queueing land
// in src/obs.
//
// Model: admission-time fluid WFQ, non-preemptive and deterministic.
// Reservations are piecewise-constant rate segments over virtual time. A
// transfer admitted at time t is granted, on each interval between existing
// segment boundaries,
//
//   rate = min(capacity - sum of rates already reserved on the interval,
//              capacity * w_self / (w_self + sum of weights active there))
//
// and consumes intervals (queueing when the link is fully booked) until its
// bytes drain. Because a newcomer only ever takes *leftover* capacity, the
// aggregate reserved rate never exceeds the configured capacity at any
// instant — the property the fleet acceptance tests pin (peak_reserved_rate).
// Already-granted transfers are never re-planned, so the schedule of earlier
// engine events is stable: single-flow runs are byte-identical to the
// dedicated-wire model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace here::net {

class LinkArbiter {
 public:
  using FlowId = std::uint32_t;

  // `bytes_per_second` is the shared link's capacity (> 0; e.g. the time
  // model's wire_bytes_per_second).
  LinkArbiter(sim::Simulation& simulation, double bytes_per_second);

  LinkArbiter(const LinkArbiter&) = delete;
  LinkArbiter& operator=(const LinkArbiter&) = delete;

  // Registers a flow (one per engine). `weight` scales its fair share (> 0,
  // else clamped to 1). Names need not be unique (re-protection generations
  // reuse the domain name).
  FlowId register_flow(std::string name, double weight = 1.0);

  // Re-weights a flow; applies to its *next* reservation (non-preemptive).
  void set_weight(FlowId flow, double weight);
  [[nodiscard]] double flow_weight(FlowId flow) const;

  struct Reservation {
    sim::Duration ideal{};   // duration on a dedicated link
    sim::Duration actual{};  // granted completion time from now
    [[nodiscard]] sim::Duration queueing() const { return actual - ideal; }
  };

  // Reserves capacity for `bytes` starting now; returns the granted timing.
  // actual >= ideal always; equality means the link was uncontended.
  Reservation request(FlowId flow, std::uint64_t bytes);

  // Pure query: what request() would grant now, without reserving.
  [[nodiscard]] Reservation estimate(FlowId flow, std::uint64_t bytes) const;

  struct FlowStats {
    std::string name;
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
    sim::Duration ideal_time{};   // sum of dedicated-link durations
    sim::Duration actual_time{};  // sum of granted durations
    sim::Duration queueing{};     // actual_time - ideal_time, accumulated
  };

  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  [[nodiscard]] const FlowStats& stats(FlowId flow) const;
  [[nodiscard]] double capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  // Highest instantaneous aggregate reserved rate ever granted. By
  // construction <= capacity(); the fleet tests assert exactly that.
  [[nodiscard]] double peak_reserved_rate() const {
    return peak_reserved_rate_;
  }
  // Aggregate rate reserved across all flows at this instant (also <=
  // capacity). The placement rebalancer reads this as the link's current
  // commitment, versus peak_reserved_rate()'s all-time high-water mark.
  [[nodiscard]] double current_reserved_rate() const;

  // Observability (borrowed; either may be null, both must outlive the
  // arbiter). Per-request "arb.grant" instants plus net.arb.* counters and
  // per-flow goodput/queueing gauges (net.arb.<name>.*). Until attached (or
  // with null) the arbiter traces to obs::Tracer::none() and keeps its
  // instruments in a private registry nobody reads.
  void attach_obs(const obs::Tracer* tracer, obs::MetricsRegistry* metrics);

 private:
  struct Segment {
    sim::TimePoint start;
    sim::TimePoint end;
    double rate = 0.0;  // bytes/second reserved on [start, end)
    FlowId flow = 0;
  };

  struct Flow {
    FlowStats stats;
    double weight = 1.0;
    obs::Gauge* m_goodput = nullptr;
    obs::Gauge* m_queue_ms = nullptr;
  };

  // Plans the piecewise reservation for `bytes` starting at `now`; appends
  // the planned segments to `plan` and returns the completion time.
  [[nodiscard]] sim::TimePoint plan_reservation(
      FlowId flow, std::uint64_t bytes, sim::TimePoint now,
      std::vector<Segment>& plan) const;
  void prune(sim::TimePoint now);
  void register_flow_metrics(Flow& flow);

  sim::Simulation& sim_;
  double capacity_;
  std::vector<Flow> flows_;       // indexed by FlowId (registration order)
  std::vector<Segment> segments_;  // active + future reservations
  std::uint64_t total_bytes_ = 0;
  double peak_reserved_rate_ = 0.0;

  // Never null: the attached tracer/registry, else the fallbacks.
  const obs::Tracer* tracer_ = &obs::Tracer::none();
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_ = &own_metrics_;
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_queued_ = nullptr;
  obs::FixedHistogram* m_queue_ms_ = nullptr;
};

}  // namespace here::net
