// FaultInjector: arms a FaultPlan onto a live simulation.
//
// The injector owns a registry of named targets (hosts, links, engines) and
// translates each FaultSpec into concrete hook calls — hv::Host fault
// injection, net::Fabric link impairments, hv::VirtualDisk degradation, and
// rep::ReplicationEngine migrator stalls — scheduled as ordinary simulation
// events. Arming is fully deterministic: events are scheduled in the plan's
// stable order at arm() time, so two runs with the same plan and topology
// interleave identically with the workload.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "simnet/fabric.h"

namespace here::hv {
class Host;
}
namespace here::rep {
class ReplicationEngine;
class Testbed;
}

namespace here::faults {

class FaultInjector {
 public:
  FaultInjector(sim::Simulation& simulation, net::Fabric& fabric,
                obs::Tracer* tracer = nullptr,
                obs::MetricsRegistry* metrics = nullptr);

  // --- Target registry --------------------------------------------------------

  void register_host(std::string name, hv::Host& host);
  void register_link(std::string name, net::NodeId a, net::NodeId b);
  void register_engine(std::string name, rep::ReplicationEngine& engine);

  // Convenience for the canonical two-host testbed: registers hosts
  // "host-a" / "host-b", links "ic" (interconnect) / "eth" (management
  // Ethernet), and engine "engine".
  void register_testbed(rep::Testbed& testbed);

  // --- Arming -----------------------------------------------------------------

  // Schedules every spec in `plan` (apply at `spec.at`, matching clear at
  // `spec.at + spec.duration` when duration > 0). Unknown target names throw
  // std::invalid_argument immediately — a plan/topology mismatch is a harness
  // bug, not a runtime fault. Times already in the past fire on the next
  // simulation step. May be called repeatedly to stack plans.
  void arm(const FaultPlan& plan);

  // --- Audit log --------------------------------------------------------------

  // Every application the injector performed, in execution order. `clear`
  // marks the automatic restore half of a transient fault. Determinism tests
  // compare these logs across same-seed runs.
  struct Applied {
    FaultSpec spec;
    sim::TimePoint applied_at{};
    bool clear = false;
  };
  [[nodiscard]] const std::vector<Applied>& log() const { return log_; }
  [[nodiscard]] std::size_t injected_count() const { return log_.size(); }

 private:
  struct Link {
    std::string name;
    net::NodeId a = net::kInvalidNode;
    net::NodeId b = net::kInvalidNode;
  };

  [[nodiscard]] hv::Host& host_for(const FaultSpec& spec);
  [[nodiscard]] const Link& link_for(const FaultSpec& spec);
  [[nodiscard]] rep::ReplicationEngine& engine_for(const FaultSpec& spec);

  void apply(const FaultSpec& spec);
  void clear(const FaultSpec& spec);
  void record(const FaultSpec& spec, bool clear);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  // The borrowed tracer, else obs::Tracer::none().
  const obs::Tracer& tracer_;
  // Holds faults.injected when no registry was borrowed.
  obs::MetricsRegistry own_metrics_;
  obs::Counter& m_injected_;

  std::vector<std::pair<std::string, hv::Host*>> hosts_;
  std::vector<Link> links_;
  std::vector<std::pair<std::string, rep::ReplicationEngine*>> engines_;
  std::vector<Applied> log_;
};

}  // namespace here::faults
