#include "faults/injector.h"

#include <stdexcept>

#include "hv/host.h"
#include "hv/hypervisor.h"
#include "replication/replication_engine.h"
#include "replication/testbed.h"

namespace here::faults {

FaultInjector::FaultInjector(sim::Simulation& simulation, net::Fabric& fabric,
                             obs::Tracer* tracer,
                             obs::MetricsRegistry* metrics)
    : sim_(simulation),
      fabric_(fabric),
      tracer_(tracer != nullptr ? *tracer : obs::Tracer::none()),
      m_injected_((metrics != nullptr ? *metrics : own_metrics_)
                      .counter("faults.injected")) {}

void FaultInjector::register_host(std::string name, hv::Host& host) {
  hosts_.emplace_back(std::move(name), &host);
}

void FaultInjector::register_link(std::string name, net::NodeId a,
                                  net::NodeId b) {
  links_.push_back({std::move(name), a, b});
}

void FaultInjector::register_engine(std::string name,
                                    rep::ReplicationEngine& engine) {
  engines_.emplace_back(std::move(name), &engine);
}

void FaultInjector::register_testbed(rep::Testbed& testbed) {
  register_host("host-a", testbed.primary());
  register_host("host-b", testbed.secondary());
  register_link("ic", testbed.primary().ic_node(),
                testbed.secondary().ic_node());
  register_link("eth", testbed.primary().eth_node(),
                testbed.secondary().eth_node());
  register_engine("engine", testbed.engine());
}

hv::Host& FaultInjector::host_for(const FaultSpec& spec) {
  for (auto& [name, host] : hosts_) {
    if (name == spec.target) return *host;
  }
  throw std::invalid_argument("FaultInjector: unknown host '" + spec.target +
                              "' for " + std::string(to_string(spec.type)));
}

const FaultInjector::Link& FaultInjector::link_for(const FaultSpec& spec) {
  for (const Link& link : links_) {
    if (link.name == spec.target) return link;
  }
  throw std::invalid_argument("FaultInjector: unknown link '" + spec.target +
                              "' for " + std::string(to_string(spec.type)));
}

rep::ReplicationEngine& FaultInjector::engine_for(const FaultSpec& spec) {
  for (auto& [name, engine] : engines_) {
    if (name == spec.target) return *engine;
  }
  throw std::invalid_argument("FaultInjector: unknown engine '" + spec.target +
                              "' for " + std::string(to_string(spec.type)));
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultSpec& spec : plan.schedule()) {
    // Resolve now so a plan/topology mismatch fails at arm() time.
    switch (spec.type) {
      case FaultType::kHostCrash:
      case FaultType::kHostHang:
      case FaultType::kHostRepair:
      case FaultType::kDiskSlowdown:
      case FaultType::kDiskWriteErrors:
      case FaultType::kHypervisorMicroreboot:
      case FaultType::kRecoveryRace:
        (void)host_for(spec);
        break;
      case FaultType::kLinkPartition:
      case FaultType::kLinkHeal:
      case FaultType::kLinkLoss:
      case FaultType::kLinkLatency:
      case FaultType::kLinkBandwidth:
      case FaultType::kLinkBitErrors:
      case FaultType::kLinkTruncation:
      case FaultType::kLinkDuplication:
      case FaultType::kLinkReordering:
        (void)link_for(spec);
        break;
      case FaultType::kMigratorStall:
      case FaultType::kSecondaryCrash:
      case FaultType::kWalTornWrite:
      case FaultType::kWalTruncation:
        (void)engine_for(spec);
        break;
    }
    sim_.schedule_at(spec.at, [this, spec] { apply(spec); }, "fault-inject");
    if (spec.duration > sim::Duration{}) {
      sim_.schedule_at(spec.at + spec.duration, [this, spec] { clear(spec); },
                       "fault-clear");
    }
  }
}

void FaultInjector::apply(const FaultSpec& spec) {
  switch (spec.type) {
    case FaultType::kHostCrash:
      host_for(spec).inject_fault(hv::FaultKind::kCrash);
      break;
    case FaultType::kHostHang:
      host_for(spec).inject_fault(hv::FaultKind::kHang);
      break;
    case FaultType::kHostRepair:
      host_for(spec).repair();
      break;
    case FaultType::kLinkPartition: {
      const Link& link = link_for(spec);
      fabric_.set_link_down(link.a, link.b, true);
      break;
    }
    case FaultType::kLinkHeal: {
      const Link& link = link_for(spec);
      fabric_.set_link_down(link.a, link.b, false);
      break;
    }
    case FaultType::kLinkLoss: {
      const Link& link = link_for(spec);
      fabric_.set_link_loss(link.a, link.b, spec.magnitude);
      break;
    }
    case FaultType::kLinkLatency: {
      const Link& link = link_for(spec);
      fabric_.set_link_extra_latency(link.a, link.b, spec.amount);
      break;
    }
    case FaultType::kLinkBandwidth: {
      const Link& link = link_for(spec);
      fabric_.set_link_bandwidth_factor(link.a, link.b, spec.magnitude);
      break;
    }
    case FaultType::kDiskSlowdown: {
      hv::Host& host = host_for(spec);
      for (const auto& vm : host.hypervisor().vms()) {
        host.hypervisor().disk(*vm).set_slowdown(spec.magnitude);
      }
      break;
    }
    case FaultType::kDiskWriteErrors: {
      hv::Host& host = host_for(spec);
      for (const auto& vm : host.hypervisor().vms()) {
        host.hypervisor().disk(*vm).set_write_failures(true);
      }
      break;
    }
    case FaultType::kLinkBitErrors: {
      const Link& link = link_for(spec);
      fabric_.set_link_bit_error_rate(link.a, link.b, spec.magnitude);
      break;
    }
    case FaultType::kLinkTruncation: {
      const Link& link = link_for(spec);
      fabric_.set_link_truncation(link.a, link.b, spec.magnitude);
      break;
    }
    case FaultType::kLinkDuplication: {
      const Link& link = link_for(spec);
      fabric_.set_link_duplication(link.a, link.b, spec.magnitude);
      break;
    }
    case FaultType::kLinkReordering: {
      const Link& link = link_for(spec);
      fabric_.set_link_reordering(link.a, link.b, spec.magnitude);
      break;
    }
    case FaultType::kMigratorStall:
      engine_for(spec).inject_migrator_stall(spec.amount);
      break;
    case FaultType::kSecondaryCrash:
      engine_for(spec).inject_secondary_crash(spec.duration);
      break;
    case FaultType::kWalTornWrite:
      engine_for(spec).inject_wal_torn_write(
          static_cast<std::uint64_t>(spec.magnitude));
      break;
    case FaultType::kWalTruncation:
      engine_for(spec).inject_wal_truncation(
          static_cast<std::uint64_t>(spec.magnitude));
      break;
    case FaultType::kHypervisorMicroreboot:
      // Only meaningful on an already-failed host; a no-op otherwise (the
      // random generator can land one on a healthy host).
      (void)host_for(spec).begin_microreboot(spec.amount);
      break;
    case FaultType::kRecoveryRace: {
      // The paper-hard scenario: fail-stop crash with in-place recovery
      // `amount` later, racing the secondary's failover decision.
      hv::Host& host = host_for(spec);
      host.inject_fault(hv::FaultKind::kCrash);
      (void)host.begin_microreboot(spec.amount);
      break;
    }
  }
  record(spec, /*clear=*/false);
}

void FaultInjector::clear(const FaultSpec& spec) {
  switch (spec.type) {
    case FaultType::kHostCrash:
    case FaultType::kHostHang:
      host_for(spec).repair();
      break;
    case FaultType::kLinkPartition: {
      const Link& link = link_for(spec);
      fabric_.set_link_down(link.a, link.b, false);
      break;
    }
    case FaultType::kLinkLoss: {
      const Link& link = link_for(spec);
      fabric_.set_link_loss(link.a, link.b, 0.0);
      break;
    }
    case FaultType::kLinkLatency: {
      const Link& link = link_for(spec);
      fabric_.set_link_extra_latency(link.a, link.b, sim::Duration{});
      break;
    }
    case FaultType::kLinkBandwidth: {
      const Link& link = link_for(spec);
      fabric_.set_link_bandwidth_factor(link.a, link.b, 1.0);
      break;
    }
    case FaultType::kLinkBitErrors: {
      const Link& link = link_for(spec);
      fabric_.set_link_bit_error_rate(link.a, link.b, 0.0);
      break;
    }
    case FaultType::kLinkTruncation: {
      const Link& link = link_for(spec);
      fabric_.set_link_truncation(link.a, link.b, 0.0);
      break;
    }
    case FaultType::kLinkDuplication: {
      const Link& link = link_for(spec);
      fabric_.set_link_duplication(link.a, link.b, 0.0);
      break;
    }
    case FaultType::kLinkReordering: {
      const Link& link = link_for(spec);
      fabric_.set_link_reordering(link.a, link.b, 0.0);
      break;
    }
    case FaultType::kDiskSlowdown: {
      hv::Host& host = host_for(spec);
      for (const auto& vm : host.hypervisor().vms()) {
        host.hypervisor().disk(*vm).set_slowdown(1.0);
      }
      break;
    }
    case FaultType::kDiskWriteErrors: {
      hv::Host& host = host_for(spec);
      for (const auto& vm : host.hypervisor().vms()) {
        host.hypervisor().disk(*vm).set_write_failures(false);
      }
      break;
    }
    case FaultType::kHostRepair:
    case FaultType::kLinkHeal:
    case FaultType::kMigratorStall:
    case FaultType::kSecondaryCrash:  // reboot is self-scheduled by the engine
    case FaultType::kWalTornWrite:
    case FaultType::kWalTruncation:
    case FaultType::kHypervisorMicroreboot:  // recovery completes itself
    case FaultType::kRecoveryRace:
      return;  // one-shot faults have nothing to clear
  }
  record(spec, /*clear=*/true);
}

void FaultInjector::record(const FaultSpec& spec, bool clear) {
  log_.push_back({spec, sim_.now(), clear});
  if (!clear) m_injected_.increment();
  tracer_.instant(sim_.now(), clear ? "fault.clear" : "fault.inject", "faults",
                  {{"type", std::string(to_string(spec.type))},
                   {"target", spec.target},
                   {"magnitude", spec.magnitude}});
}

}  // namespace here::faults
