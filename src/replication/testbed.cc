#include "replication/testbed.h"

#include <stdexcept>

namespace here::rep {

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)), fabric_(sim_) {
  sim::Rng root(config_.seed);

  primary_ = std::make_unique<hv::Host>(
      "host-a", fabric_,
      std::make_unique<xen::XenHypervisor>(sim_, root.fork()));

  std::unique_ptr<hv::Hypervisor> second_hv;
  if (config_.engine.mode == EngineMode::kRemus) {
    second_hv = std::make_unique<xen::XenHypervisor>(sim_, root.fork());
  } else {
    second_hv = std::make_unique<kvm::KvmHypervisor>(sim_, root.fork());
  }
  secondary_ = std::make_unique<hv::Host>("host-b", fabric_,
                                          std::move(second_hv));

  // Dedicated replication interconnect (Omni-Path), plus a host-to-host
  // Ethernet path (unused by replication, per the paper's split).
  fabric_.connect(primary_->ic_node(), secondary_->ic_node(),
                  config_.hardware.interconnect);
  fabric_.connect(primary_->eth_node(), secondary_->eth_node(),
                  config_.hardware.ethernet);

  // Observability rides the engine's config pointers: the fabric shares the
  // same tracer/metrics so net.* events interleave with the engine's.
  fabric_.attach_obs(config_.engine.tracer, config_.engine.metrics);

  EngineEnv env;
  if (config_.durable_replica) {
    store_ = std::make_unique<DurableStore>(config_.durable);
    env.durable_store = store_.get();
  }
  engine_ = std::make_unique<ReplicationEngine>(sim_, fabric_, *primary_,
                                                *secondary_, config_.engine,
                                                env);
}

hv::Vm& Testbed::create_vm(std::unique_ptr<hv::GuestProgram> program) {
  hv::Vm& vm = primary_->hypervisor().create_vm(config_.vm_spec);
  if (program) vm.attach_program(std::move(program));
  primary_->hypervisor().start(vm);
  return vm;
}

void Testbed::protect(hv::Vm& vm) {
  if (const Status s = engine_->start_protection(vm); !s.ok()) {
    throw std::runtime_error("testbed: " + s.to_string());
  }
}

void Testbed::run_until_seeded(sim::Duration limit) {
  if (!run_until([this] { return engine_->seeded(); }, limit)) {
    throw std::runtime_error("testbed: seeding did not complete within limit");
  }
}

net::NodeId Testbed::add_client(const std::string& name,
                                net::Fabric::Receiver receiver) {
  if (engine_->service_node() == net::kInvalidNode) {
    throw std::logic_error("add_client: protect() must run first");
  }
  const net::NodeId node = fabric_.add_node(name, std::move(receiver));
  fabric_.connect(node, engine_->service_node(), config_.hardware.ethernet);
  return node;
}

bool Testbed::run_until(const std::function<bool()>& cond, sim::Duration limit,
                        sim::Duration step) {
  const sim::TimePoint deadline = sim_.now() + limit;
  while (sim_.now() < deadline) {
    if (cond()) return true;
    sim_.run_for(step);
  }
  return cond();
}

}  // namespace here::rep
