// Several protected VMs sharing one host pair: one engine per VM, shared
// heartbeat fabric, independent failover — plus KVM ioctl accounting, the
// equivalence of an engine's own migrator pool with an explicit one, and
// the traced P of engines contending for one pool.
#include <gtest/gtest.h>

#include <map>

#include "kvmsim/kvm_hypervisor.h"
#include "obs/trace.h"
#include "replication/replication_engine.h"
#include "sim/hardware_profile.h"
#include "workload/synthetic.h"
#include "xensim/xen_hypervisor.h"

namespace here::rep {
namespace {

struct SharedPair {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  std::unique_ptr<hv::Host> primary;
  std::unique_ptr<hv::Host> secondary;
  std::vector<std::unique_ptr<ReplicationEngine>> engines;
  std::vector<hv::Vm*> vms;

  SharedPair(std::size_t n_vms) {
    sim::Rng root(99);
    primary = std::make_unique<hv::Host>(
        "xen-a", fabric, std::make_unique<xen::XenHypervisor>(sim, root.fork()));
    secondary = std::make_unique<hv::Host>(
        "kvm-b", fabric, std::make_unique<kvm::KvmHypervisor>(sim, root.fork()));
    fabric.connect(primary->ic_node(), secondary->ic_node(),
                   sim::grid5000_host().interconnect);

    for (std::size_t i = 0; i < n_vms; ++i) {
      ReplicationConfig config;
      config.mode = EngineMode::kHere;
      config.period.t_max = sim::from_millis(600 + 100 * i);
      engines.push_back(std::make_unique<ReplicationEngine>(
          sim, fabric, *primary, *secondary, config));
      hv::Vm& vm = primary->hypervisor().create_vm(
          hv::make_vm_spec("vm" + std::to_string(i), 2, 32ULL << 20));
      vm.attach_program(std::make_unique<wl::SyntheticProgram>(
          wl::memory_microbench(10.0 + 10.0 * static_cast<double>(i))));
      primary->hypervisor().start(vm);
      vms.push_back(&vm);
      if (!engines.back()->start_protection(vm).ok()) {
        throw std::runtime_error("multi_vm: start_protection failed");
      }
    }
  }

  bool run_until(const std::function<bool()>& cond, double limit_s) {
    const sim::TimePoint deadline = sim.now() + sim::from_seconds(limit_s);
    while (sim.now() < deadline && !cond()) sim.run_for(sim::from_millis(50));
    return cond();
  }
};

TEST(MultiVm, ThreeVmsReplicateOverOneSharedPair) {
  SharedPair pair(3);
  ASSERT_TRUE(pair.run_until(
      [&] {
        return std::ranges::all_of(
            pair.engines, [](const auto& e) { return e->seeded(); });
      },
      600));
  pair.sim.run_for(sim::from_seconds(4));
  for (const auto& engine : pair.engines) {
    EXPECT_GT(engine->stats().checkpoints.size(), 2u);
    EXPECT_FALSE(engine->failed_over());  // shared heartbeats work for all
  }
}

TEST(MultiVm, HostCrashFailsOverEveryVm) {
  SharedPair pair(3);
  ASSERT_TRUE(pair.run_until(
      [&] {
        return std::ranges::all_of(
            pair.engines, [](const auto& e) { return e->seeded(); });
      },
      600));
  pair.sim.run_for(sim::from_seconds(3));

  pair.primary->inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(pair.run_until(
      [&] {
        return std::ranges::all_of(
            pair.engines, [](const auto& e) { return e->failed_over(); });
      },
      30));
  for (const auto& engine : pair.engines) {
    EXPECT_TRUE(engine->service_available());
    EXPECT_EQ(engine->stats().replica_digest_at_activation,
              engine->stats().committed_digest_at_activation);
  }
  // The KVM host now runs all three replicas.
  EXPECT_EQ(pair.secondary->hypervisor().vms().size(), 3u);
}

TEST(MultiVm, KvmIoctlTrafficAccounted) {
  SharedPair pair(1);
  ASSERT_TRUE(pair.run_until([&] { return pair.engines[0]->seeded(); }, 600));
  pair.sim.run_for(sim::from_seconds(2));
  pair.primary->inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(
      pair.run_until([&] { return pair.engines[0]->failed_over(); }, 30));

  auto& kvm_hv = static_cast<kvm::KvmHypervisor&>(pair.secondary->hypervisor());
  using Ioctl = kvm::KvmHypervisor::Ioctl;
  EXPECT_EQ(kvm_hv.ioctl_count(Ioctl::kCreateVm), 1u);
  EXPECT_EQ(kvm_hv.ioctl_count(Ioctl::kCreateVcpu), 2u);
  // Failover loaded the translated state: one set per state class per vCPU.
  EXPECT_EQ(kvm_hv.ioctl_count(Ioctl::kSetRegs), 2u);
  EXPECT_EQ(kvm_hv.ioctl_count(Ioctl::kSetLapic), 2u);
  EXPECT_GT(kvm_hv.total_ioctls(), 8u);
}

// One traced protected VM on a fresh host pair. With `explicit_pool` the
// engine draws its bursts from a caller-made one-client MigratorPool of
// checkpoint_threads workers instead of the pool it owns by default.
struct TracedRun {
  std::vector<CheckpointRecord> records;
  std::string trace_jsonl;
};

TracedRun run_traced(EngineMode mode, const EncoderConfig& encoders,
                     bool explicit_pool) {
  obs::RingBufferRecorder recorder(1u << 18);
  obs::Tracer tracer(&recorder);
  sim::Simulation sim;
  net::Fabric fabric{sim};
  fabric.attach_obs(&tracer, nullptr);
  sim::Rng root(7);
  hv::Host primary("xen-a", fabric,
                   std::make_unique<xen::XenHypervisor>(sim, root.fork()));
  std::unique_ptr<hv::Hypervisor> second;
  if (mode == EngineMode::kRemus) {
    second = std::make_unique<xen::XenHypervisor>(sim, root.fork());
  } else {
    second = std::make_unique<kvm::KvmHypervisor>(sim, root.fork());
  }
  hv::Host secondary("b", fabric, std::move(second));
  fabric.connect(primary.ic_node(), secondary.ic_node(),
                 sim::grid5000_host().interconnect);

  ReplicationConfig config;
  config.mode = mode;
  config.checkpoint_threads = mode == EngineMode::kRemus ? 1 : 3;
  config.period.t_max = sim::from_millis(400);
  config.encoders = encoders;
  // A weight whose w/w share rounds below the pool size in floating point:
  // a lone client must still be granted its full request.
  config.flow_weight = 0.175;
  config.tracer = &tracer;

  std::unique_ptr<MigratorPool> pool;
  EngineEnv env;
  if (explicit_pool) {
    pool = std::make_unique<MigratorPool>(sim, config.checkpoint_threads);
    env.migrator_pool = pool.get();
  }
  ReplicationEngine engine(sim, fabric, primary, secondary, config, env);
  hv::Vm& vm =
      primary.hypervisor().create_vm(hv::make_vm_spec("vm", 2, 64ULL << 20));
  vm.attach_program(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
  primary.hypervisor().start(vm);
  EXPECT_TRUE(engine.start_protection(vm).ok());
  const sim::TimePoint deadline = sim.now() + sim::from_seconds(600);
  while (!engine.seeded() && sim.now() < deadline) {
    sim.run_for(sim::from_millis(50));
  }
  EXPECT_TRUE(engine.seeded());
  sim.run_for(sim::from_seconds(3));

  TracedRun run;
  run.records = engine.stats().checkpoints;
  run.trace_jsonl = obs::to_jsonl(recorder.snapshot());
  EXPECT_EQ(recorder.overwritten(), 0u) << "ring too small for the scenario";
  return run;
}

void expect_same_run(const TracedRun& own, const TracedRun& given) {
  ASSERT_GT(own.records.size(), 2u);
  ASSERT_EQ(own.records.size(), given.records.size());
  for (std::size_t i = 0; i < own.records.size(); ++i) {
    const CheckpointRecord& a = own.records[i];
    const CheckpointRecord& b = given.records[i];
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.completed_at, b.completed_at);
    EXPECT_EQ(a.period_used, b.period_used);
    EXPECT_EQ(a.pause, b.pause);
    EXPECT_EQ(a.dirty_pages_model, b.dirty_pages_model);
    EXPECT_EQ(a.bytes_model, b.bytes_model);
    EXPECT_EQ(a.degradation, b.degradation);
  }
  EXPECT_NE(own.trace_jsonl.find("\"pool.grant\""), std::string::npos);
  EXPECT_EQ(own.trace_jsonl, given.trace_jsonl);
}

TEST(MigratorPoolEquivalence, HereWithEncodersOwnPoolMatchesExplicitPool) {
  expect_same_run(run_traced(EngineMode::kHere, EncoderConfig::all(), false),
                  run_traced(EngineMode::kHere, EncoderConfig::all(), true));
}

TEST(MigratorPoolEquivalence, RemusOwnPoolMatchesExplicitPool) {
  expect_same_run(run_traced(EngineMode::kRemus, EncoderConfig{}, false),
                  run_traced(EngineMode::kRemus, EncoderConfig{}, true));
}

std::uint64_t arg_u64(const obs::TraceEvent& event, std::string_view key) {
  for (const auto& [k, v] : event.args) {
    if (k == key) return v.as_uint64();
  }
  ADD_FAILURE() << event.name << " has no arg " << key;
  return 0;
}

// Two engines contending for one two-worker pool, each asking for both
// workers: every period.decide must report the P its epoch ran on — the
// grant its ckpt.pause carries — not the count the engine requested.
TEST(MigratorPoolContention, PeriodDecideTracesTheGrantedThreads) {
  constexpr std::uint32_t kRequested = 2;
  sim::Simulation sim;
  net::Fabric fabric{sim};
  sim::Rng root(99);
  hv::Host primary("xen-a", fabric,
                   std::make_unique<xen::XenHypervisor>(sim, root.fork()));
  hv::Host secondary("kvm-b", fabric,
                     std::make_unique<kvm::KvmHypervisor>(sim, root.fork()));
  fabric.connect(primary.ic_node(), secondary.ic_node(),
                 sim::grid5000_host().interconnect);
  MigratorPool pool(sim, kRequested);

  std::vector<std::unique_ptr<obs::RingBufferRecorder>> recorders;
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  std::vector<std::unique_ptr<ReplicationEngine>> engines;
  for (int i = 0; i < 2; ++i) {
    recorders.push_back(std::make_unique<obs::RingBufferRecorder>(1u << 18));
    tracers.push_back(std::make_unique<obs::Tracer>(recorders.back().get()));
    ReplicationConfig config;
    config.mode = EngineMode::kHere;
    config.checkpoint_threads = kRequested;
    config.period.t_max = sim::from_millis(150);
    config.tracer = tracers.back().get();
    EngineEnv env;
    env.migrator_pool = &pool;
    engines.push_back(std::make_unique<ReplicationEngine>(
        sim, fabric, primary, secondary, config, env));
    hv::Vm& vm = primary.hypervisor().create_vm(
        hv::make_vm_spec("vm" + std::to_string(i), 2, 64ULL << 20));
    vm.attach_program(
        std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(40)));
    primary.hypervisor().start(vm);
    ASSERT_TRUE(engines.back()->start_protection(vm).ok());
  }
  const sim::TimePoint deadline = sim.now() + sim::from_seconds(600);
  while (sim.now() < deadline &&
         !(engines[0]->seeded() && engines[1]->seeded())) {
    sim.run_for(sim::from_millis(50));
  }
  ASSERT_TRUE(engines[0]->seeded() && engines[1]->seeded());
  sim.run_for(sim::from_seconds(6));

  std::uint64_t decisions = 0;
  std::uint64_t short_grants = 0;
  for (const auto& recorder : recorders) {
    ASSERT_EQ(recorder->overwritten(), 0u) << "ring too small";
    std::map<std::uint64_t, std::uint64_t> paused_with;  // epoch -> grant
    for (const obs::TraceEvent& event : recorder->snapshot()) {
      if (event.name == "ckpt.pause") {
        const std::uint64_t threads = arg_u64(event, "threads");
        paused_with[arg_u64(event, "epoch")] = threads;
        if (threads < kRequested) ++short_grants;
      } else if (event.name == "period.decide") {
        const std::uint64_t epoch = arg_u64(event, "epoch");
        ASSERT_TRUE(paused_with.contains(epoch)) << "epoch " << epoch;
        EXPECT_EQ(arg_u64(event, "threads"), paused_with[epoch])
            << "epoch " << epoch;
        ++decisions;
      }
    }
  }
  EXPECT_GT(decisions, 10u);
  // The scenario must actually contend, or the check above proves nothing.
  EXPECT_GT(short_grants, 0u);
}

}  // namespace
}  // namespace here::rep
