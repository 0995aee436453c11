// One repetition of a replication benchmark workload, on both clocks.
//
//   here_perfbench --workload=<ckpt_dense|ycsb_raw|fleet_churn> --seed=N
//                  --measure=<virtual seconds> [--traced] [--setup-only]
//
// Builds the stack through its public API (mgmt::ProtectionManager,
// faults::FaultInjector, wl:: guest programs), sets it up, runs a measured
// phase of fixed *virtual* length and a fault tail (failover and
// re-protection), checks the correctness gate and prints one line:
//
//   PERFBENCH {"host": {...}, "virtual": {...}, "counts": {...}, ...}
//
// "virtual" holds the measured phase's virtual-clock outputs and "tail" the
// fault tail's. Both are deterministic for a seed and phase length, and
// "virtual_digest" summarises them (with "counts") so repeated runs — traced
// or not — can be compared exactly.
// With --setup-only it stops after setup and prints just "host.setup_s": an
// extra set-up sample at the cost of set-up alone.
// "host" holds host-clock timings. With --traced a StageClock sink is
// attached through ReplicationConfig::tracer, guest programs are wrapped in
// TimedProgram, and the data-plane primitives are probed over the final
// real image ("layers"). perfbench/run.py repeats this binary and reduces
// the repetitions to the metrics named in BENCHMARK.json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32c.h"
#include "common/units.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "harness/host_trace.h"
#include "kvmsim/kvm_hypervisor.h"
#include "mgmt/protection_manager.h"
#include "mgmt/virt.h"
#include "obs/json.h"
#include "replication/durable_store.h"
#include "replication/encoder.h"
#include "sim/rng.h"
#include "workload/protocol.h"
#include "workload/sockperf.h"
#include "workload/synthetic.h"
#include "workload/ycsb.h"
#include "xensim/xen_hypervisor.h"

namespace here::perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

// --- Workload constants ---------------------------------------------------------------

enum class Kind { kCkptDense, kYcsbRaw, kFleetChurn };

// ycsb_raw's fixed checkpoint period (Algorithm 1 off, T = Tmax).
constexpr sim::Duration kYcsbPeriod = sim::from_millis(100);
constexpr std::size_t kFleetVms = 100;
constexpr std::uint64_t kFleetVmBytes = 16ULL << 20;
constexpr std::uint64_t kFleetScale = 4;
// Per-secondary ingest capacity: 100 Mbit/s shared by the 8-host pool.
constexpr double kFleetLinkBytesPerSecond = 100e6 / 8.0 / 8.0;
// kvm1 crashes about this far into the measured phase and is repaired this
// much later (fractions of the phase: ~4 s and ~7 s of a 27 s phase).
constexpr double kFleetCrashAt = 0.15;
constexpr double kFleetRepairAfter = 0.25;
// The crash lands this far past a whole virtual second, the grid of the
// manager's 1 s re-protection poll. Re-protection waits for the next poll,
// so an unaligned crash would make reprotect_mttr_ms jump by up to a second
// with the crash's phase against that grid.
constexpr double kFleetCrashPhaseS = 0.1;
// Pings each external client keeps outstanding (ckpt_dense, each fleet VM).
constexpr std::size_t kDenseClientWindow = 64;
constexpr std::size_t kFleetClientWindow = 8;
// Single-VM fault tail: idle companion VMs protected beside the workload's
// VM just before its primary host crashes, so the crash fails over
// kTailCompanions + 1 VMs. Each activation on the KVM host costs ~3.9 ms
// plus one draw of a -0.6..+1.8 ms jitter, and the modelled cost does not
// depend on VM size (Fig. 7); failover_ms is the mean over all of them, as
// one draw alone varies by about a quarter from seed to seed.
constexpr std::size_t kTailCompanions = 31;
constexpr std::uint64_t kCompanionBytes = 8ULL << 20;

// --- Small helpers --------------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kMiB = 1024.0 * 1024.0;

obs::JsonValue json_array(const std::vector<double>& v) {
  obs::JsonValue a = obs::JsonValue::array();
  for (double x : v) a.push_back(x);
  return a;
}

// Every sample of a histogram, ascending (Histogram::percentile at q = i/(n-1)
// is the i-th order statistic).
std::vector<double> samples_of(const sim::Histogram& h) {
  const std::uint64_t n = h.count();
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(h.percentile(
        n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) : 0.0));
  }
  return out;
}

// The samples of `after` that `before` (an earlier state of the same
// histogram) does not hold: both ascending multisets, before within after.
void append_new_samples(const std::vector<double>& before,
                        const std::vector<double>& after, sim::Histogram& out) {
  std::size_t i = 0;
  for (double x : after) {
    if (i < before.size() &&
        std::abs(before[i] - x) <= 1e-9 * std::max(1.0, std::abs(x))) {
      ++i;
    } else {
      out.add(x);
    }
  }
}

// --- External clients -----------------------------------------------------------------

// Request-response client with a fixed window of outstanding pings to a
// guest's sockperf server: each pong releases the next ping, so throughput
// is the window over the round trip, and the round trip is dominated by how
// long the replication engine holds the pong (output commit). A ping left
// unanswered for kPingTimeout (its pong dropped at failover, or held by an
// engine whose peer died) is replaced, as a TCP client would retransmit.
class ClosedLoopClient {
 public:
  static constexpr sim::Duration kPingTimeout = sim::from_seconds(10);

  ClosedLoopClient(sim::Simulation& sim, net::Fabric& fabric, net::NodeId self,
                   net::NodeId service, std::size_t window)
      : sim_(sim), fabric_(fabric), self_(self), service_(service),
        window_(window) {}

  // Fills the window; no ping is sent once `duration` has passed.
  void run_for(sim::Duration duration) {
    deadline_ = sim_.now() + duration;
    for (std::size_t i = 0; i < window_; ++i) send();
  }

  void on_packet(const net::Packet& p) {
    // A pong of a ping already replaced after its timeout is not counted.
    if (p.kind != wl::kSockPong || outstanding_.erase(p.tag) == 0) return;
    ++pongs_;
    send();
  }

  [[nodiscard]] std::uint64_t pongs() const { return pongs_; }

 private:
  void send() {
    if (sim_.now() >= deadline_) return;
    const std::uint64_t tag = next_tag_++;
    outstanding_.insert(tag);
    net::Packet ping;
    ping.src = self_;
    ping.dst = service_;
    ping.size_bytes = 64;
    ping.kind = wl::kSockPing;
    ping.tag = tag;
    fabric_.send(ping);
    sim_.schedule_after(
        kPingTimeout,
        [this, tag] {
          if (outstanding_.erase(tag) != 0) send();
        },
        "client-ping-timeout");
  }

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  net::NodeId self_;
  net::NodeId service_;
  std::size_t window_;
  sim::TimePoint deadline_{};
  std::uint64_t next_tag_ = 0;
  std::set<std::uint64_t> outstanding_;
  std::uint64_t pongs_ = 0;
};

// --- Guest-side accounting ------------------------------------------------------------

hv::GuestProgram* unwrap(hv::GuestProgram* p) {
  if (auto* timed = dynamic_cast<TimedProgram*>(p)) return &timed->inner();
  return p;
}

// Application operations completed inside the guest so far.
double guest_ops(hv::GuestProgram* program) {
  program = unwrap(program);
  if (program == nullptr) return 0.0;
  if (auto* y = dynamic_cast<wl::YcsbProgram*>(program)) {
    return static_cast<double>(y->ops_completed());
  }
  if (auto* mix = dynamic_cast<GuestMix*>(program)) {
    return guest_ops(&mix->first()) + guest_ops(&mix->second());
  }
  if (auto* s = dynamic_cast<wl::SyntheticProgram*>(program)) {
    return s->ops_done();
  }
  if (auto* s = dynamic_cast<wl::SockperfServer*>(program)) {
    return static_cast<double>(s->pongs_sent());
  }
  return 0.0;
}

// --- Probes of the data-plane primitives over a real image -------------------------

// Repeats `pass` (which touches `bytes` bytes) until at least `min_s` host
// seconds have elapsed; returns MiB/s.
template <typename Pass>
double probe_rate(double bytes, Pass&& pass, double min_s = 0.05) {
  if (bytes <= 0.0) return 0.0;
  int passes = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    pass();
    ++passes;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < min_s || passes < 2);
  return bytes * passes / elapsed / kMiB;
}

// At most this many pages per image are probed, strided across the image.
constexpr std::uint64_t kProbePages = 4096;

std::vector<common::Gfn> probe_gfns(const hv::GuestMemory& mem) {
  std::vector<common::Gfn> gfns;
  const std::uint64_t n = mem.pages();
  const std::uint64_t step = std::max<std::uint64_t>(1, n / kProbePages);
  for (common::Gfn g = 0; g < n && gfns.size() < kProbePages; g += step) {
    gfns.push_back(g);
  }
  return gfns;
}

struct ImagePair {
  const hv::GuestMemory* live = nullptr;       // the primary's image
  const hv::GuestMemory* committed = nullptr;  // the replica's image
};

struct ProbeRates {
  double memcpy = 0, page_digest = 0, crc32c = 0, xor_rle = 0, durable_read = 0;
};

ProbeRates run_probes(const std::vector<ImagePair>& images,
                      const std::vector<const rep::DurableStore*>& stores) {
  ProbeRates r;
  std::vector<std::pair<const ImagePair*, std::vector<common::Gfn>>> sets;
  double bytes = 0.0;
  for (const ImagePair& img : images) {
    sets.emplace_back(&img, probe_gfns(*img.live));
    bytes += static_cast<double>(sets.back().second.size() * common::kPageSize);
  }
  std::vector<std::uint8_t> sink(static_cast<std::size_t>(bytes));
  std::uint64_t fold = 0;
  r.memcpy = probe_rate(bytes, [&] {
    std::uint8_t* out = sink.data();
    for (const auto& [img, gfns] : sets) {
      for (common::Gfn g : gfns) {
        std::memcpy(out, img->live->page(g).data(), common::kPageSize);
        out += common::kPageSize;
      }
    }
    fold ^= sink[static_cast<std::size_t>(fold % sink.size())];
  });
  r.page_digest = probe_rate(bytes, [&] {
    for (const auto& [img, gfns] : sets) {
      for (common::Gfn g : gfns) fold += img->live->page_digest(g);
    }
  });
  r.crc32c = probe_rate(bytes, [&] {
    for (const auto& [img, gfns] : sets) {
      for (common::Gfn g : gfns) fold += common::crc32c(img->live->page(g));
    }
  });
  r.xor_rle = probe_rate(bytes, [&] {
    for (const auto& [img, gfns] : sets) {
      for (common::Gfn g : gfns) {
        fold += rep::xor_rle_encode(img->live->page(g), img->committed->page(g))
                    .size();
      }
    }
  });
  double store_bytes = 0.0;
  for (const rep::DurableStore* s : stores) {
    store_bytes += static_cast<double>(s->snapshot_bytes() + s->wal_bytes());
  }
  r.durable_read = probe_rate(store_bytes, [&] {
    for (const rep::DurableStore* s : stores) {
      const auto snap = s->read_snapshot();
      if (snap.ok()) fold += snap.value().pages.size();
      fold += s->read_log().bytes_read;
    }
  });
  // Printing the fold keeps the probed work from being optimised away.
  std::fprintf(stderr, "probe fold %" PRIu64 "\n", fold);
  return r;
}

// --- The harness ------------------------------------------------------------------------

struct Args {
  std::string workload;
  Kind kind = Kind::kCkptDense;
  std::uint64_t seed = 1;
  double measure_s = 0.0;  // virtual length of the measured phase
  bool traced = false;
  bool setup_only = false;  // stop after setup (an extra setup_s sample)
};

// Per-engine counter baselines taken at the start of the measured phase.
struct EngineBase {
  std::uint64_t retransmits = 0;
  std::uint64_t released = 0;
  rep::EncodeStats encode;
  std::vector<double> delays_ms;
};

class Harness {
 public:
  explicit Harness(const Args& args)
      : args_(args), seeds_(args.seed), tracer_(args.traced ? &clock_ : nullptr) {}

  int run();

 private:
  hv::Host& add_host(bool xen, const std::string& name);
  std::unique_ptr<hv::GuestProgram> wrap(std::unique_ptr<hv::GuestProgram> p);
  void attach_client(const std::string& domain, rep::ReplicationEngine& engine,
                     std::size_t window);
  void build_single();
  void build_fleet();
  void watch_engines();
  bool run_until(const std::function<bool()>& cond, double limit_s);
  std::vector<rep::ReplicationEngine*> all_engines() const;
  bool all_seeded() const;
  void gate(bool ok, const std::string& what);
  // Fleet placement invariants: heterogeneous pairs and, with `caps`,
  // per-role load under the ring's cap.
  void check_placement(bool caps);
  void run_tail(sim::Rng& fault_rng, obs::JsonValue& tail);
  // Adds the gate's violations to `out` and prints the PERFBENCH line.
  int print(obs::JsonValue out);

  Args args_;
  // Every generator of a run (host RNGs, fault times) is a fork of this.
  sim::Rng seeds_;
  StageClock clock_;
  obs::Tracer tracer_;

  // Declaration order is destruction order in reverse: engines (inside the
  // manager) die before the observers, clients and hosts they borrow.
  sim::Simulation sim_;
  net::Fabric fabric_{sim_};
  std::vector<std::unique_ptr<hv::Host>> hosts_;
  EpochTally tally_;
  std::vector<std::unique_ptr<EpochClock>> epoch_clocks_;
  std::vector<const rep::ReplicationEngine*> watched_;
  std::vector<std::unique_ptr<ClosedLoopClient>> clients_;
  // External client node of each domain; every engine generation's service
  // node gets a link to it (IP takeover keeps clients on the old address,
  // re-protected generations release output from their own node).
  std::vector<std::pair<std::string, net::NodeId>> client_nodes_;
  wl::YcsbMonitor monitor_;
  std::unique_ptr<mgmt::ProtectionManager> manager_;
  std::unique_ptr<faults::FaultInjector> injector_;
  // ycsb_raw: YCSB starts once the VM is protected, so no output is held
  // across the initial seed.
  wl::YcsbConfig ycsb_;
  hv::Vm* ycsb_vm_ = nullptr;
  std::size_t initial_engines_ = 0;
  std::vector<std::string> violations_;
};

hv::Host& Harness::add_host(bool xen, const std::string& name) {
  const sim::Rng rng = seeds_.fork();
  std::unique_ptr<hv::Hypervisor> hypervisor;
  if (xen) {
    hypervisor = std::make_unique<xen::XenHypervisor>(sim_, rng);
  } else {
    hypervisor = std::make_unique<kvm::KvmHypervisor>(sim_, rng);
  }
  hosts_.push_back(
      std::make_unique<hv::Host>(name, fabric_, std::move(hypervisor)));
  manager_->add_host(*hosts_.back());
  return *hosts_.back();
}

std::unique_ptr<hv::GuestProgram> Harness::wrap(
    std::unique_ptr<hv::GuestProgram> p) {
  if (!args_.traced) return p;
  return std::make_unique<TimedProgram>(std::move(p), &clock_);
}

void Harness::attach_client(const std::string& domain,
                            rep::ReplicationEngine& engine, std::size_t window) {
  const net::NodeId self = fabric_.add_node(
      "client" + std::to_string(clients_.size()), net::Fabric::Receiver{});
  clients_.push_back(std::make_unique<ClosedLoopClient>(
      sim_, fabric_, self, engine.service_node(), window));
  ClosedLoopClient* client = clients_.back().get();
  fabric_.set_receiver(self,
                       [client](const net::Packet& p) { client->on_packet(p); });
  client_nodes_.emplace_back(domain, self);
}

// ckpt_dense and ycsb_raw: one 8 GiB-modelled VM on xen0, replicated to the
// only KVM host; xen1 is the re-protection target after the fault tail.
void Harness::build_single() {
  const bool dense = args_.kind == Kind::kCkptDense;
  rep::ReplicationConfig defaults;
  defaults.checkpoint_threads = 4;
  defaults.tracer = args_.traced ? &tracer_ : nullptr;
  if (dense) {
    defaults.encoders = rep::EncoderConfig::all();
    defaults.period.t_max = sim::from_seconds(1);
    defaults.period.target_degradation = 0.20;
  } else {
    defaults.period.t_max = kYcsbPeriod;
    defaults.period.sigma = kYcsbPeriod;
    defaults.period.target_degradation = 0.0;
  }
  manager_ = std::make_unique<mgmt::ProtectionManager>(sim_, fabric_, defaults);
  hv::Host& xen0 = add_host(true, "xen0");
  add_host(false, "kvm0");
  add_host(true, "xen1");
  if (dense) {
    rep::DurableStoreConfig durable;
    // Every 4th epoch rotates: a quarter of the epochs carry a snapshot, so
    // epoch_host_ms_p90 sits inside the rotation population instead of on
    // its edge (at 1 in 8 the p90 flips between the two populations).
    durable.snapshot_interval_epochs = 4;
    manager_->enable_durable_replicas(durable);
  }
  manager_->enable_auto_reprotect();

  mgmt::DomainConfig domain;
  domain.name = "vm0";
  domain.vcpus = 4;
  domain.memory_bytes = 8ULL << 30;
  domain.model_scale = 64;
  mgmt::VirtConnection conn(xen0);
  hv::Vm& vm = *conn.create_domain(domain).value();

  if (dense) {
    vm.attach_program(wrap(std::make_unique<GuestMix>(
        std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(60, 3.0)),
        std::make_unique<wl::SockperfServer>(1.0))));
  }
  rep::ReplicationEngine* engine = manager_->protect(vm, xen0).value();
  if (dense) {
    attach_client(domain.name, *engine, kDenseClientWindow);
    return;
  }
  // YCSB reports go to the monitor from the first op, so the program starts
  // once the monitor is reachable through the engine's service node.
  const net::NodeId monitor =
      fabric_.add_node("ycsb-monitor", [this](const net::Packet& p) {
        monitor_.on_packet(sim_.now(), p);
      });
  client_nodes_.emplace_back(domain.name, monitor);
  watch_engines();
  ycsb_.mix = wl::ycsb_b();
  ycsb_.record_count = 1'000'000 / domain.model_scale;
  ycsb_.op_limit = ~0ULL;
  ycsb_.monitor = monitor;
  ycsb_vm_ = &vm;
}

// fleet_churn: 100 small VMs placed by the ring on 4 Xen + 4 KVM hosts
// under the shared schedulers, durable replicas and auto-reprotect.
void Harness::build_fleet() {
  rep::ReplicationConfig defaults;
  defaults.tracer = args_.traced ? &tracer_ : nullptr;
  manager_ = std::make_unique<mgmt::ProtectionManager>(sim_, fabric_, defaults);
  for (int i = 0; i < 4; ++i) add_host(true, "xen" + std::to_string(i));
  for (int i = 0; i < 4; ++i) add_host(false, "kvm" + std::to_string(i));
  mgmt::ProtectionManager::FleetConfig fleet;
  fleet.migrator_workers = 2;
  fleet.link_bytes_per_second = kFleetLinkBytesPerSecond;
  fleet.adaptive_weights = true;
  manager_->enable_fleet_scheduling(fleet);
  manager_->enable_fleet_placement();
  manager_->enable_durable_replicas();
  manager_->enable_auto_reprotect();

  mgmt::ProtectionManager::VmPolicy policy;
  policy.target_degradation = 0.10;
  policy.t_max = sim::from_seconds(1);
  policy.checkpoint_threads = 2;
  // Write loads 4, 6, ..., 22 % by domain index, as bench/fleet_scale
  // places them; the seed drives the guests' page picks and the fault time.
  for (std::size_t i = 0; i < kFleetVms; ++i) {
    mgmt::DomainConfig domain;
    domain.name = "vm" + std::to_string(i);
    domain.memory_bytes = kFleetVmBytes;
    domain.model_scale = kFleetScale;
    hv::Vm& vm = *manager_->create_placed_domain(domain).value();
    vm.attach_program(wrap(std::make_unique<GuestMix>(
        std::make_unique<wl::SyntheticProgram>(
            wl::memory_microbench(4.0 + 2.0 * static_cast<double>(i % 10))),
        std::make_unique<wl::SockperfServer>(1.0))));
    rep::ReplicationEngine* engine =
        manager_->protect_placed(vm, policy).value();
    attach_client(domain.name, *engine, kFleetClientWindow);
  }
}

std::vector<rep::ReplicationEngine*> Harness::all_engines() const {
  std::vector<rep::ReplicationEngine*> out;
  for (const auto& p : manager_->protections()) {
    for (const auto& e : p->engines) out.push_back(e.get());
  }
  return out;
}

bool Harness::all_seeded() const {
  return std::ranges::all_of(manager_->protections(),
                             [](auto& p) { return p->engine().seeded(); });
}

// Attaches an EpochClock to every engine generation not yet observed
// (re-protection and re-placement create engines mid-run).
void Harness::watch_engines() {
  for (const auto& p : manager_->protections()) {
    for (const auto& e : p->engines) {
      if (std::ranges::find(watched_, e.get()) != watched_.end()) continue;
      watched_.push_back(e.get());
      for (const auto& [domain, node] : client_nodes_) {
        if (domain == p->domain) {
          fabric_.connect(node, e->service_node(), sim::grid5000_host().ethernet);
        }
      }
      epoch_clocks_.push_back(
          std::make_unique<EpochClock>(&tally_, p->primary, p->secondary));
      e->add_observer(epoch_clocks_.back().get());
    }
  }
}

bool Harness::run_until(const std::function<bool()>& cond, double limit_s) {
  const sim::TimePoint deadline = sim_.now() + sim::from_seconds(limit_s);
  while (sim_.now() < deadline) {
    if (cond()) return true;
    sim_.run_for(sim::from_millis(50));
    watch_engines();
  }
  return cond();
}

void Harness::gate(bool ok, const std::string& what) {
  if (!ok) violations_.push_back(what);
}

void Harness::check_placement(bool caps) {
  std::size_t hetero = 0;
  for (const auto& p : manager_->protections()) {
    hetero += p->primary->hypervisor().kind() ==
              p->secondary->hypervisor().kind();
  }
  gate(hetero == 0, std::to_string(hetero) + " homogeneous pairs");
  if (!caps) return;
  const std::size_t cap = manager_->placement_ring()->load_cap(kFleetVms);
  for (auto& h : hosts_) {
    std::size_t as_primary = 0, as_secondary = 0;
    for (const auto& p : manager_->protections()) {
      as_primary += p->primary == h.get();
      as_secondary += p->secondary == h.get();
    }
    gate(as_primary <= cap, h->name() + " primary load above cap");
    gate(as_secondary <= cap, h->name() + " secondary load above cap");
  }
}

// Single VM: protect the idle companions beside the workload's VM, crash the
// primary host, fail every VM over to the KVM host and re-protect it onto
// the third host. Fleet: kvm1 crashed inside the measured phase; wait until
// every domain is protected again. Every repetition runs the tail, and its
// outputs are part of virtual_digest. The load caps are checked before the
// churn only: once kvm1's domains fail over, Xen hosts hold ~64 primaries
// whose secondaries must be KVM hosts, more than the 4 x 15 the per-role cap
// allows, so no placement can meet it afterwards.
void Harness::run_tail(sim::Rng& fault_rng, obs::JsonValue& tail) {
  const bool fleet = args_.kind == Kind::kFleetChurn;
  const std::string workload_vm = manager_->protections()[0]->domain;
  if (!fleet) {
    hv::Host& xen0 = *hosts_[0];
    mgmt::VirtConnection conn(xen0);
    for (std::size_t i = 0; i < kTailCompanions; ++i) {
      mgmt::DomainConfig domain;
      domain.name = "companion" + std::to_string(i);
      domain.memory_bytes = kCompanionBytes;
      domain.model_scale = 64;
      hv::Vm& vm = *conn.create_domain(domain).value();
      gate(manager_->protect(vm, xen0).ok(), domain.name + " not protected");
    }
    gate(run_until([&] { return all_seeded(); }, 60),
         "companions did not seed");
    faults::FaultPlan plan;
    plan.crash_host("xen0", sim_.now() + sim::from_millis(static_cast<std::int64_t>(
                                            fault_rng.uniform(100))));
    injector_->arm(plan);
    gate(run_until(
             [&] {
               return std::ranges::all_of(
                   manager_->protections(),
                   [](auto& p) { return p->engines.front()->failed_over(); });
             },
             30),
         "primary crash did not fail every VM over");
  }
  gate(run_until(
           [&] {
             if (manager_->available_count() != manager_->protections().size()) {
               return false;
             }
             // Every single-VM domain failed over; fleet domains that did
             // not lose a host have no re-protection to wait for.
             for (const auto& p : manager_->protections()) {
               if (!fleet && p->mttr.empty()) return false;
               for (const auto& r : p->mttr) {
                 if (!r.complete) return false;
               }
             }
             return all_seeded();
           },
           120),
       "re-protection did not complete");
  if (fleet) check_placement(false);
  sim::Histogram failover_ms;
  for (const auto& p : manager_->protections()) {
    for (const auto& e : p->engines) {
      const rep::EngineStats& st = e->stats();
      if (!st.failed_over) continue;
      failover_ms.add(sim::to_millis(st.resumption_time));
      gate(st.replica_digest_at_activation == st.committed_digest_at_activation,
           p->domain + ": activated memory differs from committed");
      gate(st.replica_disk_digest_at_activation ==
               st.committed_disk_digest_at_activation,
           p->domain + ": activated disk differs from committed");
    }
  }
  gate(failover_ms.count() > 0, "no failover happened");
  // reprotect_mttr_ms: the workload VM's re-protection on single-VM
  // workloads, the slowest domain's on the fleet.
  const mgmt::ProtectionManager::FleetReport report = manager_->fleet_report();
  sim::Histogram mttr_ms;
  for (const auto& row : report.reprotect_mttr) {
    if (row.complete && (fleet || row.domain == workload_vm)) {
      mttr_ms.add(sim::to_millis(row.mttr));
    }
  }
  gate(mttr_ms.count() > 0, "no completed re-protection");
  gate(report.peak_reserved_bytes_per_s <=
           report.link_capacity_bytes_per_s * (1.0 + 1e-9),
       "link arbiter oversubscribed");
  gate(manager_->available_count() == manager_->protections().size(),
       "not every protection is available");
  tail.set("failover_ms", failover_ms.mean());
  tail.set("failovers", static_cast<double>(failover_ms.count()));
  tail.set("reprotect_mttr_ms", mttr_ms.max());
  tail.set("mttr_rows", static_cast<double>(mttr_ms.count()));
}

int Harness::run() {
  const bool fleet = args_.kind == Kind::kFleetChurn;
  const double measure_s = args_.measure_s;

  // --- Setup ------------------------------------------------------------------------
  const Clock::time_point t_construct = Clock::now();
  if (fleet) {
    build_fleet();
  } else {
    build_single();
  }
  initial_engines_ = all_engines().size();
  watch_engines();
  const Clock::time_point t_seed = Clock::now();
  gate(run_until([&] { return all_seeded(); }, 600),
       "seeding did not complete");
  const Clock::time_point t_seeded = Clock::now();
  if (ycsb_vm_ != nullptr) {
    ycsb_vm_->attach_program(wrap(std::make_unique<wl::YcsbProgram>(ycsb_)));
  }
  const auto commits = [&] {
    return manager_->protections()[0]->engine().stats().checkpoints.size();
  };
  if (!fleet) {
    gate(run_until([&] { return commits() >= 1; }, 60), "no post-seed commit");
  }
  const Clock::time_point t_setup = Clock::now();
  if (fleet) check_placement(true);
  if (args_.setup_only) {
    obs::JsonValue host = obs::JsonValue::object();
    host.set("setup_s", seconds_between(kProcessStart, t_setup));
    obs::JsonValue out = obs::JsonValue::object();
    out.set("host", host);
    return print(std::move(out));
  }
  // Settle before measuring: the first epochs after seeding carry the
  // seeding-era dirty backlog (and, for ycsb_raw, the KvStore load).
  if (!fleet) {
    gate(run_until([&] { return commits() >= 2; }, 60),
         "fewer than two post-seed commits");
  }

  // --- Faults inside the measured phase (fleet) ------------------------------------
  injector_ = std::make_unique<faults::FaultInjector>(
      sim_, fabric_, args_.traced ? &tracer_ : nullptr);
  for (auto& h : hosts_) injector_->register_host(h->name(), *h);
  sim::Rng fault_rng = seeds_.fork();
  const sim::TimePoint t0 = sim_.now();
  if (fleet) {
    faults::FaultPlan plan;
    const double crash_s =
        std::ceil(sim::to_seconds(t0.since_start()) + kFleetCrashAt * measure_s) +
        kFleetCrashPhaseS + fault_rng.uniform_real(0.0, 0.1);
    plan.crash_host("kvm1", sim::TimePoint{} + sim::from_seconds(crash_s),
                    sim::from_seconds(kFleetRepairAfter * measure_s));
    injector_->arm(plan);
  }

  // --- Measured phase ----------------------------------------------------------------
  std::map<const rep::ReplicationEngine*, EngineBase> base;
  for (rep::ReplicationEngine* e : all_engines()) {
    base[e] = {e->stats().retransmits, e->outbound().released_total(),
               e->stats().encode, samples_of(e->outbound().delay_ms())};
  }
  std::map<const rep::DurableStore*, rep::DurableStore::Stats> store_base;
  for (const auto& p : manager_->protections()) {
    for (const auto& hs : p->stores) store_base[hs.store.get()] = hs.store->stats();
  }
  double ops0 = 0.0;
  for (const auto& p : manager_->protections()) ops0 += guest_ops(p->vm->program());
  const std::uint64_t frames0 = fabric_.frames_sent();
  const std::uint64_t frame_bytes0 = fabric_.frame_bytes_sent();
  const std::uint64_t events0 = sim_.executed_count();
  const std::uint64_t moves0 = manager_->replica_moves();
  const std::uint64_t deferred0 = manager_->rebalance_deferred();
  const std::uint64_t rounds0 =
      manager_->membership() ? manager_->membership()->rounds() : 0;
  const std::uint64_t ycsb0 = monitor_.ops_observed();
  const mgmt::ProtectionManager::FleetReport report0 = manager_->fleet_report();
  for (const auto& c : clients_) c->run_for(sim::from_seconds(measure_s));

  tally_.measuring = true;
  const Clock::time_point t_measure = Clock::now();
  if (args_.traced) clock_.start();
  const sim::TimePoint t_end = t0 + sim::from_seconds(measure_s);
  while (sim_.now() < t_end) {
    sim_.run_until(std::min(t_end, sim_.now() + sim::from_millis(100)));
    watch_engines();
  }
  const double stamped_s = args_.traced ? clock_.stop() : 0.0;
  const Clock::time_point t_measured = Clock::now();
  tally_.measuring = false;
  const sim::TimePoint t1 = sim_.now();
  // Peak RSS of setup and the measured phase (the probes and the tail come
  // later).
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  // --- Reduce the measured phase -------------------------------------------------------
  const Clock::time_point t_report = Clock::now();
  const mgmt::ProtectionManager::FleetReport report1 = manager_->fleet_report();
  const double fleet_report_ms =
      seconds_between(t_report, Clock::now()) * 1e3;

  sim::Histogram pauses_ms;
  sim::Histogram periods_ms;
  sim::Histogram vm_degradation;
  double dirty_pages_model = 0.0;
  double committed_real_bytes = 0.0;
  std::uint64_t retransmits = 0;
  std::uint64_t released = 0;
  rep::EncodeStats enc;
  std::uint64_t delta_seeds = 0;
  sim::Histogram delays_ms;
  for (const auto& p : manager_->protections()) {
    sim::Histogram degr;
    for (const auto& e : p->engines) {
      const rep::EngineStats& st = e->stats();
      const std::uint64_t scale = e->primary_vm() != nullptr
                                      ? e->primary_vm()->spec().model_scale
                                      : 1;
      for (const rep::CheckpointRecord& r : st.checkpoints) {
        if (r.completed_at <= t0 || r.completed_at > t1) continue;
        pauses_ms.add(sim::to_millis(r.pause));
        periods_ms.add(sim::to_millis(r.period_used));
        degr.add(r.degradation);
        dirty_pages_model += static_cast<double>(r.dirty_pages_model);
        committed_real_bytes += static_cast<double>(
            r.dirty_pages_model / scale * common::kPageSize);
      }
      const auto it = base.find(e.get());
      const EngineBase b = it != base.end() ? it->second : EngineBase{};
      retransmits += st.retransmits - b.retransmits;
      released += e->outbound().released_total() - b.released;
      enc.pages_in += st.encode.pages_in - b.encode.pages_in;
      enc.pages_zero += st.encode.pages_zero - b.encode.pages_zero;
      enc.pages_delta += st.encode.pages_delta - b.encode.pages_delta;
      enc.pages_skipped += st.encode.pages_skipped - b.encode.pages_skipped;
      enc.bytes_in += st.encode.bytes_in - b.encode.bytes_in;
      enc.bytes_out += st.encode.bytes_out - b.encode.bytes_out;
      delta_seeds += st.delta_seeds;
      append_new_samples(b.delays_ms, samples_of(e->outbound().delay_ms()),
                         delays_ms);
    }
    vm_degradation.add(degr.mean());
  }
  const std::uint64_t aborted = tally_.aborts_in_phase;
  const double attempted_epochs =
      static_cast<double>(pauses_ms.count() + aborted);

  double ops1 = 0.0;
  for (const auto& p : manager_->protections()) ops1 += guest_ops(p->vm->program());
  // ycsb_raw: YCSB ops released to the monitor; otherwise pongs of the
  // closed-loop clients, which start with the measured phase.
  std::uint64_t pongs = 0;
  for (const auto& c : clients_) pongs += c->pongs();
  const double client_ops =
      ycsb_vm_ != nullptr ? static_cast<double>(monitor_.ops_observed() - ycsb0)
                          : static_cast<double>(pongs);

  rep::DurableStore::Stats store_delta;
  for (const auto& p : manager_->protections()) {
    for (const auto& hs : p->stores) {
      const rep::DurableStore::Stats now = hs.store->stats();
      const auto it = store_base.find(hs.store.get());
      const rep::DurableStore::Stats b =
          it != store_base.end() ? it->second : rep::DurableStore::Stats{};
      store_delta.wal_appends += now.wal_appends - b.wal_appends;
      store_delta.snapshots += now.snapshots - b.snapshots;
      store_delta.bytes_appended += now.bytes_appended - b.bytes_appended;
    }
  }

  double contended = 0, bursts = 0, grant_sum = 0;
  for (auto& h : hosts_) {
    rep::MigratorPool* pool = manager_->migrator_pool_of(*h);
    if (pool == nullptr) continue;
    for (rep::ReplicationEngine* e : all_engines()) {
      if (e->env().migrator_pool != pool) continue;
      const rep::MigratorPool::ClientStats cs = pool->client_stats(e->pool_client());
      contended += static_cast<double>(cs.contended_bursts);
      bursts += static_cast<double>(cs.bursts);
      grant_sum += static_cast<double>(cs.granted_thread_sum);
    }
  }
  double queueing0 = 0, queueing1 = 0;
  for (const auto& v : report0.vms) queueing0 += sim::to_millis(v.queueing);
  for (const auto& v : report1.vms) queueing1 += sim::to_millis(v.queueing);

  const double measured_virtual_s = sim::to_seconds(t1 - t0);
  const double measured_host_s = seconds_between(t_measure, t_measured);
  obs::JsonValue counts = obs::JsonValue::object();
  counts.set("hv.dirty_pages", dirty_pages_model);
  counts.set("simnet.frames", static_cast<double>(fabric_.frames_sent() - frames0));
  counts.set("simnet.frame_mib",
             static_cast<double>(fabric_.frame_bytes_sent() - frame_bytes0) / kMiB);
  counts.set("replication.wire.retransmit_frac",
             ratio(static_cast<double>(retransmits),
                   static_cast<double>(fabric_.frames_sent() - frames0)));
  const double pages_in = static_cast<double>(enc.pages_in);
  counts.set("replication.encoder.pages_in", pages_in);
  counts.set("replication.encoder.zero_frac",
             ratio(static_cast<double>(enc.pages_zero), pages_in));
  counts.set("replication.encoder.delta_frac",
             ratio(static_cast<double>(enc.pages_delta), pages_in));
  counts.set("replication.encoder.skip_frac",
             ratio(static_cast<double>(enc.pages_skipped), pages_in));
  counts.set("replication.encoder.wire_ratio",
             ratio(static_cast<double>(enc.bytes_out),
                   static_cast<double>(enc.bytes_in)));
  counts.set("replication.durable.wal_appends",
             static_cast<double>(store_delta.wal_appends));
  counts.set("replication.durable.snapshots",
             static_cast<double>(store_delta.snapshots));
  counts.set("replication.durable.write_amp",
             ratio(static_cast<double>(store_delta.bytes_appended),
                   committed_real_bytes));
  counts.set("workload.ops", ops1 - ops0);
  counts.set("replication.io.released", static_cast<double>(released));
  counts.set("replication.period.mean_ms", periods_ms.mean());
  counts.set("replication.pool.contended_frac", ratio(contended, bursts));
  counts.set("replication.pool.mean_grant", ratio(grant_sum, bursts));
  counts.set("simnet.arbiter.queueing_ms", queueing1 - queueing0);
  counts.set("simnet.arbiter.peak_reserved_frac",
             ratio(report1.peak_reserved_bytes_per_s,
                   report1.link_capacity_bytes_per_s));
  counts.set("mgmt.replica_moves",
             static_cast<double>(manager_->replica_moves() - moves0));
  counts.set("mgmt.rebalance_deferred",
             static_cast<double>(manager_->rebalance_deferred() - deferred0));
  counts.set("mgmt.membership_rounds",
             static_cast<double>(
                 (manager_->membership() ? manager_->membership()->rounds() : 0) -
                 rounds0));
  const double later_seeds =
      static_cast<double>(all_engines().size() - initial_engines_);
  counts.set("mgmt.delta_seed_frac",
             ratio(static_cast<double>(delta_seeds), later_seeds));
  counts.set("faults.injected", static_cast<double>(injector_->injected_count()));
  counts.set("sim.events", static_cast<double>(sim_.executed_count() - events0));

  // Guest images for the probes, captured before the fault tail.
  ProbeRates probes;
  if (args_.traced) {
    std::vector<ImagePair> images;
    std::vector<const rep::DurableStore*> stores;
    for (const auto& p : manager_->protections()) {
      rep::ReplicationEngine& e = p->engine();
      if (images.size() < 8 && e.primary_vm() != nullptr &&
          e.staging() != nullptr && !e.failed_over()) {
        images.push_back({&e.primary_vm()->memory(), &e.staging()->memory()});
      }
      if (stores.size() < 8 && p->store() != nullptr) stores.push_back(p->store());
    }
    probes = run_probes(images, stores);
  }

  // --- Fault tail: failover and re-protection ----------------------------------------
  const Clock::time_point t_tail = Clock::now();
  obs::JsonValue tail = obs::JsonValue::object();
  run_tail(fault_rng, tail);
  const double tail_s = seconds_between(t_tail, Clock::now());
  gate(tally_.unexplained_aborts == 0, "epochs aborted with both hosts alive");

  // --- Output ----------------------------------------------------------------------------
  obs::JsonValue virt = obs::JsonValue::object();
  virt.set("measured_virtual_s", measured_virtual_s);
  virt.set("epochs", static_cast<double>(pauses_ms.count()));
  virt.set("pause_ms_p50", pauses_ms.percentile(0.5));
  virt.set("pause_ms_p90", pauses_ms.percentile(0.9));
  virt.set("degradation_worst", vm_degradation.max());
  virt.set("client_kops", client_ops / measured_virtual_s / 1e3);
  virt.set("output_delay_ms_p50", delays_ms.percentile(0.5));
  virt.set("output_delay_ms_p90", delays_ms.percentile(0.9));
  virt.set("output_delay_samples", static_cast<double>(delays_ms.count()));
  virt.set("epochs_committed_frac",
           ratio(static_cast<double>(pauses_ms.count()), attempted_epochs));
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const char c : virt.dump() + tail.dump() + counts.dump()) {
    digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }

  obs::JsonValue host = obs::JsonValue::object();
  host.set("setup_s", seconds_between(kProcessStart, t_setup));
  host.set("construct_s", seconds_between(t_construct, t_seed));
  host.set("seed_s", seconds_between(t_seed, t_seeded));
  host.set("measured_host_s", measured_host_s);
  host.set("sim_speedup", measured_virtual_s / measured_host_s);
  host.set("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  host.set("fleet_report_ms", fleet_report_ms);
  host.set("tail_s", tail_s);
  host.set("epoch_host_ms", json_array(tally_.epoch_host_ms));

  obs::JsonValue out = obs::JsonValue::object();
  out.set("workload", args_.workload);
  out.set("seed", static_cast<double>(args_.seed));
  out.set("traced", args_.traced ? 1 : 0);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  out.set("virtual_digest", hex);
  out.set("virtual", virt);
  out.set("tail", tail);
  out.set("counts", counts);
  out.set("host", host);
  if (args_.traced) {
    obs::JsonValue layers = obs::JsonValue::object();
    layers.set("stamped_s", stamped_s);
    const Stage stages[] = {Stage::kGuest, Stage::kCaptureEncode, Stage::kFrame,
                            Stage::kCommit, Stage::kRelease, Stage::kResidual};
    const char* names[] = {"guest", "capture_encode", "frame",
                           "commit", "release", "residual"};
    for (std::size_t i = 0; i < kStageCount; ++i) {
      layers.set(std::string("total_s.") + names[i], clock_.total_s(stages[i]));
    }
    const sim::Histogram& commit = clock_.samples_ms(Stage::kCommit);
    layers.set("replication.commit_host_ms_p50", commit.percentile(0.5));
    layers.set("replication.commit_host_ms_p90", commit.percentile(0.9));
    layers.set("replication.frame_host_ms_p50",
               clock_.samples_ms(Stage::kFrame).percentile(0.5));
    layers.set("replication.capture_encode_host_ms_p50",
               clock_.samples_ms(Stage::kCaptureEncode).percentile(0.5));
    layers.set("replication.release_host_ms_p50",
               clock_.samples_ms(Stage::kRelease).percentile(0.5));
    layers.set("workload.tick_host_s", clock_.total_s(Stage::kGuest));
    layers.set("sim.residual_host_s", clock_.total_s(Stage::kResidual));
    layers.set("replication.seed_host_s", seconds_between(t_seed, t_seeded));
    layers.set("mgmt.fleet_report_host_ms", fleet_report_ms);
    layers.set("common.memcpy_mib_per_s", probes.memcpy);
    layers.set("hv.page_digest_mib_per_s", probes.page_digest);
    layers.set("common.crc32c_mib_per_s", probes.crc32c);
    layers.set("replication.xor_rle_encode_mib_per_s", probes.xor_rle);
    layers.set("replication.durable.read_mib_per_s", probes.durable_read);
    out.set("layers", layers);
  }
  out.set("epochs_attempted", attempted_epochs);
  out.set("epochs_failed", static_cast<double>(aborted));
  return print(std::move(out));
}

int Harness::print(obs::JsonValue out) {
  obs::JsonValue violations = obs::JsonValue::array();
  for (const std::string& v : violations_) violations.push_back(v);
  out.set("violations", violations);
  std::printf("PERFBENCH %s\n", out.dump().c_str());
  std::fflush(stdout);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: here_perfbench --workload=<ckpt_dense|ycsb_raw|"
               "fleet_churn> --seed=N --measure=<virtual s> [--traced] "
               "[--setup-only]\n");
  return 2;
}

}  // namespace
}  // namespace here::perfbench

int main(int argc, char** argv) {
  using namespace here::perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.starts_with("--workload=")) {
      args.workload = a.substr(11);
    } else if (a.starts_with("--seed=")) {
      args.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (a.starts_with("--measure=")) {
      args.measure_s = std::strtod(argv[i] + 10, nullptr);
    } else if (a == "--traced") {
      args.traced = true;
    } else if (a == "--setup-only") {
      args.setup_only = true;
    } else {
      return usage();
    }
  }
  if (args.workload == "ckpt_dense") {
    args.kind = Kind::kCkptDense;
  } else if (args.workload == "ycsb_raw") {
    args.kind = Kind::kYcsbRaw;
  } else if (args.workload == "fleet_churn") {
    args.kind = Kind::kFleetChurn;
  } else {
    return usage();
  }
  if (!(args.measure_s > 0.0)) return usage();
  Harness harness(args);
  return harness.run();
}
