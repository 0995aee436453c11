// The HERE replication engine (paper §5): orchestrates seeding, continuous
// multithreaded checkpointing, outbound I/O buffering, state translation,
// heartbeat monitoring and failover of one protected VM from a primary host
// to a secondary host — which may run a *different* hypervisor
// (heterogeneous replication) or the same one (the Remus baseline).
//
// Lifecycle:
//   start_protection(vm)
//     -> seeding (live pre-copy, §7.2(1)); failed attempts retry with
//        exponential backoff up to ft.seed_max_attempts
//     -> epoch 0 committed (memory + translated machine state + program)
//     -> continuous checkpoints every T (§7.2(2)), T driven by the dynamic
//        period manager (§5.4) unless a fixed period is configured; an epoch
//        whose transfer cannot complete (link down, or projected to exceed
//        ft.checkpoint_timeout) is aborted and retried — its dirty pages and
//        disk writes are folded back into the running epoch, so output
//        commit is preserved across the abort
//     -> on primary failure (heartbeat loss or explicit trigger): the last
//        committed checkpoint activates on the secondary hypervisor; the
//        guest agent switches device families; unreleased outbound packets
//        are dropped (never seen by clients — output commit).
//
// Hardening knobs live in FaultToleranceConfig; every default preserves the
// original fail-stop behaviour bit-for-bit, so fault-free runs are
// unchanged. Lifecycle consumers implement EngineObserver
// (engine_observer.h); the legacy protect() shim and its ad-hoc callback
// were removed (docs/api_migration.md).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "hv/host.h"
#include "kvmsim/kvm_hypervisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/detectors.h"
#include "replication/durable_store.h"
#include "replication/encoder.h"
#include "replication/engine_observer.h"
#include "replication/io_buffer.h"
#include "replication/migrator_pool.h"
#include "replication/period_manager.h"
#include "replication/seeder.h"
#include "replication/staging.h"
#include "replication/time_model.h"
#include "sim/stats.h"
#include "simnet/link_arbiter.h"
#include "xensim/xen_hypervisor.h"

namespace here::rep {

enum class EngineMode : std::uint8_t {
  kRemus,  // baseline: single-threaded, same-hypervisor replica
  kHere,   // multithreaded, heterogeneous replica, dynamic period
};

// Control-message kinds on the replication interconnect / management
// network. (Guest traffic uses kind 0.)
inline constexpr std::uint32_t kHeartbeatKind = 0xbeef;
inline constexpr std::uint32_t kProbeRequestKind = 0xbef0;
inline constexpr std::uint32_t kProbeReplyKind = 0xbef1;
// Resume-probe arbitration (recovered-primary / failover race). The tag
// field carries the engine's probe token so multiple engines sharing a host
// pair never cross wires.
inline constexpr std::uint32_t kResumeProbeKind = 0xbef2;
inline constexpr std::uint32_t kResumeGrantKind = 0xbef3;
inline constexpr std::uint32_t kResumeDenyKind = 0xbef4;

// Engine-hardening knobs. Zero-valued durations disable the corresponding
// mechanism; the defaults reproduce the original fail-stop engine exactly.
struct FaultToleranceConfig {
  // Seeding: total attempts (1 = the original single-shot behaviour). A
  // failed attempt tears down its seeder/staging and rebuilds from scratch.
  std::uint32_t seed_max_attempts = 1;
  // Per-attempt deadline; 0 disables. Without a deadline a primary crash
  // mid-seeding silently abandons protection (there is no completion event
  // to observe), so retries only engage when this is set.
  sim::Duration seed_attempt_timeout{};
  // Backoff before attempt n+1: seed_retry_backoff << min(n-1, 6).
  sim::Duration seed_retry_backoff = sim::from_millis(250);
  // Abort a checkpoint whose projected pause + background transfer exceeds
  // this; 0 disables. The epoch's state folds back into the running epoch.
  sim::Duration checkpoint_timeout{};
  // Backoff before re-attempting an aborted checkpoint (same exponential
  // rule as seeding, capped at the period ceiling t_max).
  sim::Duration checkpoint_retry_backoff = sim::from_millis(100);
  // On heartbeat loss, ping the primary over the *management* network to
  // distinguish an interconnect partition from a host crash before failing
  // over (stats().failure_classification records the verdict).
  bool probe_on_heartbeat_loss = false;
  sim::Duration probe_timeout = sim::from_millis(50);
  // Split-brain fencing: delay replica activation after a heartbeat-loss
  // failover by this window; if primary heartbeats resume within it, the
  // failover is cancelled ("fenced") and checkpointing restarts, so at most
  // one VM ever serves the service address. 0 = activate immediately.
  // Explicit trigger_failover()/detector failovers are never fenced.
  sim::Duration fencing_window{};
  // Checkpoint-stream integrity: rounds of selective retransmission for
  // regions whose frames fail CRC verification, before the epoch falls back
  // to abort-and-retry. Retransmitted bytes inflate the epoch's transfer
  // cost, so repairs still land inside checkpoint_timeout (or trip it).
  std::uint32_t retransmit_budget = 3;
  // Background scrubbing: audit the replica's committed image against the
  // per-region digests recorded at commit every `scrub_interval`, scheduling
  // a full re-send of any region that diverged after commit. 0 disables.
  sim::Duration scrub_interval{};
};

// Host-shared services the engine *borrows* from its environment, passed at
// construction next to (not inside) ReplicationConfig: the config describes
// policy knobs that are meaningful per engine, the environment names
// longer-lived infrastructure that is owned elsewhere and must outlive the
// engine. A default-constructed EngineEnv is the standalone engine: its own
// migrator pool, a dedicated wire, no durability.
struct EngineEnv {
  // Shared host migrator pool: checkpoint bursts draw fair-share thread
  // grants from it, so N engines on one host contend explicitly. Null gives
  // the engine its own pool of checkpoint_threads workers and full grants.
  MigratorPool* migrator_pool = nullptr;
  // Shared replication-link bandwidth arbiter: when set, every epoch
  // transfer reserves WFQ capacity and contention stretches the pause.
  // Null models the wire as dedicated, unchanged.
  net::LinkArbiter* link_arbiter = nullptr;
  // Secondary-local durable store (durable_store.h): when set, every
  // committed epoch is WAL-appended before the commit is acked, and a
  // crashed secondary (inject_secondary_crash) rejoins from snapshot+WAL
  // with per-region delta resync instead of a full re-send. Null means a
  // secondary crash costs the full-reseed-equivalent resync.
  DurableStore* durable_store = nullptr;
};

struct ReplicationConfig {
  EngineMode mode = EngineMode::kHere;
  // Migrator threads for the continuous phase (paper evaluates P = #vCPUs).
  // Forced to 1 in Remus mode.
  std::uint32_t checkpoint_threads = 4;
  // Checkpoint period policy. target_degradation == 0 gives a fixed period
  // T == t_max (both for Remus and the "HERE(T,0%)" configurations).
  PeriodConfig period;
  SeedConfig seed;
  sim::Duration heartbeat_interval = sim::from_millis(25);
  sim::Duration heartbeat_timeout = sim::from_millis(100);
  TimeModelConfig time_model;
  // Activate the replica automatically when the heartbeat lapses.
  bool auto_failover = true;
  // Content-aware checkpoint encoders (src/replication/encoder.h): shrink
  // what reaches the migrator pool and the wire (zero elision, XOR-delta,
  // content-hash skip) on wire version 1. All-off keeps the engine on wire
  // version 0, byte-identical to the un-encoded stream.
  EncoderConfig encoders;
  // Speculative copy-on-write checkpointing (the Remus paper's classic
  // optimization, extension here): the dirty set is duplicated into a local
  // buffer at memcpy speed, the VM resumes immediately, and the network
  // transfer proceeds in the background. Slashes the pause t (and thus the
  // degradation); output commit still waits for the background transfer, so
  // client-visible latency is unchanged.
  bool speculative_cow = false;
  // Engine-hardening behaviour under injected faults (src/faults).
  FaultToleranceConfig ft;
  // Fair-share weight of this engine on the migrator pool and link (> 0).
  // Only contending clients on a shared EngineEnv pool or arbiter weigh it.
  double flow_weight = 1.0;
  // Highest checkpoint wire version this engine's *replica* advertises
  // (rolling-upgrade pinning). A v1-capable secondary pinned to v0 makes the
  // primary negotiate the raw stream down — and suppresses the encoder stage
  // entirely, since encoded bytes can never travel in v0 frames.
  std::uint16_t replica_max_wire_version = wire::kWireVersionEncoded;
  // Observability (src/obs): borrowed pointers, either may be null, both
  // must outlive the engine. The engine (and the components it drives:
  // seeder, outbound buffer, period decisions) emits spans/instants through
  // `tracer` and keeps counters/histograms in `metrics`. A null tracer means
  // obs::Tracer::none(); a null registry means the engine keeps its
  // instruments in a private registry nobody reads. Event schema:
  // docs/observability.md.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

// Typed fail-fast validation of the full engine config (period policy,
// thread count, heartbeat cadence, fault-tolerance knobs). The constructor
// rejects invalid configs with std::invalid_argument carrying the same
// message; control-plane callers (src/mgmt) check this first and propagate
// the Status instead of catching.
[[nodiscard]] Status validate_replication_config(const ReplicationConfig& config);

struct EngineStats {
  SeedResult seed;
  sim::TimePoint protected_at{};  // epoch 0 committed
  std::vector<CheckpointRecord> checkpoints;
  sim::TimeSeries period_series{"period_s"};
  sim::TimeSeries degradation_series{"degradation_pct"};
  std::uint64_t heartbeats_sent = 0;
  sim::Duration total_pause{};
  // Replication CPU-seconds consumed on the primary (§8.7).
  sim::Duration replication_cpu{};

  // Hardening counters (all zero on the fault-free path).
  std::uint32_t seed_attempts = 0;    // begun attempts, incl. the first
  std::uint64_t epochs_aborted = 0;   // checkpoints aborted and retried
  std::uint64_t failovers_fenced = 0; // activations cancelled by fencing

  // Checkpoint-stream integrity counters (zero on an unimpaired wire).
  std::uint64_t regions_corrupted = 0;  // frames that failed verification
  std::uint64_t retransmits = 0;        // frames selectively retransmitted
  std::uint64_t commits_rejected = 0;   // epochs refused by the replica
  std::uint64_t scrub_runs = 0;         // background audits completed
  std::uint64_t scrub_repairs = 0;      // regions re-sent after divergence

  // Content-aware encoder accounting (all zero with encoders off). Real
  // (pre-model_scale) page counts and bytes, cumulative over encode passes
  // including aborted epochs — it measures encode work done, not commits.
  EncodeStats encode;

  // Durable-rejoin accounting (all zero without secondary crashes).
  std::uint64_t secondary_crashes = 0;  // injected secondary process crashes
  std::uint64_t rejoins = 0;            // local snapshot+WAL recoveries
  std::uint64_t full_resyncs = 0;       // rejoins that fell back to re-send-all
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t resync_regions = 0;     // regions with any post-recovery divergence
  std::uint64_t resync_pages = 0;       // real pages re-sent after page-digest diff
  std::uint64_t resync_disk_sectors = 0;  // divergent sectors re-mirrored
  sim::Duration last_rejoin_time{};     // crash -> first post-rejoin commit
  RecoveryResult last_recovery;         // outcome of the last local recovery

  // Recovered-primary arbitration accounting (all zero without recovery
  // faults). Exactly one of {resume_grants, primary_demotions} moves per
  // race: the recovered side either wins (resumes output commit) or loses
  // (demotes to a re-seed candidate) — never both.
  std::uint64_t resume_probes = 0;      // probes sent by the recovered primary
  std::uint64_t resume_grants = 0;      // arbitration won: output commit resumed
  std::uint64_t primary_demotions = 0;  // arbitration lost: primary demoted
  std::uint64_t delta_seeds = 0;        // re-seeds served from a surviving store
  // Watchdog verdict ("", "crash-suspected" or "partition-suspected");
  // populated on heartbeat-loss failovers when probing is enabled.
  std::string failure_classification;

  bool failed_over = false;
  sim::TimePoint failure_detected_at{};
  sim::TimePoint replica_active_at{};
  // "Replica resumption time" as measured for Fig. 7: from the start of the
  // failover process to the replica VM running.
  sim::Duration resumption_time{};
  std::uint64_t packets_dropped_at_failover = 0;
  // Unreleased output discarded when the generation was drained (replica
  // re-placement); such packets were never client-visible, so dropping them
  // preserves output commit.
  std::uint64_t packets_dropped_at_drain = 0;
  // Memory digests captured at the instant of replica activation (the
  // replica image must equal the committed checkpoint byte-for-byte).
  std::uint64_t replica_digest_at_activation = 0;
  std::uint64_t committed_digest_at_activation = 0;
  std::uint64_t replica_disk_digest_at_activation = 0;
  std::uint64_t committed_disk_digest_at_activation = 0;
};

class ReplicationEngine {
 public:
  // The paper's prototype replicates Xen -> KVM; this implementation also
  // supports the reverse direction (KVM primary -> Xen secondary, seeding
  // via KVM's dirty bitmap instead of PML rings), which is what enables
  // re-protection after a failover. Remus mode requires a homogeneous
  // pair. Hosts must already be connected on the interconnect fabric.
  // `env` aggregates the host-shared services the engine borrows (pool,
  // link arbiter, durable store); the default EngineEnv is the standalone
  // single-engine environment.
  ReplicationEngine(sim::Simulation& simulation, net::Fabric& fabric,
                    hv::Host& primary, hv::Host& secondary,
                    ReplicationConfig config, EngineEnv env = {});
  ~ReplicationEngine();

  ReplicationEngine(const ReplicationEngine&) = delete;
  ReplicationEngine& operator=(const ReplicationEngine&) = delete;

  // Starts protecting `vm` (owned by the primary's hypervisor; must be
  // running). Reconciles the VM's CPUID policy across both hypervisors,
  // interposes the outbound buffer, seeds the replica, then checkpoints
  // continuously. Returns kFailedPrecondition if the engine is already
  // protecting a VM or `vm` is not running. Lifecycle notifications
  // (protection established, checkpoints, failover) go to registered
  // EngineObservers.
  [[nodiscard]] Status start_protection(hv::Vm& vm);

  // Registers a lifecycle observer (borrowed; must outlive the engine).
  void add_observer(EngineObserver* observer);

  // External clients address the protected service through this node; the
  // engine re-points it at the replica on failover (IP takeover).
  [[nodiscard]] net::NodeId service_node() const { return service_node_; }

  // Force a failover now (e.g. an attack detector fired, §8.2). Operator
  // failovers are deliberate: they bypass the fencing window.
  void trigger_failover(const std::string& reason);

  // Registers a failure detector, polled on the watchdog cadence once the
  // VM is protected; a firing detector triggers failover.
  void add_detector(std::unique_ptr<FailureDetector> detector);

  // Fault-injection hook (src/faults): stalls the migrator threads, adding
  // `stall` to the next checkpoint's pause (a wedged copy thread in the real
  // system holds the VM paused exactly this way).
  void inject_migrator_stall(sim::Duration stall);

  // Fault-injection hook (src/faults): the secondary's replication process
  // crashes now and reboots after `reboot_after`. The staging area (replica
  // RAM) is lost immediately; the in-flight epoch folds back into the
  // running one and checkpointing stops. On reboot the engine rejoins:
  // with a durable store it recovers locally from snapshot+WAL and re-sends
  // only digest-divergent regions; without one every page is re-sent (the
  // full-reseed-equivalent baseline). Protection (failover eligibility) is
  // restored at the first post-rejoin commit. No-op before epoch 0 commits
  // or after failover.
  void inject_secondary_crash(sim::Duration reboot_after);

  // Fault-injection hooks (src/faults): damage the durable WAL tail, as a
  // torn write (XOR corruption) or a truncation (power cut mid-append).
  // No-ops without a durable store.
  void inject_wal_torn_write(std::uint64_t bytes);
  void inject_wal_truncation(std::uint64_t bytes);

  // Retires this engine generation in place so a successor can take over the
  // same (still-running) primary VM toward a different secondary — the
  // drain -> re-place -> delta-reseed path of fleet placement. Every
  // scheduled event is cancelled, an in-flight seed or epoch capture is
  // abandoned (the guest resumes if the drain landed mid-pause), and
  // unreleased buffered output is dropped (never-released output was never
  // client-visible, so output commit holds; counted in
  // stats().packets_dropped_at_drain). The replica staging, durable store
  // and stats stay readable; heartbeats, watchdogs, failovers, rejoins and
  // resume-probe arbitration are permanently disabled. The successor's
  // start_protection re-points the guest tx hook at itself. Idempotent.
  void drain(const std::string& reason);
  [[nodiscard]] bool drained() const { return drained_; }

  // True between a secondary reboot and the first post-rejoin commit.
  [[nodiscard]] bool rejoining() const { return rejoining_; }

  // True once this engine's primary lost the resume-probe arbitration: its
  // stale VM was destroyed and the engine will never checkpoint again (the
  // control plane re-protects the activated replica with a fresh engine).
  [[nodiscard]] bool primary_demoted() const { return primary_demoted_; }

  [[nodiscard]] bool protecting() const { return vm_ != nullptr; }
  [[nodiscard]] bool seeded() const { return seeded_; }
  [[nodiscard]] bool failed_over() const { return stats_.failed_over; }
  [[nodiscard]] bool failover_in_progress() const {
    return failover_in_progress_;
  }

  [[nodiscard]] hv::Vm* primary_vm() { return vm_; }
  // Null once the twin no longer exists on the secondary (a newer engine
  // generation demoted and destroyed it) — callers get a validated pointer,
  // never a dangling one.
  [[nodiscard]] hv::Vm* replica_vm() {
    if (replica_vm_ != nullptr && !secondary_.hypervisor().owns(*replica_vm_)) {
      return nullptr;
    }
    return replica_vm_;
  }
  // The VM currently responsible for the service.
  [[nodiscard]] hv::Vm* active_vm();

  // True when a running VM (primary or activated replica) can serve clients.
  [[nodiscard]] bool service_available();

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] EngineStats& mutable_stats() { return stats_; }
  [[nodiscard]] OutboundBuffer& outbound() { return outbound_; }
  [[nodiscard]] ReplicaStaging* staging() { return staging_.get(); }
  [[nodiscard]] PeriodManager& period_manager() { return period_; }
  [[nodiscard]] const TimeModel& time_model() const { return model_; }
  [[nodiscard]] const ReplicationConfig& config() const { return config_; }
  [[nodiscard]] const EngineEnv& env() const { return env_; }

  [[nodiscard]] bool heterogeneous() const {
    return primary_.hypervisor().kind() != secondary_.hypervisor().kind();
  }

  // Fleet-scheduling identities (valid once start_protection ran; the
  // arbiter flow is only meaningful when EngineEnv carries an arbiter).
  [[nodiscard]] MigratorPool::ClientId pool_client() const {
    return pool_client_;
  }
  [[nodiscard]] net::LinkArbiter::FlowId arbiter_flow() const {
    return arb_flow_;
  }

 private:
  [[nodiscard]] std::uint32_t threads() const;

  // --- Seeding (with retry) --------------------------------------------------
  void begin_seed_attempt();
  void schedule_seed_retry(const char* why);
  void on_seed_attempt_timeout();
  void on_seeded(const SeedResult& result);
  void commit_initial_checkpoint();

  // --- Continuous checkpointing ---------------------------------------------
  // One epoch runs as a pipeline of stages, each returning a typed result:
  //   capture -> encode -> seal -> transmit -> price -> commit/abort.
  // run_checkpoint coordinates them; every abort goes through abort_epoch.

  // The epoch's dirty set, cut into one frame per dirty 2 MiB region (page
  // numbers only; the encode stage fills the payloads).
  struct EpochCapture {
    std::uint32_t threads = 1;                // migrator threads granted (P)
    std::vector<std::uint64_t> worker_pages;  // real pages each worker took
    std::uint64_t pages = 0;                  // real pages captured
    std::uint64_t max_worker_pages = 0;       // the critical-path shard
    std::uint16_t wire_version = wire::kWireVersionRaw;
    std::vector<wire::RegionFrame> frames;
  };
  // What the frames cost to fill, in real (unscaled) units except the CPU
  // terms, which are priced on model-scaled page counts.
  struct EpochEncoding {
    std::uint64_t payload_bytes = 0;  // bytes the frames carry on the wire
    std::uint64_t raw_pages = 0;      // pages that paid the full stream copy
    sim::Duration critical_cpu{};     // slowest worker: raw copies + encode
    sim::Duration encode_cpu{};       // all workers' encode cycles
  };
  // What crossed to the replica besides the first pass of the frames.
  struct EpochTransfer {
    std::uint64_t retransmit_bytes = 0;  // payload re-shipped after NACKs
    bool retransmits_exhausted = false;  // corrupt regions remain
    std::uint64_t disk_bytes = 0;        // mirrored disk writes (model units)
    sim::Duration state{};               // machine state + translation + ACK
  };
  // The epoch's virtual-time cost, t = alpha*N/P + C, term by term. The
  // transfer is copy + retransmit + net_penalty + arbitration + disk + state
  // + durable_append; it lands in the pause, or in the background under
  // speculative CoW (where cow_snapshot is paid in the pause instead).
  struct EpochCost {
    sim::Duration constants{};       // setup + VM pause + VM resume
    sim::Duration scan{};            // dirty-log scan over every page slot
    sim::Duration cow_snapshot{};    // local dirty-set duplicate (CoW only)
    sim::Duration copy{};            // max(critical worker CPU, wire time)
    sim::Duration retransmit{};      // re-shipped corrupt regions
    sim::Duration net_penalty{};     // loss / throttling stretch
    sim::Duration arbitration{};     // shared-link queueing stretch
    sim::Duration disk{};            // disk-mirror transfer
    sim::Duration state{};           // machine state + translation + ACK
    sim::Duration durable_append{};  // replica WAL append before the ACK
    sim::Duration stall{};           // injected migrator stall
    sim::Duration copy_span{};       // migrator threads' busy time
    sim::Duration pause{};
    sim::Duration background{};
  };
  // A priced epoch waiting for its pause (and background transfer) to end.
  struct EpochInFlight {
    std::uint64_t epoch = 0;
    std::uint64_t pages = 0;    // real pages captured
    std::uint32_t threads = 1;  // migrator threads granted (P)
    sim::Duration period_used{};
    sim::Duration pause{};
    sim::Duration background{};
    bool was_running = false;  // the engine paused a running guest
  };

  void schedule_checkpoint();
  void run_checkpoint();
  [[nodiscard]] EpochCapture capture_epoch();
  [[nodiscard]] EpochEncoding encode_epoch(EpochCapture& capture);
  // Seals every frame, folds the epoch header's rolling digest and arms the
  // replica's expectation of the epoch.
  void seal_epoch(EpochCapture& capture);
  // Pushes the epoch's frames through the interconnect data plane, NACKing
  // and selectively retransmitting corrupt regions up to ft.retransmit_budget
  // rounds (retransmits re-ship the sealed frames as-is), then hands the
  // replica the epoch's disk writes and machine state. Corrupt regions left
  // over make the caller fall back to abort-and-retry.
  [[nodiscard]] EpochTransfer transmit_epoch(
      const std::vector<wire::RegionFrame>& frames);
  // Prices the epoch. Reserves its wire bytes on the link arbiter, consumes
  // any injected stall and accounts the CoW buffer: call once per epoch.
  [[nodiscard]] EpochCost price_epoch(const EpochCapture& capture,
                                      const EpochEncoding& encoding,
                                      const EpochTransfer& transfer,
                                      const net::LinkQuality& link);
  // Accounts the epoch's replication CPU and memory; traces its pause.
  void record_epoch_pause(std::uint64_t epoch, const EpochCapture& capture,
                          const EpochEncoding& encoding, const EpochCost& cost);
  // End of the pause: commit now, or resume and wait for the background
  // transfer (speculative CoW).
  void end_epoch_pause(const EpochInFlight& epoch);
  void land_background_transfer(const EpochInFlight& epoch);
  // Commit stage: the replica commits (or refuses) the staged epoch, output
  // is released and the next period is chosen.
  void finish_checkpoint(const EpochInFlight& epoch);
  // The one way an epoch aborts: discard what was staged on both sides of
  // the stream, fold the capture back into the running epoch, let a guest
  // the epoch `paused` run again — after `hold` when set, else now — and
  // record the abort and schedule the retry (exponential backoff).
  void abort_epoch(const char* reason, const EpochInFlight* paused = nullptr,
                   std::optional<sim::Duration> hold = std::nullopt);
  void schedule_scrub();
  void run_scrub();
  // Saves + (if heterogeneous) translates machine state and program snapshot
  // into staging's pending slot. Returns the time cost.
  sim::Duration snapshot_state_and_program();
  // Folds the last captured-but-uncommitted epoch back into the running
  // one: re-marks its pages dirty and restores its mirrored disk writes, so
  // the retry (or a fenced failover's restart) re-ships them.
  void restore_aborted_epoch();
  // Discards the in-flight epoch on both sides of the stream: the staging
  // buffers *and* the encoder's staged reference updates (which must only
  // ever promote when the replica actually commits).
  void abort_staged_epoch();
  // Lets the protected guest run again if it is paused on a live primary.
  void resume_guest();
  // A fresh, empty replica staging area advertising the configured wire
  // version.
  void reset_staging();
  // Builds and baselines the encoder stage against the current memory, when
  // encoders are configured and the replica decodes wire v1. Call only
  // while the replica's committed image equals primary memory.
  void baseline_encoder();
  // Copies the replica's committed per-region digests to the engine side.
  void mirror_committed_digests();

  // --- Heartbeat / failover --------------------------------------------------
  void send_heartbeat();
  void watchdog_check();
  void on_heartbeat_lost();
  void finish_probe();
  // `fence_on_heartbeat`: arm split-brain fencing (heartbeat-loss failovers
  // only; explicit triggers and detectors are deliberate and never fenced).
  void begin_failover(const std::string& reason, bool fence_on_heartbeat);
  void fence_failover();
  void activate_replica();

  // --- Secondary crash / rejoin ----------------------------------------------
  // Rebuilds staging on secondary reboot: local recovery (durable store) or
  // full resync, then the digest-diff that schedules divergent regions for
  // re-send. Checkpointing resumes after the modelled recovery time.
  void on_secondary_rebooted();

  // --- Recovered-primary arbitration (ReHype microreboot race) ----------------
  // A primary back from a microreboot must not silently resume output
  // commit: the secondary may have failed over (or be mid-failover) while it
  // was dark. The recovered side holds its VM paused and probes; the
  // secondary's event-serialized packet handler is the linearization point
  // — grant (cancelling any armed-but-unfired failover) or deny (it already
  // activated). Exactly one side ends up authoritative.
  void on_primary_recovered();
  void send_resume_probe();
  void on_resume_probe(const net::Packet& packet);  // secondary side
  void on_resume_grant();                           // primary side, won
  void demote_primary(const char* reason);          // primary side, lost
  // Delta re-seed: when the environment's durable store already holds a
  // snapshot+WAL for this VM (a previous engine generation wrote it), seed
  // the replica from local recovery plus a digest diff instead of streaming
  // every page. Returns false (caller full-seeds) when there is no store or
  // recovery fails.
  bool try_delta_seed();

  void on_guest_tx(const net::Packet& packet);
  void on_service_packet(const net::Packet& packet);

  void notify_degraded(DegradedKind kind, std::string detail);
  // Cancels every event this engine generation has scheduled.
  void cancel_events();

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  hv::Host& primary_;
  hv::Host& secondary_;
  ReplicationConfig config_;
  EngineEnv env_;
  // config_.tracer, or obs::Tracer::none() when it is null.
  const obs::Tracer& tracer_;
  TimeModel model_;
  // The engine's own migrator pool; null when EngineEnv shares one.
  std::unique_ptr<MigratorPool> owned_pool_;
  // Where checkpoint bursts and seeding run: the shared or the owned pool.
  MigratorPool& pool_;
  PeriodManager period_;
  OutboundBuffer outbound_;
  MigratorPool::ClientId pool_client_ = MigratorPool::kInvalidClient;
  net::LinkArbiter::FlowId arb_flow_ = 0;

  net::NodeId service_node_ = net::kInvalidNode;
  hv::Vm* vm_ = nullptr;
  hv::Vm* replica_vm_ = nullptr;
  std::unique_ptr<ReplicaStaging> staging_;
  // Content-aware encoder stage; null when config_.encoders is all-off (the
  // engine then stays on wire version 0). Rebuilt with each seed attempt and
  // baselined at the epoch-0 commit.
  std::unique_ptr<EncoderPipeline> encoder_;
  std::unique_ptr<Seeder> seeder_;
  std::vector<std::unique_ptr<FailureDetector>> detectors_;
  std::vector<EngineObserver*> observers_;

  bool seeded_ = false;
  bool failover_in_progress_ = false;
  bool fencing_armed_ = false;
  bool probe_in_flight_ = false;
  bool probe_reply_received_ = false;
  std::uint32_t seed_attempt_ = 0;
  std::uint32_t abort_streak_ = 0;   // consecutive aborted checkpoints
  std::uint32_t corruption_streak_ = 0;  // consecutive epochs with bad frames
  sim::Duration pending_stall_{};    // injected migrator stall, not yet paid
  std::uint64_t current_epoch_ = 0;  // execution epoch being buffered
  std::uint64_t epoch_start_captured_ = 0;  // outbound count at epoch start
  std::vector<hv::DiskWrite> epoch_disk_writes_;  // storage mirror buffer
  // Last captured epoch's content, kept until its commit so an abort (or a
  // fenced failover) can fold it back into the running epoch.
  std::vector<common::Gfn> last_epoch_gfns_;
  std::vector<hv::DiskWrite> last_epoch_disk_writes_;
  sim::TimePoint last_checkpoint_done_{};
  sim::TimePoint last_heartbeat_rx_{};
  sim::EventId checkpoint_event_;
  sim::EventId checkpoint_finish_event_;
  sim::EventId heartbeat_event_;
  sim::EventId watchdog_event_;
  sim::EventId seed_deadline_event_;
  sim::EventId seed_retry_event_;
  sim::EventId seed_commit_event_;  // epoch-0 commit after a (delta) seed
  sim::EventId probe_event_;
  sim::EventId failover_activate_event_;
  sim::EventId scrub_event_;
  sim::EventId secondary_reboot_event_;

  // Secondary crash / rejoin state. The digest mirror tracks the replica's
  // committed per-region digests on the *engine* side: staging dies with the
  // secondary, and the rejoin diff needs the last-acked references to decide
  // which regions the recovered image is missing.
  bool rejoining_ = false;
  bool secondary_down_ = false;
  bool drained_ = false;
  sim::TimePoint secondary_crashed_at_{};
  std::vector<std::uint64_t> committed_digest_mirror_;

  // Recovered-primary arbitration state. The probe token fences this
  // engine's probes from other engines on the same host pair (derived from
  // the VM name, never from pointers — determinism).
  bool resume_probe_pending_ = false;
  bool primary_demoted_ = false;
  bool delta_seeded_ = false;  // current seed came from a surviving store
  std::uint64_t probe_token_ = 0;
  sim::EventId resume_probe_event_;

  // Holds the instruments config_.metrics does not receive: all of them
  // without a shared registry, else those of a stage the engine lacks
  // (encoders off, no durable store).
  obs::MetricsRegistry own_metrics_;
  // Cached metric instruments, never null after construction.
  obs::Counter* m_epochs_ = nullptr;
  obs::Counter* m_dirty_pages_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_heartbeats_ = nullptr;
  obs::Counter* m_seed_retries_ = nullptr;
  obs::Counter* m_epochs_aborted_ = nullptr;
  obs::Counter* m_failovers_fenced_ = nullptr;
  obs::Counter* m_regions_corrupted_ = nullptr;
  obs::Counter* m_retransmits_ = nullptr;
  obs::Counter* m_commits_rejected_ = nullptr;
  obs::Counter* m_scrub_runs_ = nullptr;
  obs::Counter* m_scrub_repairs_ = nullptr;
  obs::Counter* m_enc_bytes_in_ = nullptr;
  obs::Counter* m_enc_bytes_out_ = nullptr;
  obs::Counter* m_enc_pages_zero_ = nullptr;
  obs::Counter* m_enc_pages_delta_ = nullptr;
  obs::Counter* m_enc_pages_skipped_ = nullptr;
  obs::Counter* m_resume_probes_ = nullptr;
  obs::Counter* m_primary_demotions_ = nullptr;
  obs::Counter* m_wal_appends_ = nullptr;
  obs::Counter* m_wal_replays_ = nullptr;
  obs::Counter* m_resync_regions_ = nullptr;
  obs::FixedHistogram* m_rejoin_ms_ = nullptr;
  obs::FixedHistogram* m_pause_ms_ = nullptr;
  obs::FixedHistogram* m_degradation_pct_ = nullptr;
  obs::FixedHistogram* m_mttr_ms_ = nullptr;
  obs::Gauge* m_period_s_ = nullptr;

  EngineStats stats_;
};

}  // namespace here::rep
