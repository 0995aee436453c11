// Trace determinism: the simulation is deterministic, so the trace and
// metrics exports are testable artifacts — two runs from the same seed must
// serialize byte-identically, in both engine modes; a different seed must
// perturb the trace. Observing a run must not change it either: a run with
// no tracer and no registry reaches exactly the same engine outcome.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/testbed.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

struct RunArtifacts {
  std::string trace_jsonl;
  std::string trace_chrome;
  std::string metrics_json;
  std::uint64_t events = 0;
  EngineStats stats;
};

// A full protect -> checkpoint -> induced-failure -> failover scenario.
// The failover activation jitter draws from the secondary's RNG, so the
// artifacts are sensitive to the seed end to end. Unobserved runs attach
// neither a tracer nor a registry and leave the exports empty.
RunArtifacts run_scenario(EngineMode mode, std::uint64_t seed,
                          bool observed = true) {
  obs::RingBufferRecorder recorder(1u << 18);
  obs::Tracer tracer(&recorder);
  obs::MetricsRegistry metrics;

  TestbedConfig config;
  config.seed = seed;
  config.vm_spec = hv::make_vm_spec("vm", 2, 64ULL << 20);
  config.engine.mode = mode;
  config.engine.checkpoint_threads = 2;
  config.engine.period.t_max = sim::from_millis(500);
  if (observed) {
    config.engine.tracer = &tracer;
    config.engine.metrics = &metrics;
  }
  Testbed bed(config);

  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(5));

  bed.primary().inject_fault(hv::FaultKind::kCrash);
  bed.run_until([&] { return bed.engine().failed_over(); },
                sim::from_seconds(10));
  EXPECT_TRUE(bed.engine().failed_over());

  RunArtifacts out;
  const auto events = recorder.snapshot();
  out.trace_jsonl = obs::to_jsonl(events);
  out.trace_chrome = obs::to_chrome_trace(events);
  out.metrics_json = metrics.to_json();
  out.events = recorder.recorded_total();
  out.stats = bed.engine().stats();
  EXPECT_EQ(recorder.overwritten(), 0u) << "ring too small for the scenario";
  return out;
}

// Every outcome of the run that the engine reports, compared field by field.
void expect_same_outcome(const EngineStats& a, const EngineStats& b) {
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const CheckpointRecord& x = a.checkpoints[i];
    const CheckpointRecord& y = b.checkpoints[i];
    EXPECT_EQ(x.epoch, y.epoch) << "checkpoint " << i;
    EXPECT_EQ(x.completed_at, y.completed_at) << "checkpoint " << i;
    EXPECT_EQ(x.period_used, y.period_used) << "checkpoint " << i;
    EXPECT_EQ(x.pause, y.pause) << "checkpoint " << i;
    EXPECT_EQ(x.dirty_pages_model, y.dirty_pages_model) << "checkpoint " << i;
    EXPECT_EQ(x.bytes_model, y.bytes_model) << "checkpoint " << i;
    EXPECT_EQ(x.degradation, y.degradation) << "checkpoint " << i;
  }
  EXPECT_EQ(a.replica_digest_at_activation, b.replica_digest_at_activation);
  EXPECT_EQ(a.committed_digest_at_activation,
            b.committed_digest_at_activation);
  EXPECT_EQ(a.replica_disk_digest_at_activation,
            b.replica_disk_digest_at_activation);
  EXPECT_EQ(a.committed_disk_digest_at_activation,
            b.committed_disk_digest_at_activation);
  EXPECT_EQ(a.resumption_time, b.resumption_time);
  EXPECT_EQ(a.protected_at, b.protected_at);
  EXPECT_EQ(a.seed.pages_sent, b.seed.pages_sent);
  EXPECT_EQ(a.seed.total_time, b.seed.total_time);
  EXPECT_EQ(a.heartbeats_sent, b.heartbeats_sent);
  EXPECT_EQ(a.total_pause, b.total_pause);
  EXPECT_EQ(a.replication_cpu, b.replication_cpu);
  EXPECT_EQ(a.seed_attempts, b.seed_attempts);
  EXPECT_EQ(a.epochs_aborted, b.epochs_aborted);
  EXPECT_EQ(a.failovers_fenced, b.failovers_fenced);
  EXPECT_EQ(a.regions_corrupted, b.regions_corrupted);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.commits_rejected, b.commits_rejected);
  EXPECT_EQ(a.scrub_runs, b.scrub_runs);
  EXPECT_EQ(a.scrub_repairs, b.scrub_repairs);
  EXPECT_EQ(a.packets_dropped_at_failover, b.packets_dropped_at_failover);
  EXPECT_EQ(a.failed_over, b.failed_over);
}

TEST(TraceDeterminism, HereModeSameSeedIsByteIdentical) {
  const RunArtifacts a = run_scenario(EngineMode::kHere, 7);
  const RunArtifacts b = run_scenario(EngineMode::kHere, 7);
  ASSERT_GT(a.events, 0u);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.trace_chrome, b.trace_chrome);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(TraceDeterminism, RemusModeSameSeedIsByteIdentical) {
  const RunArtifacts a = run_scenario(EngineMode::kRemus, 7);
  const RunArtifacts b = run_scenario(EngineMode::kRemus, 7);
  ASSERT_GT(a.events, 0u);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.trace_chrome, b.trace_chrome);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(TraceDeterminism, ObservingDoesNotPerturbHereMode) {
  const RunArtifacts observed = run_scenario(EngineMode::kHere, 7);
  const RunArtifacts bare = run_scenario(EngineMode::kHere, 7, false);
  ASSERT_GT(observed.events, 0u);
  EXPECT_EQ(bare.events, 0u);
  ASSERT_FALSE(observed.stats.checkpoints.empty());
  expect_same_outcome(observed.stats, bare.stats);
}

TEST(TraceDeterminism, ObservingDoesNotPerturbRemusMode) {
  const RunArtifacts observed = run_scenario(EngineMode::kRemus, 7);
  const RunArtifacts bare = run_scenario(EngineMode::kRemus, 7, false);
  ASSERT_GT(observed.events, 0u);
  EXPECT_EQ(bare.events, 0u);
  ASSERT_FALSE(observed.stats.checkpoints.empty());
  expect_same_outcome(observed.stats, bare.stats);
}

TEST(TraceDeterminism, DifferentSeedPerturbsTheTrace) {
  const RunArtifacts a = run_scenario(EngineMode::kHere, 7);
  const RunArtifacts b = run_scenario(EngineMode::kHere, 8);
  EXPECT_NE(a.trace_jsonl, b.trace_jsonl);
}

TEST(TraceDeterminism, ModesProduceDistinctTraces) {
  // Sanity: the mode tag (and single- vs multi-threaded spans) shows up in
  // the artifact, so the comparisons above compare what they claim to.
  const RunArtifacts here = run_scenario(EngineMode::kHere, 7);
  const RunArtifacts remus = run_scenario(EngineMode::kRemus, 7);
  EXPECT_NE(here.trace_jsonl, remus.trace_jsonl);
  EXPECT_NE(here.trace_jsonl.find("\"mode\":\"here\""), std::string::npos);
  EXPECT_NE(remus.trace_jsonl.find("\"mode\":\"remus\""), std::string::npos);
}

}  // namespace
}  // namespace here::rep
