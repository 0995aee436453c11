// Unit tests for the replication building blocks: the period manager
// (Algorithm 1), the outbound I/O buffer, replica staging and the time
// model.
#include <gtest/gtest.h>

#include "common/units.h"
#include "replication/io_buffer.h"
#include "replication/migrator_pool.h"
#include "replication/period_manager.h"
#include "replication/staging.h"
#include "replication/time_model.h"
#include "replication/wire.h"
#include "simnet/fabric.h"

namespace here::rep {
namespace {

// --- PeriodManager (Algorithm 1) -----------------------------------------------

PeriodConfig pc(double t_max_s, double d, double sigma_s) {
  PeriodConfig config;
  config.t_max = sim::from_seconds(t_max_s);
  config.target_degradation = d;
  config.sigma = sim::from_seconds(sigma_s);
  return config;
}

TEST(PeriodManager, StartsAtTmax) {
  PeriodManager pm(pc(10, 0.3, 1));
  EXPECT_EQ(pm.current(), sim::from_seconds(10));
}

TEST(PeriodManager, FixedWhenTargetIsZero) {
  PeriodManager pm(pc(5, 0.0, 1));
  EXPECT_FALSE(pm.adaptive());
  for (int i = 0; i < 10; ++i) pm.observe_epoch(sim::from_seconds(4));
  EXPECT_EQ(pm.current(), sim::from_seconds(5));
  // Degradation is still computed for reporting.
  EXPECT_NEAR(pm.last_degradation(), 4.0 / 9.0, 1e-9);
}

TEST(PeriodManager, TightensWhileUnderBudget) {
  PeriodManager pm(pc(10, 0.3, 1));
  pm.observe_epoch(sim::from_millis(100));  // tiny pause: D_curr << D
  EXPECT_EQ(pm.current(), sim::from_seconds(9));
  pm.observe_epoch(sim::from_millis(100));
  EXPECT_EQ(pm.current(), sim::from_seconds(8));
}

TEST(PeriodManager, WalksBackOnFirstOvershoot) {
  PeriodManager pm(pc(10, 0.3, 1));
  pm.observe_epoch(sim::from_millis(100));  // T: 10 -> 9 (Tprev = 10)
  ASSERT_EQ(pm.current(), sim::from_seconds(9));
  // Overshoot at T=9: t=9s -> D_curr = 0.5 > 0.3, Dprev was fine.
  pm.observe_epoch(sim::from_seconds(9));
  EXPECT_EQ(pm.current(), sim::from_seconds(10));  // back to Tprev
}

TEST(PeriodManager, MidpointJumpOnSustainedOvershoot) {
  PeriodManager pm(pc(20, 0.3, 1));
  // Drive T down to 16 with tiny pauses.
  for (int i = 0; i < 4; ++i) pm.observe_epoch(sim::from_millis(10));
  ASSERT_EQ(pm.current(), sim::from_seconds(16));
  pm.observe_epoch(sim::from_seconds(30));  // overshoot -> walk back to 17
  EXPECT_EQ(pm.current(), sim::from_seconds(17));
  pm.observe_epoch(sim::from_seconds(30));  // still over -> midpoint (17+20)/2
  // 18.5 s rounded to the sigma grid (Algorithm 1 line 13: round(., sigma)).
  EXPECT_EQ(pm.current(), sim::from_seconds(19));
}

TEST(PeriodManager, NeverExceedsTmaxNorDropsBelowSigma) {
  PeriodManager pm(pc(5, 0.3, 1));
  for (int i = 0; i < 100; ++i) pm.observe_epoch(sim::from_millis(1));
  EXPECT_EQ(pm.current(), sim::from_seconds(1));  // floor at sigma
  for (int i = 0; i < 100; ++i) pm.observe_epoch(sim::from_seconds(60));
  EXPECT_LE(pm.current(), sim::from_seconds(5));  // hard cap
}

TEST(PeriodManager, DegradationFormula) {
  PeriodManager pm(pc(8, 0.0, 1));
  pm.observe_epoch(sim::from_seconds(2));
  EXPECT_NEAR(pm.last_degradation(), 0.2, 1e-9);  // 2 / (2 + 8)
}

// Property: whatever the pause sequence, T stays within [sigma, Tmax].
class PeriodManagerBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeriodManagerBounds, AlwaysWithinBounds) {
  PeriodManager pm(pc(12, 0.25, 0.5));
  sim::Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    pm.observe_epoch(sim::from_millis(rng.uniform_real(0.1, 20000.0)));
    EXPECT_GE(pm.current(), sim::from_millis(500));
    EXPECT_LE(pm.current(), sim::from_seconds(12));
    // T stays on the sigma grid (Algorithm 1 adjusts in sigma steps).
    EXPECT_EQ(pm.current().count() % sim::from_millis(500).count(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeriodManagerBounds,
                         ::testing::Range<std::uint64_t>(0, 10));

// --- OutboundBuffer ---------------------------------------------------------------

struct BufferFixture {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  std::vector<std::uint64_t> delivered;
  net::NodeId a, b;
  OutboundBuffer buffer{fabric};

  BufferFixture() {
    a = fabric.add_node("a", {});
    b = fabric.add_node("b", [this](const net::Packet& p) {
      delivered.push_back(p.tag);
    });
    fabric.connect(a, b, sim::grid5000_host().ethernet);
  }

  net::Packet packet(std::uint64_t tag) const {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.size_bytes = 100;
    p.tag = tag;
    return p;
  }
};

TEST(OutboundBuffer, HoldsUntilEpochCommits) {
  BufferFixture f;
  f.buffer.capture(f.packet(1), 5, f.sim.now());
  f.buffer.capture(f.packet(2), 5, f.sim.now());
  f.buffer.capture(f.packet(3), 6, f.sim.now());
  EXPECT_EQ(f.buffer.pending(), 3u);

  EXPECT_EQ(f.buffer.release_up_to(4, f.sim.now()), 0u);
  EXPECT_EQ(f.buffer.release_up_to(5, f.sim.now()), 2u);
  f.sim.run();
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{1, 2}));

  EXPECT_EQ(f.buffer.release_up_to(6, f.sim.now()), 1u);
  f.sim.run();
  EXPECT_EQ(f.delivered.size(), 3u);
  EXPECT_EQ(f.buffer.released_total(), 3u);
}

TEST(OutboundBuffer, DropAllLosesUnreleased) {
  BufferFixture f;
  f.buffer.capture(f.packet(1), 1, f.sim.now());
  f.buffer.capture(f.packet(2), 2, f.sim.now());
  EXPECT_EQ(f.buffer.drop_all(), 2u);
  EXPECT_EQ(f.buffer.pending(), 0u);
  EXPECT_EQ(f.buffer.pending_bytes(), 0u);
  f.sim.run();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.buffer.dropped_total(), 2u);
}

TEST(OutboundBuffer, RecordsBufferingDelay) {
  BufferFixture f;
  f.buffer.capture(f.packet(1), 1, f.sim.now());
  f.sim.run_until(sim::TimePoint{} + sim::from_seconds(3));
  f.buffer.release_up_to(1, f.sim.now());
  ASSERT_EQ(f.buffer.delay_ms().count(), 1u);
  EXPECT_NEAR(f.buffer.delay_ms().mean(), 3000.0, 1.0);
}

TEST(OutboundBuffer, PendingBytesAccounting) {
  BufferFixture f;
  f.buffer.capture(f.packet(1), 1, f.sim.now());
  f.buffer.capture(f.packet(2), 1, f.sim.now());
  EXPECT_EQ(f.buffer.pending_bytes(), 200u);
  f.buffer.release_up_to(1, f.sim.now());
  EXPECT_EQ(f.buffer.pending_bytes(), 0u);
}

// --- ReplicaStaging -----------------------------------------------------------------

std::vector<std::uint8_t> filled_page(std::uint8_t value) {
  return std::vector<std::uint8_t>(common::kPageSize, value);
}

// Offers the open epoch one sealed raw frame per (gfn, fill byte), in seq
// order, after arming the matching epoch header.
void stage_pages(
    ReplicaStaging& staging, std::uint64_t epoch,
    const std::vector<std::pair<common::Gfn, std::uint8_t>>& pages) {
  std::vector<wire::RegionFrame> frames;
  std::uint64_t digest = wire::digest_init();
  for (const auto& [gfn, value] : pages) {
    wire::RegionFrame f;
    f.epoch = epoch;
    f.seq = frames.size();
    f.region = static_cast<std::uint32_t>(gfn / common::kPagesPerRegion);
    f.gfns = {gfn};
    f.bytes = filled_page(value);
    wire::seal_frame(f);
    digest = wire::digest_fold(digest, f);
    frames.push_back(std::move(f));
  }
  staging.expect_epoch({epoch, frames.size(), digest});
  for (wire::RegionFrame& f : frames) {
    ASSERT_EQ(staging.receive_frame(std::move(f)), FrameVerdict::kOk);
  }
}

TEST(ReplicaStaging, SeedPagesLandDirectly) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20));
  staging.install_seed_page(3, filled_page(0xaa));
  EXPECT_EQ(staging.memory().page(3)[0], 0xaa);
  EXPECT_EQ(staging.seeded_pages(), 1u);
}

TEST(ReplicaStaging, EpochCommitIsAtomic) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20));
  staging.begin_epoch(1);
  stage_pages(staging, 1, {{5, 0x11}, {6, 0x22}});
  // Nothing applied before commit.
  EXPECT_EQ(staging.memory().page(5)[0], 0x00);
  const auto applied = staging.commit();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
  EXPECT_EQ(staging.memory().page(5)[0], 0x11);
  EXPECT_EQ(staging.memory().page(6)[0], 0x22);
  EXPECT_EQ(staging.committed_epoch(), 1u);
}

TEST(ReplicaStaging, AbortDiscardsPartialEpoch) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20));
  staging.begin_epoch(1);
  stage_pages(staging, 1, {{5, 0x11}});
  EXPECT_TRUE(staging.commit().ok());
  staging.begin_epoch(2);
  stage_pages(staging, 2, {{5, 0x99}});
  staging.abort_epoch();
  // The partially transferred epoch 2 must not be visible.
  EXPECT_EQ(staging.memory().page(5)[0], 0x11);
  EXPECT_EQ(staging.committed_epoch(), 1u);
  // A later epoch still works.
  staging.begin_epoch(3);
  stage_pages(staging, 3, {{5, 0x33}});
  EXPECT_TRUE(staging.commit().ok());
  EXPECT_EQ(staging.memory().page(5)[0], 0x33);
}

TEST(ReplicaStaging, LastWriterWinsWithinEpoch) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20));
  staging.begin_epoch(1);
  stage_pages(staging, 1, {{7, 0x01}, {7, 0x02}});
  EXPECT_TRUE(staging.commit().ok());
  EXPECT_EQ(staging.memory().page(7)[0], 0x02);
}

TEST(ReplicaStaging, PeakBufferAccounting) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20));
  staging.begin_epoch(1);
  stage_pages(staging, 1, {{1, 1}, {2, 2}});
  EXPECT_TRUE(staging.commit().ok());
  EXPECT_EQ(staging.peak_buffered_bytes(), 2 * common::kPageSize);
}

TEST(ReplicaStaging, ProgramSnapshotHandover) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20));
  class Dummy : public hv::GuestProgram {
   public:
    void tick(hv::GuestEnv&, sim::Duration) override {}
    [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
      return std::make_unique<Dummy>(*this);
    }
  };
  staging.begin_epoch(1);
  staging.set_pending_program(std::make_unique<Dummy>());
  EXPECT_TRUE(staging.commit().ok());
  EXPECT_NE(staging.take_committed_program(), nullptr);
  EXPECT_EQ(staging.take_committed_program(), nullptr);  // moved out
}

// --- TimeModel -------------------------------------------------------------------------

TEST(TimeModel, EfficiencyAnchorsAndInterpolation) {
  TimeModelConfig config;
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(config.copy_eff, 1), 1.0);
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(config.copy_eff, 2), 0.85);
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(config.copy_eff, 4), 0.55);
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(config.copy_eff, 8), 0.40);
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(config.copy_eff, 16), 0.40);
  const double e3 = TimeModel::efficiency(config.copy_eff, 3);
  EXPECT_GT(e3, 0.55);
  EXPECT_LT(e3, 0.85);
}

// The un-encoded checkpoint copy of `total` pages whose largest per-worker
// shard is `max_worker` pages.
sim::Duration raw_copy(const TimeModel& model, std::uint64_t max_worker,
                       std::uint64_t total, std::uint32_t threads) {
  return model.checkpoint_copy(model.shard_copy_cpu(max_worker, threads),
                               common::pages_to_bytes(total));
}

TEST(TimeModel, CopyIsLinearInPages) {
  TimeModel model;
  const auto t1 = raw_copy(model, 1000, 1000, 1);
  const auto t2 = raw_copy(model, 2000, 2000, 1);
  EXPECT_NEAR(static_cast<double>(t2.count()),
              2.0 * static_cast<double>(t1.count()), 1e3);
}

TEST(TimeModel, ParallelismHelpsButSubLinearly) {
  TimeModel model;
  const auto t1 = raw_copy(model, 400000, 400000, 1);
  const auto t4 = raw_copy(model, 100000, 400000, 4);
  const double speedup =
      static_cast<double>(t1.count()) / static_cast<double>(t4.count());
  EXPECT_GT(speedup, 2.0);
  EXPECT_LT(speedup, 4.0);
}

TEST(TimeModel, WireBoundsLargeTransfers) {
  TimeModelConfig config;
  config.per_page_copy = sim::Duration{1};  // near-free CPU
  TimeModel model(config);
  const auto t = raw_copy(model, 1 << 20, 1 << 20, 4);
  // 4 GiB at 12.5 GB/s ~ 0.34 s: wire-dominated.
  EXPECT_GT(sim::to_seconds(t), 0.3);
}

TEST(TimeModel, ScanScalesWithThreads) {
  TimeModel model;
  const auto s1 = model.scan(5'000'000, 1);
  const auto s4 = model.scan(5'000'000, 4);
  EXPECT_NEAR(sim::to_millis(s1), 40.0, 1.0);  // 20 GB scan ~ 40 ms
  EXPECT_LT(s4, s1 / 3);
}

TEST(TimeModel, SeedingScalesWorseThanCheckpointing) {
  TimeModel model;
  const auto seed4 = model.seed_copy(100000, 400000, 4);
  const auto ckpt4 = raw_copy(model, 100000, 400000, 4);
  EXPECT_GT(seed4, ckpt4);  // PML drain + problematic tracking overhead
}

// --- MigratorPool grants --------------------------------------------------------

// Alone at admission, a client is granted its request (capped by the pool)
// whatever its weight: workers * w / w must not floor below the pool size.
TEST(MigratorPool, LoneClientGetsItsRequestAtAnyWeight) {
  sim::Simulation sim;
  for (const std::uint32_t workers : {3u, 4u}) {
    MigratorPool pool(sim, workers);
    for (const double weight : {0.175, 0.3, 0.7, 1.0, 2.5, 7.0}) {
      for (const std::uint32_t requested : {1u, 2u, 3u, 4u, 8u}) {
        const MigratorPool::ClientId client =
            pool.register_client("vm", requested, weight);
        const MigratorPool::Grant grant = pool.begin_burst(client);
        EXPECT_EQ(grant.threads, std::min(requested, workers))
            << "workers=" << workers << " weight=" << weight
            << " requested=" << requested;
        EXPECT_EQ(grant.contending, 1u);
      }
    }
  }
}

TEST(MigratorPool, TwoBusyClientsSplitThePoolEvenly) {
  sim::Simulation sim;
  MigratorPool pool(sim, 4);
  const MigratorPool::ClientId a = pool.register_client("a", 4);
  const MigratorPool::ClientId b = pool.register_client("b", 4);
  EXPECT_EQ(pool.begin_burst(a).threads, 4u);  // alone so far
  pool.commit_burst(a, sim::from_millis(10));
  const MigratorPool::Grant grant_b = pool.begin_burst(b);
  EXPECT_EQ(grant_b.threads, 2u);
  EXPECT_EQ(grant_b.contending, 2u);
  pool.commit_burst(b, sim::from_millis(10));
  const MigratorPool::Grant grant_a = pool.begin_burst(a);
  EXPECT_EQ(grant_a.threads, 2u);
  EXPECT_EQ(grant_a.contending, 2u);
}

}  // namespace
}  // namespace here::rep
