// Data-plane microbenchmarks (google-benchmark): the real-work primitives
// under the simulation's virtual-time shell — page copies, page digests,
// CRC32C, durable snapshots, dirty-bitmap scans, PML ring operations and the
// cross-hypervisor state translation. Byte-moving rows report MiB/s
// (bytes_per_second) against the BM_PageCopy memcpy roofline.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/crc32c.h"
#include "common/crc32c_internal.h"
#include "common/dirty_bitmap.h"
#include "common/thread_pool.h"
#include "hv/guest_memory.h"
#include "hv/page_digest.h"
#include "hv/page_digest_internal.h"
#include "hv/pml_ring.h"
#include "kvmsim/kvm_state.h"
#include "replication/durable_store.h"
#include "sim/rng.h"
#include "workload/zipfian.h"
#include "xensim/xen_state.h"
#include "xensim/grant_table.h"
#include "xensim/xenstore.h"
#include "hv/disk.h"
#include "xlate/translator.h"

namespace {

using namespace here;

void BM_PageCopy(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  hv::GuestMemory src(pages, 1);
  hv::GuestMemory dst(pages, 1);
  for (common::Gfn g = 0; g < pages; ++g) src.write_u64(0, g, 0, g * 7919);
  for (auto _ : state) {
    for (common::Gfn g = 0; g < pages; ++g) dst.install_page(g, src.page(g));
    benchmark::DoNotOptimize(dst.page(0).data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_PageCopy)->Arg(1024)->Arg(8192);

// Fills every page with non-zero, page-distinct content.
void fill_pages(hv::GuestMemory& mem) {
  std::vector<std::uint8_t> page(common::kPageSize);
  for (common::Gfn g = 0; g < mem.pages(); ++g) {
    for (std::size_t i = 0; i < page.size(); ++i) {
      page[i] = static_cast<std::uint8_t>(g * 131 + i * 7 + 1);
    }
    mem.install_page(g, page);
  }
}

// A digest-cache miss: FNV-1a over the page bytes.
void BM_PageDigestCold(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  hv::GuestMemory mem(pages, 1);
  fill_pages(mem);
  for (auto _ : state) {
    std::uint64_t fold = 0;
    for (common::Gfn g = 0; g < pages; ++g) {
      fold ^= hv::page_bytes_digest(mem.page(g));
    }
    benchmark::DoNotOptimize(fold);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_PageDigestCold)->Arg(1024);

// The batched digest over the same pages, kPageDigestBatch at a time (as
// GuestMemory::fill_digests gathers them): /0 the dispatched kernel (AVX2
// where the CPU has it), /1 the serial fallback.
void BM_PageDigestBatch(benchmark::State& state) {
  const bool serial = state.range(0) != 0;
  constexpr std::uint64_t kPages = 1024;
  hv::GuestMemory mem(kPages, 1);
  fill_pages(mem);
  std::vector<const std::uint8_t*> frames(kPages);
  for (common::Gfn g = 0; g < kPages; ++g) frames[g] = mem.page(g).data();
  std::vector<std::uint64_t> digests(kPages);
  const std::span<const std::uint8_t* const> all(frames);
  const std::span<std::uint64_t> out(digests);
  for (auto _ : state) {
    for (std::uint64_t at = 0; at < kPages; at += hv::kPageDigestBatch) {
      const auto in = all.subspan(at, hv::kPageDigestBatch);
      const auto to = out.subspan(at, hv::kPageDigestBatch);
      if (serial) {
        hv::internal::page_bytes_digests_serial(in, to);
      } else {
        hv::page_bytes_digests(in, to);
      }
    }
    benchmark::DoNotOptimize(digests.data());
  }
  state.SetLabel(serial ? "serial" : "dispatched");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPages * common::kPageSize));
}
BENCHMARK(BM_PageDigestBatch)->Arg(0)->Arg(1);

// A digest-cache hit: GuestMemory::page_digest on unchanged pages.
void BM_PageDigestCached(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  hv::GuestMemory mem(pages, 1);
  fill_pages(mem);
  benchmark::DoNotOptimize(mem.full_digest());  // fills every entry
  for (auto _ : state) {
    std::uint64_t fold = 0;
    for (common::Gfn g = 0; g < pages; ++g) fold ^= mem.page_digest(g);
    benchmark::DoNotOptimize(fold);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_PageDigestCached)->Arg(1024);

// CRC32C over one 2 MiB region frame: /0 the dispatched kernel (SSE4.2
// where the CPU has it), /1 the portable table kernel.
void BM_Crc32c(benchmark::State& state) {
  const bool table = state.range(0) != 0;
  std::vector<std::uint8_t> frame(2 << 20);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  for (auto _ : state) {
    const std::uint32_t crc =
        table ? common::internal::crc32c_update_table(common::crc32c_init(),
                                                      frame)
              : common::crc32c_update(common::crc32c_init(), frame);
    benchmark::DoNotOptimize(crc);
  }
  state.SetLabel(table ? "table" : "dispatched");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_Crc32c)->Arg(0)->Arg(1);

// Durable snapshot of a fully non-zero image: zero scan, one copy into the
// sealed segment and the in-place CRC.
void BM_SnapshotWrite(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  hv::GuestMemory mem(pages, 1);
  fill_pages(mem);
  const hv::VirtualDisk disk;
  rep::DurableStore store;
  for (auto _ : state) {
    store.write_snapshot(1, mem, disk);
    benchmark::DoNotOptimize(store.snapshot_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_SnapshotWrite)->Arg(8192);

void BM_DirtyBitmapScan(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  common::DirtyBitmap bitmap(pages);
  sim::Rng rng(7);
  for (std::uint64_t i = 0; i < pages / 10; ++i) bitmap.set(rng.uniform(pages));
  std::vector<common::Gfn> out;
  for (auto _ : state) {
    out.clear();
    bitmap.collect(0, pages, out, /*clear_found=*/false);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages));
}
BENCHMARK(BM_DirtyBitmapScan)->Arg(1 << 16)->Arg(1 << 20);

void BM_PmlLogDrain(benchmark::State& state) {
  hv::PmlRing ring;
  ring.set_page_count(1 << 16);
  sim::Rng rng(11);
  std::vector<common::Gfn> out;
  for (auto _ : state) {
    for (int i = 0; i < 4096; ++i) ring.log(rng.uniform(1 << 16));
    out.clear();
    ring.drain(out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PmlLogDrain);

void BM_ParallelPageCopy(benchmark::State& state) {
  const std::uint64_t pages = 8192;
  const auto threads = static_cast<std::size_t>(state.range(0));
  hv::GuestMemory src(pages, 1);
  hv::GuestMemory dst(pages, 1);
  common::ThreadPool pool(threads);
  for (auto _ : state) {
    pool.parallel_for(pages, [&](std::size_t g) {
      dst.install_page(g, src.page(g));
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_ParallelPageCopy)->Arg(1)->Arg(2)->Arg(4);

void BM_StateTranslationXenToKvm(benchmark::State& state) {
  hv::GuestCpuContext cpu;
  sim::Rng rng(3);
  for (auto& g : cpu.gpr) g = rng.next_u64();
  cpu.msrs = {{hv::kMsrLstar, rng.next_u64()}, {hv::kMsrStar, rng.next_u64()}};
  xen::XenMachineState xen_state;
  for (int i = 0; i < 4; ++i) {
    xen_state.vcpus.push_back(xen::to_xen_context(cpu, 123456789));
  }
  xen_state.platform.host_tsc_at_save = 123456789;
  const hv::CpuidPolicy kvm_policy;  // empty host policy: maximal masking
  for (auto _ : state) {
    auto kvm_state = xlate::xen_to_kvm(xen_state, kvm_policy);
    benchmark::DoNotOptimize(kvm_state.vcpus.size());
  }
}
BENCHMARK(BM_StateTranslationXenToKvm);

void BM_ZipfianNext(benchmark::State& state) {
  wl::ScrambledZipfian zipf(1'000'000);
  sim::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_XenstoreWriteRead(benchmark::State& state) {
  xen::XenStore store;
  int i = 0;
  for (auto _ : state) {
    const std::string path = "/local/domain/1/k" + std::to_string(i++ % 512);
    store.write(path, "v");
    benchmark::DoNotOptimize(store.read(path));
  }
}
BENCHMARK(BM_XenstoreWriteRead);

void BM_XenbusHandshake(benchmark::State& state) {
  std::uint32_t domid = 1;
  for (auto _ : state) {
    xen::XenStore store;
    benchmark::DoNotOptimize(
        xen::run_device_handshake(store, domid++, "vif", 0));
  }
}
BENCHMARK(BM_XenbusHandshake);

void BM_GrantMapUnmap(benchmark::State& state) {
  xen::GrantTable table;
  const xen::GrantRef ref = table.grant_access(0, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.map_grant(ref, 0));
    table.unmap_grant(ref);
  }
}
BENCHMARK(BM_GrantMapUnmap);

void BM_DiskApply(benchmark::State& state) {
  hv::VirtualDisk disk;
  sim::Rng rng(17);
  for (auto _ : state) {
    disk.apply({rng.uniform(1 << 20), 8, rng.next_u64()});
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_DiskApply);

}  // namespace

BENCHMARK_MAIN();
