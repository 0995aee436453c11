// Guest physical memory with real 4 KiB page frames and dirty tracking.
//
// Every guest store goes through write()/write_u64(), which (a) mutates the
// real backing bytes — replication tests byte-verify replica consistency —
// and (b) feeds whichever dirty logs the hypervisor currently has enabled:
// the global shadow-paging bitmap (Xen/Remus path) and/or the per-vCPU PML
// rings (HERE's multithreaded seeding path).
//
// Page digests are cached: one FNV-1a digest plus one validity byte per page.
// Entries start valid (fresh frames are zero), every mutator (write,
// write_u64, install_page) drops its page's entry, and page_digest() refills
// it on a miss; fill_digests() refills every dropped entry of a gfn range in
// batches through the lane-parallel kernel (hv/page_digest.h). There is no
// writable page view, so no store can bypass the invalidation: a cached
// digest always equals page_bytes_digest(page(gfn)).
//
// Threading contract: calls on *distinct* pages may run concurrently (each
// page's cache entry is its own memory location), and so may fill_digests()
// on disjoint ranges. Calls on the *same* page — page_digest and
// fill_digests included, since a miss fills the entry — must not race each
// other or a mutator of that page.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/dirty_bitmap.h"
#include "common/units.h"
#include "hv/page_digest.h"
#include "hv/pml_ring.h"

namespace here::hv {

class GuestMemory {
 public:
  // Allocates `pages` zeroed frames for a VM with `vcpus` virtual CPUs.
  GuestMemory(std::uint64_t pages, std::uint32_t vcpus);

  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;

  [[nodiscard]] std::uint64_t pages() const { return pages_; }
  [[nodiscard]] std::uint64_t bytes() const { return common::pages_to_bytes(pages_); }
  [[nodiscard]] std::uint32_t vcpus() const { return vcpus_; }

  // --- Guest-side access (dirty-tracked) -----------------------------------

  // Store from vCPU `vcpu` into page `gfn` at byte `offset`. Throws
  // std::out_of_range for a bad vCPU, gfn or offset.
  void write(std::uint32_t vcpu, common::Gfn gfn, std::size_t offset,
             std::span<const std::uint8_t> data);

  // Convenience 8-byte store (the workload generators' dirtying primitive).
  void write_u64(std::uint32_t vcpu, common::Gfn gfn, std::size_t offset,
                 std::uint64_t value);

  [[nodiscard]] std::uint64_t read_u64(common::Gfn gfn, std::size_t offset) const;

  // --- Host-side access (no dirty tracking) --------------------------------

  [[nodiscard]] std::span<const std::uint8_t> page(common::Gfn gfn) const;

  // Raw store that bypasses dirty logging — used when the *replica* engine
  // applies a received checkpoint (those writes must not look like guest
  // activity), and by tests that model bit rot.
  void install_page(common::Gfn gfn, std::span<const std::uint8_t> data);

  // page_bytes_digest(page(gfn)), served from the per-page cache; and the
  // FNV-1a fold of every page digest.
  [[nodiscard]] std::uint64_t page_digest(common::Gfn gfn) const;
  [[nodiscard]] std::uint64_t full_digest() const;

  // Makes every cache entry in [first, last) valid, hashing the dropped ones
  // kPageDigestBatch at a time. Callers about to read the digests of a whole
  // range call this first, so the misses are hashed side by side instead of
  // one byte-serial page at a time. Throws std::out_of_range unless
  // first <= last <= pages().
  void fill_digests(common::Gfn first, common::Gfn last) const;

  // --- Dirty tracking control (driven by the owning hypervisor) ------------

  // Global shadow-paging style log (one bitmap for the whole VM).
  void enable_shadow_log(common::DirtyBitmap* bitmap) { shadow_log_ = bitmap; }
  void disable_shadow_log() { shadow_log_ = nullptr; }
  [[nodiscard]] bool shadow_log_enabled() const { return shadow_log_ != nullptr; }

  // Per-vCPU PML rings (HERE's extension). `rings` must outlive tracking and
  // have one entry per vCPU.
  void enable_pml(std::span<PmlRing> rings);
  void disable_pml();
  [[nodiscard]] bool pml_enabled() const { return !pml_rings_.empty(); }

  // Total guest stores since construction (feeds workload accounting).
  [[nodiscard]] std::uint64_t store_count() const { return stores_; }

 private:
  std::uint64_t pages_;
  std::uint32_t vcpus_;
  std::vector<std::uint8_t> frames_;
  // Per-page digest cache (see the threading contract above). Plain arrays,
  // one element per page, so entries of distinct pages never share state.
  mutable std::unique_ptr<std::uint64_t[]> digests_;
  mutable std::unique_ptr<std::uint8_t[]> digest_valid_;
  common::DirtyBitmap* shadow_log_ = nullptr;
  std::span<PmlRing> pml_rings_;
  std::uint64_t stores_ = 0;
};

}  // namespace here::hv
