#include "hv/guest_memory.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace here::hv {

using common::kPageSize;

GuestMemory::GuestMemory(std::uint64_t pages, std::uint32_t vcpus)
    : pages_(pages), vcpus_(vcpus), frames_(pages * kPageSize, 0) {
  if (pages == 0) throw std::invalid_argument("GuestMemory: zero pages");
  if (vcpus == 0) throw std::invalid_argument("GuestMemory: zero vcpus");
  // Fresh frames are all zero: every cache entry starts out as the zero
  // page's digest.
  digests_ = std::make_unique_for_overwrite<std::uint64_t[]>(pages);
  digest_valid_ = std::make_unique_for_overwrite<std::uint8_t[]>(pages);
  std::fill_n(digests_.get(), pages, page_bytes_digest(page(0)));
  std::fill_n(digest_valid_.get(), pages, std::uint8_t{1});
}

void GuestMemory::write(std::uint32_t vcpu, common::Gfn gfn, std::size_t offset,
                        std::span<const std::uint8_t> data) {
  if (vcpu >= vcpus_ || gfn >= pages_ || offset + data.size() > kPageSize) {
    throw std::out_of_range("GuestMemory::write out of range");
  }
  std::memcpy(frames_.data() + gfn * kPageSize + offset, data.data(), data.size());
  digest_valid_[gfn] = 0;
  ++stores_;
  if (shadow_log_ != nullptr) shadow_log_->set(gfn);
  if (!pml_rings_.empty()) pml_rings_[vcpu].log(gfn);
}

void GuestMemory::write_u64(std::uint32_t vcpu, common::Gfn gfn,
                            std::size_t offset, std::uint64_t value) {
  std::uint8_t raw[8];
  std::memcpy(raw, &value, 8);
  write(vcpu, gfn, offset, raw);
}

std::uint64_t GuestMemory::read_u64(common::Gfn gfn, std::size_t offset) const {
  if (gfn >= pages_ || offset + 8 > kPageSize) {
    throw std::out_of_range("GuestMemory::read_u64 out of range");
  }
  std::uint64_t value;
  std::memcpy(&value, frames_.data() + gfn * kPageSize + offset, 8);
  return value;
}

std::span<const std::uint8_t> GuestMemory::page(common::Gfn gfn) const {
  if (gfn >= pages_) throw std::out_of_range("GuestMemory::page");
  return {frames_.data() + gfn * kPageSize, kPageSize};
}

void GuestMemory::install_page(common::Gfn gfn,
                               std::span<const std::uint8_t> data) {
  if (gfn >= pages_ || data.size() != kPageSize) {
    throw std::out_of_range("GuestMemory::install_page");
  }
  std::memcpy(frames_.data() + gfn * kPageSize, data.data(), kPageSize);
  digest_valid_[gfn] = 0;
}

std::uint64_t GuestMemory::page_digest(common::Gfn gfn) const {
  const auto p = page(gfn);
  if (digest_valid_[gfn] == 0) {
    digests_[gfn] = page_bytes_digest(p);
    digest_valid_[gfn] = 1;
  }
  return digests_[gfn];
}

void GuestMemory::fill_digests(common::Gfn first, common::Gfn last) const {
  if (first > last || last > pages_) {
    throw std::out_of_range("GuestMemory::fill_digests");
  }
  std::array<common::Gfn, kPageDigestBatch> gfns;
  std::array<const std::uint8_t*, kPageDigestBatch> frames;
  std::array<std::uint64_t, kPageDigestBatch> digests;
  std::size_t n = 0;
  const auto flush = [&] {
    page_bytes_digests({frames.data(), n}, {digests.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      digests_[gfns[i]] = digests[i];
      digest_valid_[gfns[i]] = 1;
    }
    n = 0;
  };
  for (common::Gfn g = first; g < last; ++g) {
    if (digest_valid_[g] != 0) continue;
    gfns[n] = g;
    frames[n] = frames_.data() + g * kPageSize;
    if (++n == kPageDigestBatch) flush();
  }
  if (n > 0) flush();
}

std::uint64_t GuestMemory::full_digest() const {
  fill_digests(0, pages_);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (common::Gfn g = 0; g < pages_; ++g) {
    const std::uint64_t d = page_digest(g);
    h ^= d;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void GuestMemory::enable_pml(std::span<PmlRing> rings) {
  if (rings.size() != vcpus_) {
    throw std::invalid_argument("enable_pml: one ring per vCPU required");
  }
  pml_rings_ = rings;
}

void GuestMemory::disable_pml() { pml_rings_ = {}; }

}  // namespace here::hv
