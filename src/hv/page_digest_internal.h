// The two page-digest kernels behind hv::page_bytes_digests, exposed so
// tests and microbenchmarks can run each one directly. Everything else calls
// page_bytes_digests, which picks a kernel once per process.
#pragma once

#include <cstdint>
#include <span>

namespace here::hv::internal {

// page_bytes_digest on each page in turn: the portable fallback.
void page_bytes_digests_serial(std::span<const std::uint8_t* const> pages,
                               std::span<std::uint64_t> out);

#if defined(__x86_64__)
// True when this CPU implements AVX2.
[[nodiscard]] bool page_digest_avx2_supported();

// AVX2 kernel: up to kPageDigestBatch FNV-1a chains in four 4-lane vectors.
// Call only when page_digest_avx2_supported(); sizes must match.
void page_bytes_digests_avx2(std::span<const std::uint8_t* const> pages,
                             std::span<std::uint64_t> out);
#endif

}  // namespace here::hv::internal
