// Page digests: 64-bit FNV-1a over one 4 KiB guest page's bytes — the digest
// behind GuestMemory::page_digest, the replica's per-region commit digests
// and the encoder's primary-side content references.
//
// page_bytes_digests() hashes many pages at once. On x86-64 CPUs with AVX2
// it runs kPageDigestBatch independent FNV-1a chains side by side (four
// 4-lane vectors); elsewhere it falls back to page_bytes_digest per page.
// The choice is made once per process from the CPU's feature bits. Both
// paths compute the same FNV-1a, so every digest is bit-identical on every
// platform (committed digests are compared across wire, WAL and replica).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace here::hv {

// Pages the batched kernel hashes side by side; callers that gather pages
// for page_bytes_digests() gather this many at a time.
inline constexpr std::size_t kPageDigestBatch = 16;

// FNV-1a over one page's bytes, one byte at a time.
[[nodiscard]] std::uint64_t page_bytes_digest(
    std::span<const std::uint8_t> page);

// out[i] = page_bytes_digest({pages[i], kPageSize}) for every i. Each
// pointer must address kPageSize readable bytes (any alignment; the same
// pointer may repeat). Throws std::invalid_argument if the spans' sizes
// differ.
void page_bytes_digests(std::span<const std::uint8_t* const> pages,
                        std::span<std::uint64_t> out);

}  // namespace here::hv
