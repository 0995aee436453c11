// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum the checkpoint wire layer stamps on every 2 MiB region frame and
// the durable store stamps on every WAL and snapshot record.
//
// On x86-64 CPUs with SSE4.2 the CRC runs on the `crc32` instruction (eight
// bytes per step); elsewhere it falls back to a byte-at-a-time table. The
// choice is made once per process from the CPU's feature bits. Both kernels
// compute the same standard CRC32C, so every value is bit-identical on every
// platform (the integrity tests golden-compare digests across runs).
#pragma once

#include <cstdint>
#include <span>

namespace here::common {

// One-shot CRC32C over `data`. Standard init/final XOR with 0xFFFFFFFF.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data);

// Incremental form: feed `crc32c_init()` through one or more
// `crc32c_update()` calls, then `crc32c_final()`.
//   std::uint32_t c = crc32c_init();
//   c = crc32c_update(c, chunk1);
//   c = crc32c_update(c, chunk2);
//   std::uint32_t crc = crc32c_final(c);
[[nodiscard]] constexpr std::uint32_t crc32c_init() { return 0xFFFFFFFFu; }
[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t state,
                                          std::span<const std::uint8_t> data);
[[nodiscard]] constexpr std::uint32_t crc32c_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

}  // namespace here::common
