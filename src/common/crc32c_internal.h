// The two CRC32C kernels behind common::crc32c_update, exposed so tests and
// microbenchmarks can run each one directly. Everything else calls
// crc32c_update, which picks a kernel once per process.
#pragma once

#include <cstdint>
#include <span>

namespace here::common::internal {

// Byte-at-a-time table kernel: the portable fallback.
[[nodiscard]] std::uint32_t crc32c_update_table(
    std::uint32_t state, std::span<const std::uint8_t> data);

#if defined(__x86_64__)
// True when this CPU implements SSE4.2 (and so the `crc32` instruction).
[[nodiscard]] bool crc32c_sse42_supported();

// SSE4.2 kernel: eight bytes per `crc32` step, then a byte tail. Call only
// when crc32c_sse42_supported().
[[nodiscard]] std::uint32_t crc32c_update_sse42(
    std::uint32_t state, std::span<const std::uint8_t> data);
#endif

}  // namespace here::common::internal
