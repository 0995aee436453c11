#include "common/crc32c.h"

#include <array>
#include <cstring>

#include "common/crc32c_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace here::common {
namespace {

// 256-entry table for the reflected Castagnoli polynomial, generated at
// compile time (bitwise algorithm, 8 steps per entry).
constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

using Crc32cKernel = std::uint32_t (*)(std::uint32_t,
                                       std::span<const std::uint8_t>);

Crc32cKernel crc32c_select_kernel() {
#if defined(__x86_64__)
  if (internal::crc32c_sse42_supported()) return internal::crc32c_update_sse42;
#endif
  return internal::crc32c_update_table;
}

}  // namespace

namespace internal {

std::uint32_t crc32c_update_table(std::uint32_t state,
                                  std::span<const std::uint8_t> data) {
  for (const std::uint8_t byte : data) {
    state = (state >> 8) ^ kTable[(state ^ byte) & 0xFFu];
  }
  return state;
}

#if defined(__x86_64__)
bool crc32c_sse42_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t state, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) tail = _mm_crc32_u8(tail, *p);
  return tail;
}
#endif

}  // namespace internal

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::uint8_t> data) {
  static const Crc32cKernel crc32c_kernel = crc32c_select_kernel();
  return crc32c_kernel(state, data);
}

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  return crc32c_final(crc32c_update(crc32c_init(), data));
}

}  // namespace here::common
