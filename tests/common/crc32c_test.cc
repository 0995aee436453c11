// CRC32C known answers, incremental/one-shot agreement, and equivalence of
// the SSE4.2 kernel, the table kernel and a bitwise reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/crc32c.h"
#include "common/crc32c_internal.h"
#include "sim/rng.h"

namespace here::common {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// The definition, one bit at a time: the reference both kernels must match.
std::uint32_t crc32c_bitwise(std::uint32_t state,
                             std::span<const std::uint8_t> data) {
  for (const std::uint8_t byte : data) {
    state ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (state >> 1) ^ 0x82F63B78u : state >> 1;
    }
  }
  return state;
}

std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

TEST(Crc32c, KnownAnswers) {
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
  // RFC 3720 (iSCSI) appendix B.4 vectors.
  std::vector<std::uint8_t> v(32, 0x00);
  EXPECT_EQ(crc32c(v), 0x8A9136AAu);
  std::fill(v.begin(), v.end(), std::uint8_t{0xFF});
  EXPECT_EQ(crc32c(v), 0x62A8AB43u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(crc32c(v), 0x46DD794Eu);
}

TEST(Crc32c, IncrementalSplitEqualsOneShot) {
  sim::Rng rng(0xc2c);
  const std::vector<std::uint8_t> data = random_bytes(rng, 1000);
  const std::uint32_t whole = crc32c(data);
  const std::span<const std::uint8_t> all(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t c = crc32c_init();
    c = crc32c_update(c, all.first(split));
    c = crc32c_update(c, all.subspan(split));
    ASSERT_EQ(crc32c_final(c), whole) << "split at " << split;
  }
  // Many small pieces (record-header sized) agree too.
  std::uint32_t c = crc32c_init();
  for (std::size_t at = 0; at < data.size(); at += 13) {
    const std::size_t n = std::min<std::size_t>(13, data.size() - at);
    c = crc32c_update(c, all.subspan(at, n));
  }
  EXPECT_EQ(crc32c_final(c), whole);
}

// Random lengths 0..70'000 at start offsets 0..7, so every alignment and
// every tail length of the 8-byte kernel is exercised.
template <typename Check>
void for_random_slices(std::uint64_t seed, Check check) {
  sim::Rng rng(seed);
  const std::vector<std::uint8_t> buffer = random_bytes(rng, 70'008);
  const std::span<const std::uint8_t> all(buffer);
  for (int trial = 0; trial < 96; ++trial) {
    const std::size_t offset = rng.uniform(8);
    const std::size_t length =
        trial < 24 ? static_cast<std::size_t>(trial) : rng.uniform(70'001);
    const std::uint32_t state = static_cast<std::uint32_t>(rng.next_u64());
    check(state, all.subspan(offset, length));
  }
}

TEST(Crc32c, TableKernelMatchesBitwiseReference) {
  for_random_slices(0x7ab1e, [](std::uint32_t state,
                                std::span<const std::uint8_t> slice) {
    ASSERT_EQ(internal::crc32c_update_table(state, slice),
              crc32c_bitwise(state, slice))
        << "length " << slice.size();
  });
}

TEST(Crc32c, Sse42KernelMatchesTableAndBitwiseReference) {
#if defined(__x86_64__)
  if (!internal::crc32c_sse42_supported()) {
    GTEST_SKIP() << "CPU lacks SSE4.2";
  }
  for_random_slices(0x55e42, [](std::uint32_t state,
                                std::span<const std::uint8_t> slice) {
    const std::uint32_t hw = internal::crc32c_update_sse42(state, slice);
    ASSERT_EQ(hw, internal::crc32c_update_table(state, slice))
        << "length " << slice.size();
    ASSERT_EQ(hw, crc32c_bitwise(state, slice)) << "length " << slice.size();
  });
#else
  GTEST_SKIP() << "SSE4.2 kernel is x86-64 only";
#endif
}

TEST(Crc32c, DispatchedUpdateMatchesTableKernel) {
  for_random_slices(0xd15, [](std::uint32_t state,
                              std::span<const std::uint8_t> slice) {
    ASSERT_EQ(crc32c_update(state, slice),
              internal::crc32c_update_table(state, slice))
        << "length " << slice.size();
  });
}

}  // namespace
}  // namespace here::common
