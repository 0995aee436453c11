// Page digest known answers, and equivalence of the batched kernels (the
// dispatched one, the AVX2 one and the serial fallback) with the byte loop
// page_bytes_digest; GuestMemory::fill_digests against recomputed digests,
// also with four threads filling disjoint ranges of one memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "common/units.h"
#include "hv/guest_memory.h"
#include "hv/page_digest.h"
#include "hv/page_digest_internal.h"
#include "sim/rng.h"

namespace here::hv {
namespace {

using common::kPageSize;

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(PageDigest, KnownAnswers) {
  // Published 64-bit FNV-1a vectors: the byte loop is plain FNV-1a.
  EXPECT_EQ(page_bytes_digest({}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(page_bytes_digest(bytes_of("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(page_bytes_digest(bytes_of("foobar")), 0x85944171f73967e8ULL);

  // Whole pages, through every kernel.
  std::vector<std::uint8_t> zero(kPageSize, 0x00);
  std::vector<std::uint8_t> ones(kPageSize, 0xFF);
  std::vector<std::uint8_t> counter(kPageSize);
  for (std::size_t i = 0; i < kPageSize; ++i) {
    counter[i] = static_cast<std::uint8_t>(i);
  }
  const std::vector<const std::uint8_t*> pages = {zero.data(), ones.data(),
                                                  counter.data()};
  const std::vector<std::uint64_t> want = {page_bytes_digest(zero),
                                           page_bytes_digest(ones),
                                           page_bytes_digest(counter)};
  // Recorded from an independent FNV-1a (Python) over the same bytes.
  EXPECT_EQ(want[0], 0xb93a0c83ce3b6325ULL);
  EXPECT_EQ(want[1], 0xc0b014328067f325ULL);
  EXPECT_EQ(want[2], 0x88d6ce5789d35325ULL);

  std::vector<std::uint64_t> got(pages.size());
  page_bytes_digests(pages, got);
  EXPECT_EQ(got, want);
  internal::page_bytes_digests_serial(pages, got);
  EXPECT_EQ(got, want);
#if defined(__x86_64__)
  if (internal::page_digest_avx2_supported()) {
    internal::page_bytes_digests_avx2(pages, got);
    EXPECT_EQ(got, want);
  }
#endif
}

TEST(PageDigest, SizeMismatchThrows) {
  const std::vector<std::uint8_t> page(kPageSize, 1);
  const std::vector<const std::uint8_t*> pages = {page.data(), page.data()};
  std::vector<std::uint64_t> out(1);
  EXPECT_THROW(page_bytes_digests(pages, out), std::invalid_argument);
}

using BatchKernel = void (*)(std::span<const std::uint8_t* const>,
                             std::span<std::uint64_t>);

// Every batch size 0..33 (empty, the short tails, one full batch, a full
// batch plus every tail, two full batches plus one page), at byte offsets
// 1..7 so no page pointer is aligned, with some pointers repeated inside a
// batch; each kernel must match page_bytes_digest page by page.
void expect_matches_byte_loop(BatchKernel kernel) {
  constexpr std::size_t kDistinct = 24;
  sim::Rng rng(0xf1a1);
  std::vector<std::uint8_t> buffer(kDistinct * kPageSize + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.uniform(256));
  for (std::size_t offset = 1; offset <= 7; ++offset) {
    for (std::size_t size = 0; size <= 33; ++size) {
      std::vector<const std::uint8_t*> pages(size);
      std::vector<std::uint64_t> want(size);
      for (std::size_t i = 0; i < size; ++i) {
        // Every fifth slot repeats an earlier page of the batch.
        const std::size_t page =
            (i % 5 == 4) ? rng.uniform(i) : rng.uniform(kDistinct);
        pages[i] = i % 5 == 4 ? pages[page]
                              : buffer.data() + page * kPageSize + offset;
        want[i] = page_bytes_digest({pages[i], kPageSize});
      }
      std::vector<std::uint64_t> got(size, 0);
      kernel(pages, got);
      ASSERT_EQ(got, want) << "batch of " << size << " at offset " << offset;
    }
  }
}

TEST(PageDigest, DispatchedKernelMatchesByteLoop) {
  expect_matches_byte_loop(page_bytes_digests);
}

TEST(PageDigest, SerialKernelMatchesByteLoop) {
  expect_matches_byte_loop(internal::page_bytes_digests_serial);
}

TEST(PageDigest, Avx2KernelMatchesByteLoop) {
#if defined(__x86_64__)
  if (!internal::page_digest_avx2_supported()) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  expect_matches_byte_loop(internal::page_bytes_digests_avx2);
#else
  GTEST_SKIP() << "AVX2 kernel is x86-64 only";
#endif
}

TEST(PageDigest, FillDigestsRejectsBadRanges) {
  GuestMemory mem(8, 1);
  EXPECT_THROW(mem.fill_digests(0, 9), std::out_of_range);
  EXPECT_THROW(mem.fill_digests(5, 4), std::out_of_range);
  EXPECT_NO_THROW(mem.fill_digests(8, 8));
  EXPECT_NO_THROW(mem.fill_digests(0, 8));
}

// The fill contract: fill_digests on disjoint ranges may run concurrently.
// Each round dirties random pages (guest stores are single-threaded here:
// they bump the store counter), then four shards fill their own quarter of
// the memory at once; every cached digest must equal a recomputed one.
TEST(PageDigest, FourThreadsFillDisjointRanges) {
  constexpr std::uint64_t kPages = 256;
  constexpr std::uint64_t kShard = kPages / 4;
  GuestMemory mem(kPages, 1);
  common::ThreadPool pool(4);
  sim::Rng rng(0x4f111);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 160; ++i) {
      mem.write_u64(0, rng.uniform(kPages), 8 * rng.uniform(kPageSize / 8),
                    rng.next_u64());
    }
    pool.parallel_for(4, [&](std::size_t w) {
      mem.fill_digests(w * kShard, (w + 1) * kShard);
    });
    for (common::Gfn g = 0; g < kPages; ++g) {
      ASSERT_EQ(mem.page_digest(g), page_bytes_digest(mem.page(g)))
          << "gfn " << g << " in round " << round;
    }
  }
}

}  // namespace
}  // namespace here::hv
