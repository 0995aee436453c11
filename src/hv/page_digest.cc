#include "hv/page_digest.h"

#include <algorithm>
#include <stdexcept>

#include "common/units.h"
#include "hv/page_digest_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace here::hv {

using common::kPageSize;

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;  // 2^40 + 0x1b3

using PageDigestKernel = void (*)(std::span<const std::uint8_t* const>,
                                  std::span<std::uint64_t>);

PageDigestKernel page_digest_select_kernel() {
#if defined(__x86_64__)
  if (internal::page_digest_avx2_supported()) {
    return internal::page_bytes_digests_avx2;
  }
#endif
  return internal::page_bytes_digests_serial;
}

}  // namespace

std::uint64_t page_bytes_digest(std::span<const std::uint8_t> page) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::uint8_t b : page) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

namespace internal {

void page_bytes_digests_serial(std::span<const std::uint8_t* const> pages,
                               std::span<std::uint64_t> out) {
  for (std::size_t i = 0; i < pages.size(); ++i) {
    out[i] = page_bytes_digest({pages[i], kPageSize});
  }
}

#if defined(__x86_64__)
namespace {

constexpr std::size_t kLanes = 4;  // 64-bit lanes per __m256i
constexpr std::size_t kVectors = kPageDigestBatch / kLanes;
static_assert(kPageDigestBatch % kLanes == 0);

// h *= kFnvPrime on four lanes. AVX2 multiplies only 32x32->64, so the
// product is (h << 40) + h * 0x1b3, with h * 0x1b3 built from h's two
// 32-bit halves: lo * 0x1b3 + ((hi * 0x1b3) << 32), all mod 2^64.
__attribute__((target("avx2"), always_inline)) inline __m256i fnv_multiply(
    __m256i h) {
  const __m256i low = _mm256_set1_epi64x(0x1b3);
  const __m256i lo = _mm256_mul_epu32(h, low);
  const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(h, 32), low);
  return _mm256_add_epi64(_mm256_add_epi64(_mm256_slli_epi64(h, 40), lo),
                          _mm256_slli_epi64(hi, 32));
}

// Loads 32 bytes at `off` from each of four pages and transposes them, so
// that w[j] holds the j-th 64-bit word of page 0..3 in lanes 0..3.
__attribute__((target("avx2"), always_inline)) inline void load_words(
    const std::uint8_t* const* page, std::size_t off, __m256i (&w)[kLanes]) {
  const __m256i a =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(page[0] + off));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(page[1] + off));
  const __m256i c =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(page[2] + off));
  const __m256i d =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(page[3] + off));
  const __m256i ab_even = _mm256_unpacklo_epi64(a, b);  // a0 b0 a2 b2
  const __m256i ab_odd = _mm256_unpackhi_epi64(a, b);   // a1 b1 a3 b3
  const __m256i cd_even = _mm256_unpacklo_epi64(c, d);  // c0 d0 c2 d2
  const __m256i cd_odd = _mm256_unpackhi_epi64(c, d);   // c1 d1 c3 d3
  w[0] = _mm256_permute2x128_si256(ab_even, cd_even, 0x20);
  w[1] = _mm256_permute2x128_si256(ab_odd, cd_odd, 0x20);
  w[2] = _mm256_permute2x128_si256(ab_even, cd_even, 0x31);
  w[3] = _mm256_permute2x128_si256(ab_odd, cd_odd, 0x31);
}

// Digests of exactly kLanes * V pages: one FNV-1a chain per 64-bit lane,
// fed the page's bytes in order (byte k of each word is the k-th byte in
// memory: x86-64 is little-endian). V independent vectors hide the
// multiply latency; V = kVectors fills the machine, a smaller V serves a
// short tail without paying for empty lanes.
template <std::size_t V>
__attribute__((target("avx2"))) void digest_lanes(
    const std::uint8_t* const* pages, std::uint64_t* out) {
  const __m256i byte_mask = _mm256_set1_epi64x(0xFF);
  __m256i h[V];
  for (__m256i& v : h) {
    v = _mm256_set1_epi64x(static_cast<long long>(kFnvOffsetBasis));
  }
  for (std::size_t off = 0; off < kPageSize; off += 32) {
    __m256i w[V][kLanes];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      load_words(pages + v * kLanes, off, w[v]);
    }
#pragma GCC unroll 4
    for (std::size_t j = 0; j < kLanes; ++j) {
#pragma GCC unroll 8
      for (int k = 0; k < 8; ++k) {
#pragma GCC unroll 4
        for (std::size_t v = 0; v < V; ++v) {
          h[v] = fnv_multiply(
              _mm256_xor_si256(h[v], _mm256_and_si256(w[v][j], byte_mask)));
          w[v][j] = _mm256_srli_epi64(w[v][j], 8);
        }
      }
    }
  }
  for (std::size_t v = 0; v < V; ++v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + v * kLanes), h[v]);
  }
}

}  // namespace

bool page_digest_avx2_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

void page_bytes_digests_avx2(std::span<const std::uint8_t* const> pages,
                             std::span<std::uint64_t> out) {
  std::size_t at = 0;
  for (; pages.size() - at >= kPageDigestBatch; at += kPageDigestBatch) {
    digest_lanes<kVectors>(pages.data() + at, out.data() + at);
  }
  const std::size_t rest = pages.size() - at;
  if (rest == 0) return;
  if (rest <= 2) {
    // One or two chains run faster on the byte loop than in a half-empty
    // vector, whose speed is bound by the multiply latency.
    page_bytes_digests_serial(pages.subspan(at), out.subspan(at));
    return;
  }
  // Partial batch: as few vectors as hold `rest` lanes, the unused lanes
  // padded with the batch's first page (already in cache), their digests
  // dropped.
  const std::uint8_t* lanes[kPageDigestBatch];
  std::uint64_t digests[kPageDigestBatch];
  for (std::size_t i = 0; i < kPageDigestBatch; ++i) {
    lanes[i] = pages[at + (i < rest ? i : 0)];
  }
  switch ((rest + kLanes - 1) / kLanes) {
    case 1: digest_lanes<1>(lanes, digests); break;
    case 2: digest_lanes<2>(lanes, digests); break;
    case 3: digest_lanes<3>(lanes, digests); break;
    default: digest_lanes<4>(lanes, digests); break;
  }
  std::copy_n(digests, rest, out.begin() + static_cast<std::ptrdiff_t>(at));
}
#endif

}  // namespace internal

void page_bytes_digests(std::span<const std::uint8_t* const> pages,
                        std::span<std::uint64_t> out) {
  if (pages.size() != out.size()) {
    throw std::invalid_argument("page_bytes_digests: size mismatch");
  }
  static const PageDigestKernel page_digest_kernel =
      page_digest_select_kernel();
  page_digest_kernel(pages, out);
}

}  // namespace here::hv
