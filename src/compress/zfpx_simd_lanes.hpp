// AVX2 lane helpers and encoder for the zfpx kernels. Include only from
// TUs compiled with at least -mavx2; everything here is inline.
//
// Bit-identity with the scalar reference in zfpx.cpp is the contract, and
// the word-at-a-time encoder leans on two exact equivalences:
//   - a chunked BitWriter::put / BitReader::get of n bits produces the
//     same stream as n put_bit/get_bit calls (pinned by the BitIo tests);
//   - one group-test "run" is a string of zeros terminated by a one, so
//     emitting it as put(1 << run, run + 1) — or put(0, budget) when the
//     budget cuts the run short — matches the scalar per-bit loop bit for
//     bit.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "compress/bitio.hpp"
#include "compress/zfpx.hpp"
#include "compress/zfpx_scanfill.hpp"

namespace lossyfft::simd::lanes {

// Arithmetic >>1 for int64 lanes (AVX2 has no vpsraq): logical shift plus
// a reinstated sign bit — exact for shift-by-one.
inline __m256i sra1_epi64(__m256i v) {
  const __m256i sign = _mm256_and_si256(
      v, _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull)));
  return _mm256_or_si256(_mm256_srli_epi64(v, 1), sign);
}

// Negabinary map and inverse, four lanes at a time. Wrapping adds match
// the scalar unsigned arithmetic.
inline __m256i negabinary4(__m256i v) {
  const __m256i mask =
      _mm256_set1_epi64x(static_cast<long long>(0xAAAAAAAAAAAAAAAAull));
  return _mm256_xor_si256(_mm256_add_epi64(v, mask), mask);
}

inline __m256i unnegabinary4(__m256i u) {
  const __m256i mask =
      _mm256_set1_epi64x(static_cast<long long>(0xAAAAAAAAAAAAAAAAull));
  return _mm256_sub_epi64(_mm256_xor_si256(u, mask), mask);
}

// Four independent Haar S-transform lifts in parallel: lane l of (a, b, c,
// d) holds the four values of lift l.
inline void fwd_lift4_vec(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  const __m256i h0 = _mm256_sub_epi64(a, b);
  const __m256i l0 = _mm256_add_epi64(b, sra1_epi64(h0));
  const __m256i h1 = _mm256_sub_epi64(c, d);
  const __m256i l1 = _mm256_add_epi64(d, sra1_epi64(h1));
  const __m256i hh = _mm256_sub_epi64(l0, l1);
  const __m256i ll = _mm256_add_epi64(l1, sra1_epi64(hh));
  a = ll;
  b = hh;
  c = h0;
  d = h1;
}

inline void inv_lift4_vec(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  const __m256i ll = a, hh = b, h0 = c, h1 = d;
  const __m256i l1 = _mm256_sub_epi64(ll, sra1_epi64(hh));
  const __m256i l0 = _mm256_add_epi64(l1, hh);
  const __m256i vb = _mm256_sub_epi64(l0, sra1_epi64(h0));
  const __m256i va = _mm256_add_epi64(vb, h0);
  const __m256i vd = _mm256_sub_epi64(l1, sra1_epi64(h1));
  const __m256i vc = _mm256_add_epi64(vd, h1);
  a = va;
  b = vb;
  c = vc;
  d = vd;
}

// 4x4 int64 transpose across four ymm rows.
inline void transpose4x4_epi64(__m256i& r0, __m256i& r1, __m256i& r2,
                               __m256i& r3) {
  const __m256i t0 = _mm256_unpacklo_epi64(r0, r1);
  const __m256i t1 = _mm256_unpackhi_epi64(r0, r1);
  const __m256i t2 = _mm256_unpacklo_epi64(r2, r3);
  const __m256i t3 = _mm256_unpackhi_epi64(r2, r3);
  r0 = _mm256_permute2x128_si256(t0, t2, 0x20);
  r1 = _mm256_permute2x128_si256(t1, t3, 0x20);
  r2 = _mm256_permute2x128_si256(t0, t2, 0x31);
  r3 = _mm256_permute2x128_si256(t1, t3, 0x31);
}

inline __m256i load4(const std::int64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store4(std::int64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// Lift four contiguous 4-rows at once: transpose so each lift's values
// line up across lanes, lift, transpose back.
inline void fwd_lift_rows(std::int64_t* q) {
  __m256i r0 = load4(q), r1 = load4(q + 4), r2 = load4(q + 8),
          r3 = load4(q + 12);
  transpose4x4_epi64(r0, r1, r2, r3);
  fwd_lift4_vec(r0, r1, r2, r3);
  transpose4x4_epi64(r0, r1, r2, r3);
  store4(q, r0);
  store4(q + 4, r1);
  store4(q + 8, r2);
  store4(q + 12, r3);
}

inline void inv_lift_rows(std::int64_t* q) {
  __m256i r0 = load4(q), r1 = load4(q + 4), r2 = load4(q + 8),
          r3 = load4(q + 12);
  transpose4x4_epi64(r0, r1, r2, r3);
  inv_lift4_vec(r0, r1, r2, r3);
  transpose4x4_epi64(r0, r1, r2, r3);
  store4(q, r0);
  store4(q + 4, r1);
  store4(q + 8, r2);
  store4(q + 12, r3);
}

// Lift across four vectors loaded at stride 4 (columns of a 4x4 tile).
inline void fwd_lift_cols(std::int64_t* q, std::size_t stride) {
  __m256i a = load4(q), b = load4(q + stride), c = load4(q + 2 * stride),
          d = load4(q + 3 * stride);
  fwd_lift4_vec(a, b, c, d);
  store4(q, a);
  store4(q + stride, b);
  store4(q + 2 * stride, c);
  store4(q + 3 * stride, d);
}

inline void inv_lift_cols(std::int64_t* q, std::size_t stride) {
  __m256i a = load4(q), b = load4(q + stride), c = load4(q + 2 * stride),
          d = load4(q + 3 * stride);
  inv_lift4_vec(a, b, c, d);
  store4(q, a);
  store4(q + stride, b);
  store4(q + 2 * stride, c);
  store4(q + 3 * stride, d);
}

// ----------------------------------------------------------- transforms

inline void fwd_transform(std::int64_t* q, int n, const int* perm,
                          std::uint64_t* u) {
  if (n == 4) {
    zfpx_detail::fwd_lift4(q, 1);  // One lift: horizontal, stay scalar.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(u), negabinary4(load4(q)));
    return;
  }
  alignas(32) std::uint64_t t[64];
  if (n == 16) {
    fwd_lift_rows(q);        // x: lift within each of the 4 rows.
    fwd_lift_cols(q, 4);     // y: lift across the rows.
  } else {
    LFFT_ASSERT(n == 64);
    for (int r = 0; r < 64; r += 16) fwd_lift_rows(q + r);       // x
    for (int k = 0; k < 4; ++k) fwd_lift_cols(q + 16 * k, 4);    // y
    for (int j = 0; j < 4; ++j) fwd_lift_cols(q + 4 * j, 16);    // z
  }
  for (int i = 0; i < n; i += 4) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(t + i),
                       negabinary4(load4(q + i)));
  }
  for (int i = 0; i < n; ++i) u[i] = t[perm[i]];
}

inline void inv_transform(const std::uint64_t* u, int n, const int* perm,
                          std::int64_t* q) {
  if (n == 4) {
    store4(q, unnegabinary4(_mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(u))));
    zfpx_detail::inv_lift4(q, 1);
    return;
  }
  alignas(32) std::int64_t t[64];
  for (int i = 0; i < n; i += 4) {
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(t + i),
        unnegabinary4(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(u + i))));
  }
  for (int i = 0; i < n; ++i) q[perm[i]] = t[i];
  if (n == 16) {
    inv_lift_cols(q, 4);     // y
    inv_lift_rows(q);        // x
  } else {
    LFFT_ASSERT(n == 64);
    for (int j = 0; j < 4; ++j) inv_lift_cols(q + 4 * j, 16);    // z
    for (int k = 0; k < 4; ++k) inv_lift_cols(q + 16 * k, 4);    // y
    for (int r = 0; r < 64; r += 16) inv_lift_rows(q + r);       // x
  }
}

// -------------------------------------------------------- plane-word coder

// Plane word of a 4-block without a transpose: shift plane k into the sign
// bit of each lane and movemask.
inline std::uint64_t plane_word4(__m256i v, int k) {
  const __m256i sh = _mm256_sll_epi64(v, _mm_cvtsi32_si128(63 - k));
  return static_cast<std::uint64_t>(
      static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(sh))));
}

// Word-at-a-time encoder, exactly equivalent to the scalar per-bit loop:
// the verbatim prefix of a plane is the low n_sig bits of its plane word
// (one chunked put), a run is countr_zero zeros plus the terminating one
// (one chunked put), and an empty plane is min(n_sig (+1), budget) zero
// bits. `pw(k)` supplies plane words; `or_all` batches the all-empty top
// planes into a single put.
template <typename PlaneFn>
inline void encode_planes_words(PlaneFn pw, std::uint64_t or_all, int size,
                                int budget, BitWriter& bw, int k_min) {
  int n_sig = 0;
  int k = scanfill::kTopPlane;
  const int top = or_all == 0 ? k_min - 1 : std::bit_width(or_all) - 1;
  const int empties =
      std::max(0, scanfill::kTopPlane - std::max(top + 1, k_min) + 1);
  if (empties > 0) {
    // While nothing is significant, an empty plane is one 0 any-bit.
    const int nb = std::min(empties, budget);
    bw.put(0, nb);
    budget -= nb;
    k -= empties;
  }
  for (; k >= k_min && budget > 0; --k) {
    const std::uint64_t w = pw(k);
    if (w == 0) {
      const int extra = n_sig < size ? 1 : 0;
      const int nb = std::min(n_sig + extra, budget);
      bw.put(0, nb);
      budget -= nb;
      continue;
    }
    const int m = std::min(n_sig, budget);
    if (m > 0) {
      bw.put(m < 64 ? (w & ((std::uint64_t{1} << m) - 1)) : w, m);
      budget -= m;
    }
    if (budget == 0) break;
    int i = n_sig;
    while (i < size && budget > 0) {
      const std::uint64_t rem = w >> i;
      if (rem == 0) {
        bw.put_bit(false);
        --budget;
        break;
      }
      bw.put_bit(true);
      --budget;
      if (budget == 0) break;
      const int run = std::countr_zero(rem);
      if (run + 1 <= budget) {
        bw.put(std::uint64_t{1} << run, run + 1);
        budget -= run + 1;
        i += run + 1;
        n_sig = i;
      } else {
        bw.put(0, budget);  // The terminating one no longer fits.
        budget = 0;
      }
    }
  }
}

// 16/64-coefficient encode: gather coefficient words, transpose once, and
// feed the plane words to the coder. Shared verbatim by both SIMD tiers.
inline void encode_planes_rows(const std::uint64_t* u, int size, int budget,
                               BitWriter& bw, int k_min) {
  std::uint64_t rows[64] = {};
  std::uint64_t or_all = 0;
  for (int j = 0; j < size; ++j) {
    rows[j] = u[j];
    or_all |= u[j];
  }
  scanfill::transpose64(rows);
  encode_planes_words([&rows](int k) { return rows[k]; }, or_all, size,
                      budget, bw, k_min);
}

}  // namespace lossyfft::simd::lanes
