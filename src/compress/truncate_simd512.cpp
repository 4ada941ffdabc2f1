// AVX-512 build of the cast/trim kernels. Same exact-integer
// round-to-nearest-even as the AVX2 TU but eight lanes per op with
// k-mask predication instead of blend vectors.
//
// Eight values of `bits` bits fill exactly `bits` bytes, so the stream is
// a sequence of byte-aligned eight-value groups, and every width from 12
// to 57 bits moves a group with VBMI byte permutes instead of a bit
// accumulator or a gather. Pack shifts lane k left by its in-byte phase
// (k*bits) & 7, builds the group's bytes with two vpermb (each output
// byte is the OR of at most two source bytes, because bits >= 12) and
// stores exactly `bits` bytes. Unpack lays each value's 8-byte stream
// window into its lane with one vpermb over a 64-byte load, then shifts
// the phase out and `drop` zeros in; 7 + 57 <= 64, so every value fits
// its window. The sub-8 tail and the last groups whose 64-byte load
// would pass the stream end run the scalar row at the group-aligned byte
// offset. Past 57 bits a value plus its phase can pass its lane, so pack
// hands those widths to the AVX2 row (four-lane trim ahead of the scalar
// accumulator) and unpack runs them in the scalar row, bits == 64 as a
// memcpy. Streams stay bit-identical to the scalar row in truncate.cpp.
#include "compress/simd.hpp"

#if defined(LOSSYFFT_SIMD_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

namespace lossyfft::simd {
namespace {

// trim_mantissa (softfloat/trim.cpp) on eight double-bit lanes. `drop` in
// [1, 52]; mantissa_bits == 52 (identity) never reaches it.
inline __m512i trim8(__m512i u, int drop) {
  const std::uint64_t half = std::uint64_t{1} << (drop - 1);
  const std::uint64_t unit = std::uint64_t{1} << drop;
  const __m512i keep_mask =
      _mm512_set1_epi64(static_cast<long long>(~(unit - 1)));
  const __m512i halfway = _mm512_set1_epi64(static_cast<long long>(half));
  const __m512i unit_v = _mm512_set1_epi64(static_cast<long long>(unit));
  const __m512i rem = _mm512_andnot_si512(keep_mask, u);
  __m512i kept = _mm512_and_si512(u, keep_mask);
  // Round up when rem > halfway, or rem == halfway and the kept LSB is
  // set (ties to even). rem and halfway are < 2^52, so the signed
  // compare is exact.
  const __mmask8 gt = _mm512_cmpgt_epi64_mask(rem, halfway);
  const __mmask8 eq = _mm512_cmpeq_epi64_mask(rem, halfway);
  const __mmask8 odd = _mm512_test_epi64_mask(kept, unit_v);
  const __mmask8 round = gt | (eq & odd);
  kept = _mm512_mask_add_epi64(kept, round, kept, unit_v);
  // Non-finite passthrough: exponent field all ones.
  const __m512i expmask =
      _mm512_set1_epi64(static_cast<long long>(0x7FF0000000000000ull));
  const __mmask8 nonfinite =
      _mm512_cmpeq_epi64_mask(_mm512_and_si512(u, expmask), expmask);
  return _mm512_mask_mov_epi64(kept, nonfinite, u);
}

inline __m512i load_bits8(const double* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

// Widths the group permutes handle: from 12 bits (at most two values
// meet in a byte) to 57 (a value plus its phase fits one 64-bit lane).
constexpr int kMinGroupBits = 12;
constexpr int kMaxGroupBits = 57;

// Byte-permute tables for one eight-value group of `bits`-bit values.
// Value k starts at stream bit k*bits: byte (k*bits) >> 3, phase
// (k*bits) & 7.
struct GroupTables {
  // Pack: output byte j takes lane byte first[j] (the value holding its
  // bit 0) OR lane byte second[j] (the value starting inside it) where
  // `second_mask` bit j is set.
  alignas(64) std::array<std::uint8_t, 64> first{};
  alignas(64) std::array<std::uint8_t, 64> second{};
  std::uint64_t second_mask = 0;
  // Unpack: lane k byte t takes stream byte window[8k + t].
  alignas(64) std::array<std::uint8_t, 64> window{};
  // Phase of value k, the shift between its lane and its stream bits.
  alignas(64) std::array<std::uint64_t, 8> phase{};
};

constexpr GroupTables make_group_tables(int bits) {
  GroupTables t;
  for (int k = 0; k < 8; ++k) {
    const int byte = (k * bits) >> 3;
    t.phase[k] = static_cast<std::uint64_t>((k * bits) & 7);
    for (int b = 0; b < 8; ++b) {
      t.window[8 * k + b] = static_cast<std::uint8_t>(byte + b);
    }
  }
  for (int j = 0; j < bits; ++j) {
    const int k1 = 8 * j / bits;
    const int k2 = (8 * j + 7) / bits;
    t.first[j] = static_cast<std::uint8_t>(8 * k1 + j - ((k1 * bits) >> 3));
    if (k2 != k1) {
      t.second[j] = static_cast<std::uint8_t>(8 * k2);
      t.second_mask |= std::uint64_t{1} << j;
    }
  }
  return t;
}

// One table per width, indexed by bits (entries below kMinGroupBits stay
// empty), built at compile time.
constexpr auto kGroupTables = [] {
  std::array<GroupTables, kMaxGroupBits + 1> all{};
  for (int bits = kMinGroupBits; bits <= kMaxGroupBits; ++bits) {
    all[bits] = make_group_tables(bits);
  }
  return all;
}();

void trim_pack_avx512(const double* in, std::size_t n, int mantissa_bits,
                      int bits, std::byte* out) {
  if (bits > kMaxGroupBits) {
    // A value plus its phase can pass its lane: the AVX2 row trims four
    // lanes at a time ahead of the scalar accumulator.
    avx2_trim_kernels().pack(in, n, mantissa_bits, bits, out);
    return;
  }
  const int drop = 52 - mantissa_bits;
  const GroupTables& t = kGroupTables[static_cast<std::size_t>(bits)];
  const __m512i first = _mm512_load_si512(t.first.data());
  const __m512i second = _mm512_load_si512(t.second.data());
  const __m512i phase = _mm512_load_si512(t.phase.data());
  const __mmask64 second_mask = t.second_mask;
  const __mmask64 group_bytes = (std::uint64_t{1} << bits) - 1;
  const std::size_t step = static_cast<std::size_t>(bits);
  std::size_t i = 0;
  std::size_t pos = 0;
  for (; i + 8 <= n; i += 8, pos += step) {
    const __m512i v = _mm512_sllv_epi64(
        _mm512_srli_epi64(trim8(load_bits8(in + i), drop), drop), phase);
    const __m512i bytes = _mm512_or_si512(
        _mm512_permutexvar_epi8(first, v),
        _mm512_maskz_permutexvar_epi8(second_mask, second, v));
    _mm512_mask_storeu_epi8(out + pos, group_bytes, bytes);
  }
  // i is a multiple of 8, so the rest of the stream starts at byte pos.
  scalar_trim_kernels().pack(in + i, n - i, mantissa_bits, bits, out + pos);
}

void trim_unpack_avx512(const std::byte* in, std::size_t nbytes, double* out,
                        std::size_t n, int bits, int drop) {
  std::size_t i = 0;
  std::size_t pos = 0;
  if (bits == 64) {
    i = std::min(n, nbytes / 8);
    pos = 8 * i;
    if (pos != 0) std::memcpy(out, in, pos);
  } else if (bits <= kMaxGroupBits) {
    const GroupTables& t = kGroupTables[static_cast<std::size_t>(bits)];
    const __m512i window = _mm512_load_si512(t.window.data());
    const __m512i phase = _mm512_load_si512(t.phase.data());
    const std::size_t step = static_cast<std::size_t>(bits);
    // The shift left by drop = 64 - bits also clears the next value's
    // bits above the field, so no value mask is needed.
    for (; i + 8 <= n && pos + 64 <= nbytes; i += 8, pos += step) {
      const __m512i w = _mm512_permutexvar_epi8(
          window, _mm512_loadu_si512(reinterpret_cast<const void*>(in + pos)));
      _mm512_storeu_si512(reinterpret_cast<void*>(out + i),
                          _mm512_slli_epi64(_mm512_srlv_epi64(w, phase), drop));
    }
  }
  scalar_trim_kernels().unpack(in + pos, nbytes - pos, out + i, n - i, bits,
                               drop);
}

void cast_fp32_avx512(const double* in, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  // Two 8-wide converts per 512-bit store (shuffle_f32x4 splices the two
  // YMM halves; insertf32x8 would need DQ, which the flag set omits).
  for (; i + 16 <= n; i += 16) {
    const __m512 lo =
        _mm512_castps256_ps512(_mm512_cvtpd_ps(_mm512_loadu_pd(in + i)));
    const __m512 hi =
        _mm512_castps256_ps512(_mm512_cvtpd_ps(_mm512_loadu_pd(in + i + 8)));
    _mm512_storeu_ps(reinterpret_cast<float*>(out + 4 * i),
                     _mm512_shuffle_f32x4(lo, hi, 0x44));
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm512_cvtpd_ps(_mm512_loadu_pd(in + i));
    _mm256_storeu_ps(reinterpret_cast<float*>(out + 4 * i), f);
  }
  for (; i < n; ++i) {
    const float f = static_cast<float>(in[i]);
    std::memcpy(out + 4 * i, &f, 4);
  }
}

void uncast_fp32_avx512(const std::byte* in, std::size_t n, double* out) {
  std::size_t i = 0;
  // One 256-bit load feeds one 8-wide widening convert.
  for (; i + 8 <= n; i += 8) {
    const __m256 f =
        _mm256_loadu_ps(reinterpret_cast<const float*>(in + 4 * i));
    _mm512_storeu_pd(out + i, _mm512_cvtps_pd(f));
  }
  for (; i < n; ++i) {
    float f;
    std::memcpy(&f, in + 4 * i, 4);
    out[i] = static_cast<double>(f);
  }
}

}  // namespace

TrimKernels avx512_trim_kernels() {
  return {&trim_pack_avx512, &trim_unpack_avx512, &cast_fp32_avx512,
          &uncast_fp32_avx512};
}

}  // namespace lossyfft::simd

#else  // !LOSSYFFT_SIMD_AVX512

namespace lossyfft::simd {

// Built without AVX-512 lanes: degrade to the AVX2 tier (which itself
// degrades to scalar when AVX2 lanes are absent).
TrimKernels avx512_trim_kernels() { return avx2_trim_kernels(); }

}  // namespace lossyfft::simd

#endif
