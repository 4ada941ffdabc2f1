// Scan-then-fill decode for the zfpx group-tested bit-plane stream.
//
// The wire format interleaves three kinds of bits per plane k (top-down):
//   1. a verbatim prefix — one bit per already-significant coefficient,
//   2. group-test "any" bits — one per run of insignificant coefficients,
//   3. zero runs terminated by a 1 that promotes a coefficient.
// A naive decoder is serial per *bit*: where plane k-1 starts depends on
// how many coefficients plane k promoted. That stream dependency is what
// capped the AVX2 decode at 1.3-1.5x while the encoder got 2.6-3.4x.
//
// This header breaks the dependency algorithmically, with no wire change:
//
//   Phase 1 (scan)  — one cheap forward walk over the *metadata only*.
//     Group-test and run bits are decoded inline (they are rare: at most
//     `size` promotions per block, and runs of empty top planes collapse
//     into a single peek), but each plane's verbatim prefix is NOT read —
//     its absolute bit offset and width are recorded in a small stack
//     directory and the cursor skips over it. The moment every
//     coefficient is significant the stream degenerates into fixed-size
//     verbatim planes, so the scan stops entirely and the remaining tail
//     is described by one {offset, plane, count} record with arithmetic
//     offsets.
//
//   Phase 2 (fill)  — every recorded prefix is independent of the others,
//     so the planes fill in any order with no carried state: 4-coefficient
//     blocks deinterleave 16 planes per 64-bit chunk with a bit-reversal
//     + stride-4 extraction network, and 16/64-coefficient blocks gather
//     plane words and run one 64x64 bit transpose.
//
// Bit-identity with the scalar reference in zfpx.cpp is structural: the
// scan consumes exactly the bits the scalar decoder consumes, in the same
// order, with the same budget arithmetic, and leaves the cursor at the
// same position (later blocks in a shard keep parsing correctly); the
// fill only re-reads bits the scan already accounted for. Truncated
// streams throw the same recoverable Error the scalar per-bit reader
// throws (via the hardened BitReader::skip / read_at bounds checks).
//
// Everything here is plain C++ on u64 words — it compiles without any
// target flags.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "compress/bitio.hpp"

namespace lossyfft::simd::scanfill {

inline constexpr int kTopPlane = 61;

/// 64x64 bit-matrix transpose, LSB-first columns: after the call, word k
/// holds bit k of every input word. Self-inverse, so the SIMD encoders'
/// plane extraction (coefficient words -> plane words) and the
/// scan-then-fill decode deposit (plane words -> coefficient words) share
/// this one routine.
inline void transpose64(std::uint64_t* a) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

/// Reverse the bit order of a 64-bit word (bit 0 <-> bit 63).
inline std::uint64_t bit_reverse64(std::uint64_t x) {
  x = __builtin_bswap64(x);
  x = ((x & 0x0F0F0F0F0F0F0F0Full) << 4) | ((x >> 4) & 0x0F0F0F0F0F0F0F0Full);
  x = ((x & 0x3333333333333333ull) << 2) | ((x >> 2) & 0x3333333333333333ull);
  x = ((x & 0x5555555555555555ull) << 1) | ((x >> 1) & 0x5555555555555555ull);
  return x;
}

/// Gather bits {0,4,8,...,60} of x into the low 16 bits of the result
/// (bit s of the result = bit 4s of x). Pre-shift x to pick the lane.
inline std::uint64_t extract_stride4(std::uint64_t x) {
  x &= 0x1111111111111111ull;
  x = (x | (x >> 3)) & 0x0303030303030303ull;
  x = (x | (x >> 6)) & 0x000F000F000F000Full;
  x = (x | (x >> 12)) & 0x000000FF000000FFull;
  x = (x | (x >> 24)) & 0x000000000000FFFFull;
  return x;
}

/// One verbatim-prefix record from the metadata scan: `m` bits starting
/// at absolute stream offset `offset` carry plane `k` of coefficients
/// 0..m-1 (the ones already significant when the plane was coded).
struct PlaneSlot {
  std::size_t offset;
  std::uint8_t k;
  std::uint8_t m;
};

/// Decode one block's bit planes. Drop-in replacement for the scalar
/// zfpx_detail::decode_planes: same signature, bit-identical consumption.
/// size in {4, 16, 64}; u receives negabinary-mapped coefficients.
inline void decode_planes(std::uint64_t* u, int size, int budget,
                          BitReader& br, int k_min = 0) {
  std::fill(u, u + size, 0ull);

  // ---- Phase 1: metadata scan ----
  PlaneSlot dir[kTopPlane + 1];
  int nd = 0;
  int n_sig = 0;
  int k = kTopPlane;
  std::size_t tail_off = 0;
  int tail_k = 0, tail_planes = 0, tail_rem = 0;

  while (k >= k_min && budget > 0) {
    if (n_sig == 0) {
      // Nothing significant yet: each fully-empty plane is a single 0
      // "any" bit, so a run of them collapses into one peek + skip.
      const int span = std::min(budget, k - k_min + 1);
      const auto [bits, avail] = br.peek_upto(span);
      if (avail > 0) {
        const int z = bits != 0 ? std::countr_zero(bits) : avail;
        if (z > 0) {
          br.skip(z);
          budget -= z;
          k -= z;
          continue;
        }
      }
    } else if (n_sig == size) {
      // Every coefficient is significant: planes k..k_min are pure
      // verbatim prefixes of exactly `size` bits each — no group tests
      // left to scan. Record the tail and advance the cursor over it in
      // one skip (which REQUIREs, like the scalar per-bit reads would,
      // if the stream is truncated).
      tail_off = br.bit_count();
      tail_k = k;
      const int planes_left = k - k_min + 1;
      tail_planes = std::min(planes_left, budget / size);
      tail_rem = tail_planes < planes_left ? budget - tail_planes * size : 0;
      br.skip(tail_planes * size + tail_rem);
      break;
    }
    // Verbatim prefix for the already-significant coefficients: record
    // its position and width, skip it, fill later.
    const int m = std::min(n_sig, budget);
    if (m > 0) {
      dir[nd].offset = br.bit_count();
      dir[nd].k = static_cast<std::uint8_t>(k);
      dir[nd].m = static_cast<std::uint8_t>(m);
      ++nd;
      br.skip(m);
      budget -= m;
    }
    if (budget == 0) break;
    // Group-test section: any-bit + zero-run-terminated-by-1 per group.
    // Promotions deposit straight into u (at most `size` per block).
    int i = n_sig;
    while (i < size && budget > 0) {
      const bool any = br.get_bit();
      --budget;
      if (!any || budget == 0) break;
      const int want = std::min(size - i, budget);
      const auto [bits, avail] = br.peek_upto(want);
      if (bits != 0) {
        const int t = std::countr_zero(bits);
        br.skip(t + 1);
        budget -= t + 1;
        u[i + t] |= std::uint64_t{1} << k;
        i += t + 1;
        n_sig = i;
      } else if (avail >= want) {
        br.skip(want);
        budget -= want;
        i += want;
      } else {
        // Short peek means the stream ends mid-run: fall back to per-bit
        // reads so truncation throws exactly where the scalar decoder
        // would.
        while (i < size && budget > 0) {
          const bool b = br.get_bit();
          --budget;
          if (b) u[i] |= std::uint64_t{1} << k;
          ++i;
          if (b) {
            n_sig = i;
            break;
          }
        }
      }
    }
    --k;
  }

  // ---- Phase 2: order-free fill of the verbatim prefixes ----
  if (size == 4) {
    // Pre-saturation planes: few and narrow (m <= 3), deposit directly.
    for (int d = 0; d < nd; ++d) {
      const std::uint64_t w = br.read_at(dir[d].offset, dir[d].m);
      const std::uint64_t bit = std::uint64_t{1} << dir[d].k;
      if (w & 1) u[0] |= bit;
      if (w & 2) u[1] |= bit;
      if (w & 4) u[2] |= bit;
      if (w & 8) u[3] |= bit;
    }
    // Saturated tail: up to 16 planes (64 bits) per chunk. Bit-reversing
    // the chunk turns "plane-major descending" into "plane-major
    // ascending from the top", after which a stride-4 extraction yields
    // each coefficient's bits already in ascending plane order — one
    // shift-OR lands 16 plane bits per coefficient.
    int p = 0;
    while (p < tail_planes) {
      const int rpl = std::min(16, tail_planes - p);
      std::uint64_t c = br.read_at(tail_off + 4 * static_cast<std::size_t>(p),
                                   4 * rpl);
      if (rpl < 16) c <<= 64 - 4 * rpl;
      const std::uint64_t r = bit_reverse64(c);
      const int base = tail_k - p - rpl + 1;
      u[3] |= extract_stride4(r) << base;
      u[2] |= extract_stride4(r >> 1) << base;
      u[1] |= extract_stride4(r >> 2) << base;
      u[0] |= extract_stride4(r >> 3) << base;
      p += rpl;
    }
    if (tail_rem > 0) {
      // Budget ran out inside a plane: a partial prefix of the lowest
      // coded plane, coefficients 0..tail_rem-1.
      const std::uint64_t w = br.read_at(
          tail_off + 4 * static_cast<std::size_t>(tail_planes), tail_rem);
      const std::uint64_t bit = std::uint64_t{1} << (tail_k - tail_planes);
      if (w & 1) u[0] |= bit;
      if (w & 2) u[1] |= bit;
      if (w & 4) u[2] |= bit;
      if (w & 8) u[3] |= bit;
    }
  } else if (nd > 0 || tail_planes > 0 || tail_rem > 0) {
    // 16/64-coefficient blocks: gather each plane's prefix into a plane
    // word, transpose once, OR into the coefficients. Plane words only
    // cover prefix coefficients (< that plane's n_sig); promotions were
    // deposited by the scan into strictly higher coefficient indices, so
    // the OR never collides.
    std::uint64_t words[64] = {};
    for (int d = 0; d < nd; ++d) {
      words[dir[d].k] = br.read_at(dir[d].offset, dir[d].m);
    }
    for (int p = 0; p < tail_planes; ++p) {
      words[tail_k - p] = br.read_at(
          tail_off + static_cast<std::size_t>(size) * p, size);
    }
    if (tail_rem > 0) {
      words[tail_k - tail_planes] = br.read_at(
          tail_off + static_cast<std::size_t>(size) * tail_planes, tail_rem);
    }
    transpose64(words);
    for (int j = 0; j < size; ++j) u[j] |= words[j];
  }
}

}  // namespace lossyfft::simd::scanfill
