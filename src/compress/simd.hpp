// Dispatched kernel tables for the codec hot loops.
//
// Each table holds function pointers to the loops that dominate codec
// time: the zfpx block transform + bit-plane group-test coder, the BitTrim
// pack/unpack, the fp64<->fp32 casts, and the szq packed-index unpack.
// Every kernel has a scalar reference (defined beside the reference codec
// in zfpx.cpp / truncate.cpp / szq.cpp) and an AVX2 build in the matching
// *_simd.cpp TU; the BitTrim and cast kernels also have an AVX-512 build
// in truncate_simd512.cpp, while the zfpx and szq avx512 slots run the
// AVX2 kernels. The accessor picks a table from the active SimdLevel on
// every call, so set_simd_level() takes effect immediately. All builds
// produce bit-identical streams: the wire format is frozen (plans, the
// fuzz suite and the tuner cache all depend on it), which is pinned by the
// compress_test SimdIdentity cross-level matrix.
#pragma once

#include <cstddef>
#include <cstdint>

#include "compress/bitio.hpp"

namespace lossyfft::simd {

struct ZfpxKernels {
  /// Embedded group-test coder over negabinary plane bits (zfpx.cpp
  /// documents the stream). `size` <= 64; planes run from bit 61 down to
  /// `k_min` within `budget` bits.
  void (*encode_planes)(const std::uint64_t* u, int size, int budget,
                        BitWriter& bw, int k_min);
  void (*decode_planes)(std::uint64_t* u, int size, int budget, BitReader& br,
                        int k_min);
  /// Forward block transform: Haar lifting along each dimension, sequency
  /// permute, negabinary map (`q` is clobbered). n in {4, 16, 64}; `perm`
  /// may be null for n == 4. The inverse mirrors it.
  void (*fwd_transform)(std::int64_t* q, int n, const int* perm,
                        std::uint64_t* u);
  void (*inv_transform)(const std::uint64_t* u, int n, const int* perm,
                        std::int64_t* q);
};

/// BitTrim rows: the scalar row runs a word-at-a-time bit accumulator,
/// the AVX2 row trims four lanes at a time (generic widths then go
/// through the scalar accumulator on pack and a 4-lane gather on unpack),
/// and the AVX-512 row moves eight values, exactly `bits` bytes, per VBMI
/// byte permute at every width from 12 to 57 bits, handing the tail to
/// the scalar row at a byte-aligned offset and wider widths to the AVX2
/// row (pack) or the scalar row (unpack).
struct TrimKernels {
  /// BitTrim pack: trim each double to `mantissa_bits` and append the top
  /// `bits` = 12 + mantissa_bits bits to the LSB-first stream at `out`
  /// (truncate.cpp documents the layout). Writes exactly ceil(n*bits/8)
  /// bytes at `out`, no pointer alignment required.
  void (*pack)(const double* in, std::size_t n, int mantissa_bits, int bits,
               std::byte* out);
  /// BitTrim unpack: read `n` values of `bits` bits from the `nbytes`-byte
  /// stream and rebuild doubles by shifting `drop` = 64 - bits zeros in.
  /// Reads no byte at or past in + nbytes.
  void (*unpack)(const std::byte* in, std::size_t nbytes, double* out,
                 std::size_t n, int bits, int drop);
  /// fp64 -> fp32 wire cast and its inverse.
  void (*cast_fp32)(const double* in, std::size_t n, std::byte* out);
  void (*uncast_fp32)(const std::byte* in, std::size_t n, double* out);
};

struct SzqKernels {
  /// Unpack `n` zigzagged quantizer indices of `width` bits each from a
  /// byte-aligned packed run (`in_len` readable bytes remain, of which the
  /// run occupies the first ceil(n*width/8)) and unzigzag into `q`.
  void (*unpack_indices)(const std::byte* in, std::size_t in_len, int width,
                         std::int64_t* q, std::size_t n);
};

/// Active tables for the current SimdLevel.
const ZfpxKernels& zfpx_kernels();
const TrimKernels& trim_kernels();
const SzqKernels& szq_kernels();

/// Per-level factories (internal; exposed for the identity tests). Each
/// factory degrades one tier when its TU was compiled without the needed
/// lanes: avx512 falls back to the avx2 table (old compiler or forced-avx2
/// build), avx2 falls back to scalar (non-x86 or forced-scalar build) —
/// so every table index is always populated and dispatch never overruns
/// what the binary actually contains.
ZfpxKernels scalar_zfpx_kernels();
ZfpxKernels avx2_zfpx_kernels();
TrimKernels scalar_trim_kernels();
TrimKernels avx2_trim_kernels();
TrimKernels avx512_trim_kernels();
SzqKernels scalar_szq_kernels();
SzqKernels avx2_szq_kernels();

}  // namespace lossyfft::simd
