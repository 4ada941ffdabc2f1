// AVX2 build of the zfpx kernels: vectorized block transform (Haar lifts
// with an arithmetic-shift emulation, negabinary map), a word-at-a-time
// formulation of the bit-plane group-test encoder, and the scan-then-fill
// decoder (zfpx_scanfill.hpp) that breaks the decode stream dependency —
// one metadata scan records every plane's verbatim-prefix offset, then
// planes fill order-free via chunked random-access reads.
//
// Bit-identity with the scalar reference in zfpx.cpp is the contract:
// budget/k_min/end-of-stream behavior replicates the scalar control flow
// exactly, including which LFFT_REQUIRE fires on a truncated stream. The
// lane helpers and encoder live in zfpx_simd_lanes.hpp. The avx512 level
// runs these kernels too: the 512-bit zfpx build measured no steady win.
#include "compress/simd.hpp"

#if defined(LOSSYFFT_SIMD_AVX2)

#include "compress/zfpx_scanfill.hpp"
#include "compress/zfpx_simd_lanes.hpp"

namespace lossyfft::simd {
namespace {

void encode_planes_avx2(const std::uint64_t* u, int size, int budget,
                        BitWriter& bw, int k_min) {
  if (size == 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u));
    const std::uint64_t or_all = u[0] | u[1] | u[2] | u[3];
    lanes::encode_planes_words([v](int k) { return lanes::plane_word4(v, k); },
                               or_all, size, budget, bw, k_min);
    return;
  }
  lanes::encode_planes_rows(u, size, budget, bw, k_min);
}

}  // namespace

ZfpxKernels avx2_zfpx_kernels() {
  return {&encode_planes_avx2, &scanfill::decode_planes,
          &lanes::fwd_transform, &lanes::inv_transform};
}

}  // namespace lossyfft::simd

#else  // !LOSSYFFT_SIMD_AVX2

namespace lossyfft::simd {

// Built without AVX2 lanes (non-x86 or LOSSYFFT_SIMD_FORCE=scalar): the
// avx2 table degrades to the scalar reference.
ZfpxKernels avx2_zfpx_kernels() { return scalar_zfpx_kernels(); }

}  // namespace lossyfft::simd

#endif
