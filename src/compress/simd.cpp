#include "compress/simd.hpp"

#include "common/cpu_dispatch.hpp"

namespace lossyfft::simd {

// One static table per level, built once; the accessor re-reads the level
// every call so the LOSSYFFT_SIMD override and the set_simd_level() test
// hook switch kernels without re-running dispatch. set_simd_level clamps
// to the detected level, so an index never names lanes the host cannot
// run (and the fallback factories mean it never names lanes the *binary*
// does not contain either). Only BitTrim and the casts have an AVX-512
// build; the zfpx and szq avx512 slots run the AVX2 kernels.
const ZfpxKernels& zfpx_kernels() {
  static const ZfpxKernels tables[3] = {scalar_zfpx_kernels(),
                                        avx2_zfpx_kernels(),
                                        avx2_zfpx_kernels()};
  return tables[static_cast<int>(simd_level())];
}

const TrimKernels& trim_kernels() {
  static const TrimKernels tables[3] = {scalar_trim_kernels(),
                                        avx2_trim_kernels(),
                                        avx512_trim_kernels()};
  return tables[static_cast<int>(simd_level())];
}

const SzqKernels& szq_kernels() {
  static const SzqKernels tables[3] = {scalar_szq_kernels(),
                                       avx2_szq_kernels(),
                                       avx2_szq_kernels()};
  return tables[static_cast<int>(simd_level())];
}

}  // namespace lossyfft::simd
