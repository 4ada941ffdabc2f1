// AVX2 tier of the batched 1-D FFT: the lane kernels of fft1d_lanes.hpp
// instantiated on 256-bit vectors, so one call runs 4 double or 8 float
// lines side by side. Built with -mavx2 -ffp-contract=off: the vector
// add/sub/mul are the IEEE operations the one-lane path performs, lane by
// lane, and nothing is fused into an FMA, so every lane is bitwise equal
// to the scalar transform of its line.
#include "fft/fft1d_lanes.hpp"

#if defined(LOSSYFFT_SIMD_AVX2)

namespace lossyfft::fft_lanes {
namespace {

// Plain GCC vectors rather than __m256/__m256d: those carry __may_alias__,
// which a template argument drops (with a -Wignored-attributes warning).
typedef float v8f __attribute__((vector_size(32)));
typedef double v4d __attribute__((vector_size(32)));

}  // namespace

LaneBatch<float> avx2_lanes_f32() { return {8, &run_batch<float, v8f, 8>}; }
LaneBatch<double> avx2_lanes_f64() { return {4, &run_batch<double, v4d, 4>}; }

}  // namespace lossyfft::fft_lanes

#else  // !LOSSYFFT_SIMD_AVX2

namespace lossyfft::fft_lanes {

LaneBatch<float> avx2_lanes_f32() { return scalar_lanes_f32(); }
LaneBatch<double> avx2_lanes_f64() { return scalar_lanes_f64(); }

}  // namespace lossyfft::fft_lanes

#endif
