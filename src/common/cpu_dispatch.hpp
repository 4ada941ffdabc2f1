// One-time CPU feature dispatch for the SIMD codec kernels and the 1-D FFT
// lane width.
//
// The compress hot loops (zfpx bit-plane coder, bittrim pack/unpack, szq
// index unpack, the casts) each exist three times: a scalar reference
// build, an AVX2 build, and an AVX-512 build that must all produce
// bit-identical streams. The batched 1-D FFT (fft/fft1d_lanes.hpp) runs
// one line per lane: 1 at scalar, 4 doubles or 8 floats at avx2 and
// avx512, with bitwise identical output at every level. Which tier runs
// is decided here, once, from cpuid
// (plus an OS-xsave check for the ZMM state) — overridable per process
// with LOSSYFFT_SIMD={auto,avx512,avx2,scalar} and per test with
// set_simd_level(). An override naming a level the host or build cannot
// run warns once on stderr and falls back to the best supported tier.
#pragma once

namespace lossyfft {

enum class SimdLevel : int {
  kScalar = 0,  // Always available; the reference implementation.
  kAvx2 = 1,    // x86-64 AVX2 lanes (requires a -mavx2 build of the TUs).
  kAvx512 = 2,  // AVX-512 F+BW+VBMI+VBMI2 lanes with OS-enabled ZMM
                // state (the trim kernels' byte permutes are VBMI).
                // Every VBMI2 part also has VBMI.
};

/// Best level this binary + host supports (compile-time force, cpuid, and
/// the xsave check only; ignores the environment override).
SimdLevel detected_simd_level();

/// Active dispatch level: detected_simd_level() clamped by the
/// LOSSYFFT_SIMD environment override, cached after the first call.
SimdLevel simd_level();

/// Test/bench hook: pin the active level (clamped to the detected level so
/// the name never overstates what actually runs). Takes effect for kernels
/// dispatched after the call; callers restore the previous level.
SimdLevel set_simd_level(SimdLevel level);

/// Stable lowercase name ("scalar", "avx2", "avx512").
const char* simd_level_name(SimdLevel level);

/// Name of the active level — what tune_dump and the C API report.
const char* simd_level_name();

/// Level the LOSSYFFT_SIMD override asked for: "auto" when the variable is
/// unset, "auto", or unrecognized; otherwise the requested name even when
/// the host/build cannot run it. Lets tools surface requested-vs-effective
/// instead of silently reporting the fallback as the user's choice.
const char* simd_requested_name();

}  // namespace lossyfft
