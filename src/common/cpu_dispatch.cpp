#include "common/cpu_dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if !defined(LOSSYFFT_SIMD_FORCE_SCALAR) && \
    (defined(__x86_64__) || defined(_M_X64))
#include <cpuid.h>
#endif

namespace lossyfft {

namespace {

#if !defined(LOSSYFFT_SIMD_FORCE_SCALAR) && \
    (defined(__x86_64__) || defined(_M_X64))
// AVX-512 needs the OS to have enabled the full ZMM register state, not
// just the CPU to advertise the instructions: OSXSAVE on, and XCR0 bits
// for XMM|YMM|opmask|ZMM_hi256|hi16_ZMM (0xE6) all set. A kernel booted
// with ZMM state disabled leaves cpuid feature bits on while faulting on
// the first EVEX.512 instruction, so the xgetbv check is load-bearing.
bool os_enables_zmm_state() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & (1u << 27)) == 0) return false;  // OSXSAVE
  unsigned lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  const unsigned long long xcr0 =
      (static_cast<unsigned long long>(hi) << 32) | lo;
  return (xcr0 & 0xE6ull) == 0xE6ull;
}
#endif

SimdLevel detect() {
#if defined(LOSSYFFT_SIMD_FORCE_SCALAR)
  return SimdLevel::kScalar;
#elif defined(__x86_64__) || defined(_M_X64)
  if (!__builtin_cpu_supports("avx2")) return SimdLevel::kScalar;
#if defined(LOSSYFFT_SIMD_AVX512_BUILT)
  // Only report kAvx512 when the avx512 TUs were actually flag-compiled
  // into this binary (forced-avx2 and old-compiler builds alias the table
  // entry to the AVX2 kernels, so the name would overstate what runs).
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vbmi") &&
      __builtin_cpu_supports("avx512vbmi2") && os_enables_zmm_state()) {
    return SimdLevel::kAvx512;
  }
#endif
  return SimdLevel::kAvx2;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel clamp(SimdLevel level, SimdLevel cap) {
  return static_cast<int>(level) > static_cast<int>(cap) ? cap : level;
}

// Requested-level name retained for simd_requested_name(); written once
// during level_slot() initialization, read-only afterwards.
const char*& requested_slot() {
  static const char* requested = "auto";
  return requested;
}

SimdLevel initial_level() {
  const SimdLevel cap = detected_simd_level();
  const char* env = std::getenv("LOSSYFFT_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0) return cap;
  SimdLevel want;
  if (std::strcmp(env, "scalar") == 0) {
    want = SimdLevel::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    want = SimdLevel::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    want = SimdLevel::kAvx512;
  } else {
    std::fprintf(stderr,
                 "lossyfft: unrecognized LOSSYFFT_SIMD=\"%s\" "
                 "(expected auto|avx512|avx2|scalar); using %s\n",
                 env, simd_level_name(cap));
    return cap;
  }
  requested_slot() = simd_level_name(want);
  const SimdLevel effective = clamp(want, cap);
  if (effective != want) {
    std::fprintf(stderr,
                 "lossyfft: LOSSYFFT_SIMD=%s not supported by this "
                 "host/build; falling back to %s\n",
                 env, simd_level_name(effective));
  }
  return effective;
}

std::atomic<SimdLevel>& level_slot() {
  static std::atomic<SimdLevel> level{initial_level()};
  return level;
}

}  // namespace

SimdLevel detected_simd_level() {
  static const SimdLevel level = detect();
  return level;
}

SimdLevel simd_level() {
  return level_slot().load(std::memory_order_relaxed);
}

SimdLevel set_simd_level(SimdLevel level) {
  return level_slot().exchange(clamp(level, detected_simd_level()),
                               std::memory_order_relaxed);
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
    default:
      return "scalar";
  }
}

const char* simd_level_name() { return simd_level_name(simd_level()); }

const char* simd_requested_name() {
  level_slot();  // Ensure the override has been parsed.
  return requested_slot();
}

}  // namespace lossyfft
