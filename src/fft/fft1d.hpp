// 1-D complex-to-complex FFT, templated on the real scalar type.
//
// This is the node-local compute kernel of the distributed 3-D FFT (the role
// cuFFT plays in heFFTe). Power-of-two sizes run an iterative radix-2
// Stockham FFT, the other sizes with prime factors {2, 3, 5, 7} a recursive
// mixed-radix decimation-in-time Cooley-Tukey, and any other size falls back
// to Bluestein's chirp-z algorithm, so every n >= 1 is supported.
//
// Lane contract: a batched transform_strided call runs its lines B at a
// time, one line per SIMD lane, with B set by the cpu_dispatch level
// (LOSSYFFT_SIMD / set_simd_level): 1 at scalar, 4 doubles or 8 floats at
// avx2 and avx512. A single line always runs one lane wide, in place when
// it is contiguous. Every lane performs the same IEEE operations in the
// same order as the one-lane path, so the output is bitwise identical at
// every level, batch size and layout for finite inputs.
//
// A plan precomputes twiddles (immutable after construction) plus a default
// scratch workspace. The default-workspace entry points are NOT thread-safe;
// to share one plan across threads, give each thread its own Workspace from
// make_workspace() and use the workspace-taking overloads — the plan itself
// is then read-only. The 3-D FFT uses this to shard pencil batches across
// the worker pool without duplicating twiddle tables.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace lossyfft {

enum class FftDirection { kForward, kInverse };

/// Returns true when `n` factors completely into {2, 3, 5, 7}.
bool is_smooth_7(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

template <typename T>
class Fft1d {
 public:
  using Complex = std::complex<T>;

  /// Plan a transform of length `n` (n >= 1).
  explicit Fft1d(std::size_t n);
  ~Fft1d();

  Fft1d(Fft1d&&) noexcept;
  Fft1d& operator=(Fft1d&&) noexcept;
  Fft1d(const Fft1d&) = delete;
  Fft1d& operator=(const Fft1d&) = delete;

  std::size_t size() const { return n_; }

  /// All call-local mutable state of one transform, in one buffer carved
  /// at a 64-byte boundary: the B-line tile, then the algorithm's scratch
  /// (Stockham ping-pong or DIT gather; for Bluestein sizes the
  /// convolution buffer plus the inner plan's scratch). One plan + one
  /// Workspace per thread = concurrent transforms over one twiddle table.
  /// The buffer is (re)sized lazily for the active lane width, so a
  /// default-constructed Workspace also works; make_workspace() pre-sizes
  /// it to keep the hot path allocation-free.
  struct Workspace {
    std::vector<T> buf;
  };

  /// A workspace pre-sized for this plan at the active lane width.
  Workspace make_workspace() const;

  /// In-place transform of `data[0..n)`, contiguous. The inverse is scaled
  /// by 1/n so that inverse(forward(x)) == x up to roundoff.
  /// Uses the plan's own workspace: not thread-safe.
  void transform(Complex* data, FftDirection dir) const;

  /// Thread-safe variant: all mutable state lives in `ws`.
  void transform(Complex* data, FftDirection dir, Workspace& ws) const;

  /// Batched strided transform: `batch` transforms, the b-th starting at
  /// data + b*batch_stride, with consecutive transform elements separated by
  /// `stride`. Used by the 3-D FFT to run pencils without repacking; batches
  /// of two or more lines take the lane path (see the header comment).
  /// Uses the plan's own workspace: not thread-safe.
  void transform_strided(Complex* data, std::ptrdiff_t stride,
                         std::size_t batch, std::ptrdiff_t batch_stride,
                         FftDirection dir) const;

  /// Thread-safe variant: all mutable state lives in `ws`.
  void transform_strided(Complex* data, std::ptrdiff_t stride,
                         std::size_t batch, std::ptrdiff_t batch_stride,
                         FftDirection dir, Workspace& ws) const;

 private:
  struct Impl;
  std::size_t n_;
  std::unique_ptr<Impl> impl_;
};

/// Naive O(n^2) DFT used as the correctness oracle in tests.
template <typename T>
std::vector<std::complex<T>> naive_dft(const std::vector<std::complex<T>>& x,
                                       FftDirection dir);

extern template class Fft1d<float>;
extern template class Fft1d<double>;
extern template std::vector<std::complex<float>> naive_dft<float>(
    const std::vector<std::complex<float>>&, FftDirection);
extern template std::vector<std::complex<double>> naive_dft<double>(
    const std::vector<std::complex<double>>&, FftDirection);

}  // namespace lossyfft
