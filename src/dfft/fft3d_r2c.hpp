// Fft3dR2c: distributed real-to-complex 3-D FFT with lossy-compressed
// reshapes (the heFFTe fft3d_r2c counterpart).
//
// Real input of extent (nx, ny, nz) transforms into the non-redundant half
// spectrum of extent (nx/2+1, ny, nz): the first pencil stage runs r2c
// 1-D transforms along x, and every later stage (and every reshape after
// the first) works on the *reduced* grid — the storage and communication
// saving that makes r2c the right interface for PDE right-hand sides
// (Algorithm 2's f is real).
//
// The first reshape moves raw reals (8 bytes/element instead of 16), and
// all reshapes accept the same wire codecs as the c2c transform.
#pragma once

#include "dfft/reshape.hpp"
#include "fft/fft1d.hpp"
#include "fft/real.hpp"

// Reuses Fft3dOptions / Scaling from the c2c header.
#include "dfft/fft3d.hpp"

namespace lossyfft {

template <typename T>
class Fft3dR2c {
 public:
  Fft3dR2c(minimpi::Comm& comm, std::array<int, 3> n,
           Fft3dOptions options = {});
  Fft3dR2c(minimpi::Comm& comm, std::array<int, 3> n, double e_tol,
           Fft3dOptions options = {});

  std::array<int, 3> grid() const { return n_; }
  /// Reduced spectral grid: {nx/2 + 1, ny, nz}.
  std::array<int, 3> spectral_grid() const { return nr_; }

  /// This rank's brick of the real input grid.
  const Box3& real_inbox() const { return real_box_; }
  /// This rank's brick of the half-spectrum grid.
  const Box3& spectral_outbox() const { return spec_box_; }

  std::size_t real_count() const {
    return static_cast<std::size_t>(real_box_.count());
  }
  std::size_t spectral_count() const {
    return static_cast<std::size_t>(spec_box_.count());
  }

  /// Forward transform: `in` holds real_count() reals (x-fastest brick),
  /// `out` receives spectral_count() complex values. Collective.
  void forward(std::span<const T> in, std::span<std::complex<T>> out);

  /// Inverse: half spectrum back to reals; carries the scaling share
  /// selected by options.scaling (default: full 1/N here).
  void backward(std::span<const std::complex<T>> in, std::span<T> out);

  osc::ExchangeStats stats() const;

 private:
  /// The real x stage: r2c (forward) or c2r (inverse) lines between
  /// real_work_ and the spectral x-pencils at the head of work_a_.
  void run_x(FftDirection dir);

  minimpi::Comm& comm_;
  std::array<int, 3> n_;   // Real grid.
  std::array<int, 3> nr_;  // Reduced spectral grid.
  Fft3dOptions options_;

  Box3 real_box_, spec_box_, xp_real_, xp_spec_;

  std::unique_ptr<Reshape<T>> to_xpencil_, from_xpencil_;
  // The complex stages on the reduced grid. Forward: x-pencils -> y-pencils
  // (FFTs in y) -> z-pencils (z) -> bricks; backward the reverse.
  std::vector<detail::Stage<T>> fwd_, bwd_;

  std::unique_ptr<FftR2c<T>> r2c_;
  detail::LinePlans<T> fft_;  // y and z plans; x is r2c_.
  // Per-shard r2c/c2r workspaces: like the 1-D plans, r2c_ is read-only at
  // transform time, so one workspace per shard is the whole
  // synchronization story.
  std::vector<typename FftR2c<T>::Workspace> r2c_ws_;

  std::vector<T> real_work_;
  std::vector<std::complex<T>> work_a_, work_b_;
};

extern template class Fft3dR2c<float>;
extern template class Fft3dR2c<double>;

}  // namespace lossyfft
