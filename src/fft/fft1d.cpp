#include "fft/fft1d.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "fft/fft1d_lanes.hpp"

namespace lossyfft {

bool is_smooth_7(std::size_t n) {
  if (n == 0) return false;
  for (std::size_t p : {std::size_t{2}, std::size_t{3}, std::size_t{5},
                        std::size_t{7}}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

// Factor a 7-smooth n into radices, largest first (slightly fewer twiddle
// multiplies than smallest-first and keeps recursion depth low).
std::vector<std::size_t> factorize_smooth(std::size_t n) {
  std::vector<std::size_t> factors;
  for (std::size_t p : {std::size_t{7}, std::size_t{5}, std::size_t{3},
                        std::size_t{2}}) {
    while (n % p == 0) {
      factors.push_back(p);
      n /= p;
    }
  }
  LFFT_ASSERT(n == 1);
  return factors;
}

}  // namespace

namespace fft_lanes {

LaneBatch<float> scalar_lanes_f32() { return {1, &run_batch<float, float, 1>}; }
LaneBatch<double> scalar_lanes_f64() {
  return {1, &run_batch<double, double, 1>};
}

}  // namespace fft_lanes

namespace {

template <typename T>
fft_lanes::LaneBatch<T> scalar_lanes() {
  if constexpr (std::is_same_v<T, float>) {
    return fft_lanes::scalar_lanes_f32();
  } else {
    return fft_lanes::scalar_lanes_f64();
  }
}

// One slot per SimdLevel, re-read on every call so set_simd_level() takes
// effect immediately (as for the codec tables in compress/simd.cpp). The
// avx512 slot reuses the AVX2 tile: 4 doubles / 8 floats per vector.
template <typename T>
const fft_lanes::LaneBatch<T>& active_lanes() {
  static const std::array<fft_lanes::LaneBatch<T>, 3> table = [] {
    fft_lanes::LaneBatch<T> avx2;
    if constexpr (std::is_same_v<T, float>) {
      avx2 = fft_lanes::avx2_lanes_f32();
    } else {
      avx2 = fft_lanes::avx2_lanes_f64();
    }
    return std::array{scalar_lanes<T>(), avx2, avx2};
  }();
  return table[static_cast<std::size_t>(simd_level())];
}

}  // namespace

template <typename T>
struct Fft1d<T>::Impl {
  using Complex = std::complex<T>;
  using Workspace = typename Fft1d<T>::Workspace;

  // Tables the view points into; immutable after construction.
  std::vector<std::size_t> factors;
  std::vector<Complex> twiddle;     // w[k] = exp(-2*pi*i*k/n), k in [0, n).
  std::unique_ptr<Fft1d<T>> inner;  // Bluestein: size-m smooth plan.
  std::vector<Complex> chirp;       // a_k = exp(-i*pi*k^2/n), k in [0, n).
  std::vector<Complex> chirp_fft;   // FFT of the zero-padded conj chirp.
  fft_lanes::PlanView<T> view;

  // Workspace for the non-workspace entry points; everything above is
  // immutable after construction, so this is the only per-plan mutable
  // state (and why those entry points are not thread-safe).
  mutable Workspace own_ws;

  explicit Impl(std::size_t n) {
    LFFT_REQUIRE(n >= 1, "FFT size must be >= 1");
    view.n = n;
    if (n == 1) {
      view.algo = fft_lanes::Algo::kTrivial;
    } else if (is_smooth_7(n)) {
      init_smooth();
    } else {
      init_bluestein();
    }
    ensure(own_ws, active_lanes<T>().lanes);
  }

  static const T* parts(const std::vector<Complex>& v) {
    return reinterpret_cast<const T*>(v.data());
  }

  void init_smooth() {
    const std::size_t n = view.n;
    factors = factorize_smooth(n);
    twiddle.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double ang = -2.0 * M_PI * static_cast<double>(k) /
                         static_cast<double>(n);
      twiddle[k] = Complex(static_cast<T>(std::cos(ang)),
                           static_cast<T>(std::sin(ang)));
    }
    view.algo = (n & (n - 1)) == 0 ? fft_lanes::Algo::kStockham
                                   : fft_lanes::Algo::kDit;
    view.factors = factors.data();
    view.twiddle = parts(twiddle);
    view.scratch = n;
  }

  void init_bluestein() {
    const std::size_t n = view.n;
    const std::size_t m = next_pow2(2 * n - 1);
    inner = std::make_unique<Fft1d<T>>(m);
    chirp.resize(n);
    std::vector<Complex> b(m, Complex{});
    for (std::size_t k = 0; k < n; ++k) {
      // Angle pi*k^2/n, with k^2 reduced mod 2n to keep the argument small
      // (k^2 overflows precision long before it overflows uint64 here).
      const std::size_t k2 = (k * k) % (2 * n);
      const double ang = M_PI * static_cast<double>(k2) /
                         static_cast<double>(n);
      chirp[k] = Complex(static_cast<T>(std::cos(ang)),
                         static_cast<T>(-std::sin(ang)));
      const Complex c = std::conj(chirp[k]);
      b[k] = c;
      if (k != 0) b[m - k] = c;  // Circular symmetry of the chirp filter.
    }
    inner->transform(b.data(), FftDirection::kForward);
    // From here on the inner plan runs only through its view, on scratch
    // carved from this plan's workspace; its own buffer is dead weight.
    inner->impl_->own_ws = Workspace{};
    chirp_fft = std::move(b);
    view.algo = fft_lanes::Algo::kBluestein;
    view.m = m;
    view.inner = &inner->impl_->view;
    view.chirp = parts(chirp);
    view.chirp_fft = parts(chirp_fft);
    view.scratch = m + view.inner->scratch;  // Convolution + inner scratch.
  }

  /// Size `ws` for `lanes` lines side by side and return its
  /// 64-byte-aligned base. Idempotent and cheap once sized, so every entry
  /// point calls it; workspaces never shrink.
  T* ensure(Workspace& ws, std::size_t lanes) const {
    constexpr std::size_t kAlign = 64;
    const std::size_t need =
        2 * lanes * (view.n + view.scratch) + kAlign / sizeof(T);
    if (ws.buf.size() < need) ws.buf.resize(need);
    const auto addr = reinterpret_cast<std::uintptr_t>(ws.buf.data());
    return ws.buf.data() + (kAlign - addr % kAlign) % kAlign / sizeof(T);
  }
};

template <typename T>
Fft1d<T>::Fft1d(std::size_t n) : n_(n), impl_(std::make_unique<Impl>(n)) {}

template <typename T>
Fft1d<T>::~Fft1d() = default;

template <typename T>
Fft1d<T>::Fft1d(Fft1d&&) noexcept = default;

template <typename T>
Fft1d<T>& Fft1d<T>::operator=(Fft1d&&) noexcept = default;

template <typename T>
typename Fft1d<T>::Workspace Fft1d<T>::make_workspace() const {
  Workspace ws;
  impl_->ensure(ws, active_lanes<T>().lanes);
  return ws;
}

template <typename T>
void Fft1d<T>::transform(Complex* data, FftDirection dir) const {
  transform(data, dir, impl_->own_ws);
}

template <typename T>
void Fft1d<T>::transform(Complex* data, FftDirection dir,
                         Workspace& ws) const {
  LFFT_REQUIRE(data != nullptr, "null data");
  scalar_lanes<T>().run(impl_->view, reinterpret_cast<T*>(data), 1, 1, 0, dir,
                        impl_->ensure(ws, 1));
}

template <typename T>
void Fft1d<T>::transform_strided(Complex* data, std::ptrdiff_t stride,
                                 std::size_t batch,
                                 std::ptrdiff_t batch_stride,
                                 FftDirection dir) const {
  transform_strided(data, stride, batch, batch_stride, dir, impl_->own_ws);
}

template <typename T>
void Fft1d<T>::transform_strided(Complex* data, std::ptrdiff_t stride,
                                 std::size_t batch,
                                 std::ptrdiff_t batch_stride, FftDirection dir,
                                 Workspace& ws) const {
  LFFT_REQUIRE(data != nullptr, "null data");
  // A lone line stays on the one-lane path (in place when contiguous).
  const fft_lanes::LaneBatch<T> lanes =
      batch > 1 ? active_lanes<T>() : scalar_lanes<T>();
  lanes.run(impl_->view, reinterpret_cast<T*>(data), stride, batch,
            batch_stride, dir, impl_->ensure(ws, lanes.lanes));
}

template <typename T>
std::vector<std::complex<T>> naive_dft(const std::vector<std::complex<T>>& x,
                                       FftDirection dir) {
  const std::size_t n = x.size();
  std::vector<std::complex<T>> out(n);
  const double sign = dir == FftDirection::kForward ? -1.0 : 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * M_PI *
                         static_cast<double>((k * j) % n) /
                         static_cast<double>(n);
      acc += std::complex<double>(x[j].real(), x[j].imag()) *
             std::complex<double>(std::cos(ang), std::sin(ang));
    }
    if (dir == FftDirection::kInverse) acc /= static_cast<double>(n);
    out[k] = {static_cast<T>(acc.real()), static_cast<T>(acc.imag())};
  }
  return out;
}

template class Fft1d<float>;
template class Fft1d<double>;
template std::vector<std::complex<float>> naive_dft<float>(
    const std::vector<std::complex<float>>&, FftDirection);
template std::vector<std::complex<double>> naive_dft<double>(
    const std::vector<std::complex<double>>&, FftDirection);

}  // namespace lossyfft
