#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <memory>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft1d.hpp"

namespace lossyfft {
namespace {

using C = std::complex<double>;

double rel_err(const std::vector<C>& a, const std::vector<C>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(a[i] - b[i]);
    den += std::norm(b[i]);
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

std::vector<C> random_signal(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<C> x(n);
  fill_uniform_complex(rng, x);
  return x;
}

TEST(FftUtil, SmoothnessCheck) {
  EXPECT_TRUE(is_smooth_7(1));
  EXPECT_TRUE(is_smooth_7(8));
  EXPECT_TRUE(is_smooth_7(360));   // 2^3*3^2*5.
  EXPECT_TRUE(is_smooth_7(2401));  // 7^4.
  EXPECT_FALSE(is_smooth_7(11));
  EXPECT_FALSE(is_smooth_7(0));
  EXPECT_FALSE(is_smooth_7(2 * 13));
}

TEST(FftUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft1d, SizeOneIsIdentity) {
  Fft1d<double> plan(1);
  std::vector<C> x = {{3.0, -4.0}};
  plan.transform(x.data(), FftDirection::kForward);
  EXPECT_EQ(x[0], C(3.0, -4.0));
}

TEST(Fft1d, KnownDftOfImpulse) {
  Fft1d<double> plan(8);
  std::vector<C> x(8, C{});
  x[0] = 1.0;
  plan.transform(x.data(), FftDirection::kForward);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-14);
    EXPECT_NEAR(v.imag(), 0.0, 1e-14);
  }
}

TEST(Fft1d, KnownDftOfSingleTone) {
  const std::size_t n = 16;
  Fft1d<double> plan(n);
  std::vector<C> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = 2.0 * M_PI * 3.0 * static_cast<double>(j) / n;
    x[j] = {std::cos(ang), std::sin(ang)};  // e^{+2pi i 3 j / n}.
  }
  plan.transform(x.data(), FftDirection::kForward);
  for (std::size_t k = 0; k < n; ++k) {
    const double want = k == 3 ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(x[k].real(), want, 1e-12) << k;
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-12) << k;
  }
}

TEST(Fft1d, LinearityHolds) {
  const std::size_t n = 60;
  Fft1d<double> plan(n);
  auto x = random_signal(n, 1), y = random_signal(n, 2);
  std::vector<C> lhs(n), fx = x, fy = y;
  const C alpha(0.7, -0.3), beta(-1.1, 0.2);
  for (std::size_t i = 0; i < n; ++i) lhs[i] = alpha * x[i] + beta * y[i];
  plan.transform(lhs.data(), FftDirection::kForward);
  plan.transform(fx.data(), FftDirection::kForward);
  plan.transform(fy.data(), FftDirection::kForward);
  std::vector<C> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = alpha * fx[i] + beta * fy[i];
  EXPECT_LT(rel_err(lhs, rhs), 1e-13);
}

TEST(Fft1d, ParsevalEnergyConserved) {
  const std::size_t n = 120;
  Fft1d<double> plan(n);
  auto x = random_signal(n, 3);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  plan.transform(x.data(), FftDirection::kForward);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-12 * time_energy);
}

// Property sweep: FFT must match the naive DFT for every size, including
// primes (Bluestein), prime powers, and mixed products.
class FftSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeSweep, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Fft1d<double> plan(n);
  auto x = random_signal(n, 100 + n);
  const auto want = naive_dft(x, FftDirection::kForward);
  plan.transform(x.data(), FftDirection::kForward);
  EXPECT_LT(rel_err(x, want), 1e-11) << "n=" << n;
}

TEST_P(FftSizeSweep, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Fft1d<double> plan(n);
  const auto orig = random_signal(n, 200 + n);
  auto x = orig;
  plan.transform(x.data(), FftDirection::kForward);
  plan.transform(x.data(), FftDirection::kInverse);
  EXPECT_LT(rel_err(x, orig), 1e-12) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, FftSizeSweep,
    ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15,
                                   16, 18, 20, 21, 25, 27, 32, 35, 36, 48, 49,
                                   60, 64, 81, 100, 105, 125, 128, 210, 243,
                                   256, 343, 512,
                                   // Primes and prime-tainted sizes: Bluestein.
                                   11, 13, 17, 19, 23, 29, 31, 37, 41, 53, 59,
                                   61, 67, 71, 73, 79, 83, 89, 97, 101, 127,
                                   131, 251, 257, 22, 26, 33, 39, 55, 121, 169,
                                   143, 187));

TEST(Fft1d, LargeSmoothSizeAccuracy) {
  const std::size_t n = 3 * 5 * 7 * 16;  // 1680.
  Fft1d<double> plan(n);
  const auto orig = random_signal(n, 77);
  auto x = orig;
  plan.transform(x.data(), FftDirection::kForward);
  plan.transform(x.data(), FftDirection::kInverse);
  EXPECT_LT(rel_err(x, orig), 1e-13);
}

TEST(Fft1d, FloatPrecisionRoundTrip) {
  const std::size_t n = 192;
  Fft1d<float> plan(n);
  Xoshiro256 rng(5);
  std::vector<std::complex<float>> x(n), orig(n);
  for (auto& v : x) {
    v = {static_cast<float>(rng.uniform(-1, 1)),
         static_cast<float>(rng.uniform(-1, 1))};
  }
  orig = x;
  plan.transform(x.data(), FftDirection::kForward);
  plan.transform(x.data(), FftDirection::kInverse);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += std::norm(std::complex<double>(x[i]) - std::complex<double>(orig[i]));
    den += std::norm(std::complex<double>(orig[i]));
  }
  const double err = std::sqrt(num / den);
  // Single precision: expect ~1e-7 scale error, far above double's.
  EXPECT_LT(err, 1e-5);
  EXPECT_GT(err, 1e-9);
}

TEST(Fft1d, StridedTransformEqualsContiguous) {
  const std::size_t n = 48, stride = 5;
  Fft1d<double> plan(n);
  auto reference = random_signal(n, 9);
  std::vector<C> strided(n * stride, C(99.0, 99.0));
  for (std::size_t i = 0; i < n; ++i) strided[i * stride] = reference[i];

  plan.transform(reference.data(), FftDirection::kForward);
  plan.transform_strided(strided.data(), static_cast<std::ptrdiff_t>(stride),
                         1, 0, FftDirection::kForward);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(strided[i * stride] - reference[i]), 1e-12);
  }
  // Untouched gaps stay untouched.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t g = 1; g < stride; ++g) {
      EXPECT_EQ(strided[i * stride + g], C(99.0, 99.0));
    }
  }
}

TEST(Fft1d, BatchedTransformMatchesLoop) {
  const std::size_t n = 36, batch = 7;
  Fft1d<double> plan(n);
  auto data = random_signal(n * batch, 10);
  auto expect = data;
  for (std::size_t b = 0; b < batch; ++b) {
    plan.transform(expect.data() + b * n, FftDirection::kForward);
  }
  plan.transform_strided(data.data(), 1, batch,
                         static_cast<std::ptrdiff_t>(n),
                         FftDirection::kForward);
  EXPECT_LT(rel_err(data, expect), 1e-14);
}

TEST(Fft1d, NaiveDftInverseAgrees) {
  const std::size_t n = 24;
  const auto x = random_signal(n, 12);
  const auto f = naive_dft(x, FftDirection::kForward);
  const auto back = naive_dft(f, FftDirection::kInverse);
  EXPECT_LT(rel_err(back, x), 1e-12);
}

// ------------------------------------------------------------- oracle
// The std::complex kernel Fft1d ran before its lane-generic rewrite, kept
// here unchanged as the test oracle: the one-lane path must reproduce it
// bit for bit (and every lane width must reproduce the one-lane path).
template <typename T>
class ComplexFft {
 public:
  using Complex = std::complex<T>;

  explicit ComplexFft(std::size_t size) : n(size) {
    if (is_smooth_7(n)) {
      std::size_t rest = n;
      for (std::size_t p : {7, 5, 3, 2}) {
        while (rest % p == 0) {
          factors.push_back(p);
          rest /= p;
        }
      }
      twiddle.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        const double ang = -2.0 * M_PI * static_cast<double>(k) /
                           static_cast<double>(n);
        twiddle[k] = Complex(static_cast<T>(std::cos(ang)),
                             static_cast<T>(std::sin(ang)));
      }
      scratch.resize(n);
      return;
    }
    use_bluestein = true;
    m = next_pow2(2 * n - 1);
    inner = std::make_unique<ComplexFft<T>>(m);
    chirp.resize(n);
    std::vector<Complex> b(m, Complex{});
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t k2 = (k * k) % (2 * n);
      const double ang = M_PI * static_cast<double>(k2) /
                         static_cast<double>(n);
      chirp[k] = Complex(static_cast<T>(std::cos(ang)),
                         static_cast<T>(-std::sin(ang)));
      const Complex c = std::conj(chirp[k]);
      b[k] = c;
      if (k != 0) b[m - k] = c;
    }
    inner->run(b.data(), FftDirection::kForward);
    chirp_fft = std::move(b);
    work.resize(m);
  }

  void run(Complex* data, FftDirection dir) {
    if (dir == FftDirection::kForward) {
      forward_contiguous(data);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) data[i] = std::conj(data[i]);
    forward_contiguous(data);
    const T inv_n = T(1) / static_cast<T>(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = std::conj(data[i]) * inv_n;
  }

 private:
  void dit(std::size_t sub_n, const Complex* in, std::size_t stride,
           Complex* out, std::size_t mult, std::size_t depth) const {
    if (sub_n == 1) {
      out[0] = in[0];
      return;
    }
    const std::size_t r = factors[depth];
    const std::size_t msub = sub_n / r;
    for (std::size_t q = 0; q < r; ++q) {
      dit(msub, in + q * stride, stride * r, out + q * msub, mult * r,
          depth + 1);
    }
    Complex t[7];
    for (std::size_t j = 0; j < msub; ++j) {
      for (std::size_t q = 0; q < r; ++q) {
        const std::size_t tw = (q * j * mult) % n;
        t[q] = out[q * msub + j] * twiddle[tw];
      }
      const std::size_t wr_step = n / r;
      for (std::size_t p = 0; p < r; ++p) {
        Complex acc = t[0];
        for (std::size_t q = 1; q < r; ++q) {
          acc += t[q] * twiddle[(q * p * wr_step) % n];
        }
        out[j + p * msub] = acc;
      }
    }
  }

  void forward_contiguous(Complex* data) {
    if (n == 1) return;
    if (use_bluestein) {
      forward_bluestein(data);
      return;
    }
    if ((n & (n - 1)) == 0) {
      forward_stockham(data);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) scratch[i] = data[i];
    dit(n, scratch.data(), 1, data, 1, 0);
  }

  void forward_stockham(Complex* data) {
    Complex* x = data;
    Complex* y = scratch.data();
    for (std::size_t l = n / 2, mm = 1; l >= 1; l >>= 1, mm <<= 1) {
      const std::size_t tw_step = n / (2 * l);
      for (std::size_t j = 0; j < l; ++j) {
        const Complex wj = twiddle[j * tw_step];
        Complex* xa = x + mm * j;
        Complex* xb = x + mm * (j + l);
        Complex* ya = y + 2 * mm * j;
        Complex* yb = ya + mm;
        for (std::size_t k = 0; k < mm; ++k) {
          const Complex a = xa[k];
          const Complex b = xb[k];
          ya[k] = a + b;
          yb[k] = wj * (a - b);
        }
      }
      std::swap(x, y);
    }
    if (x != data) {
      for (std::size_t i = 0; i < n; ++i) data[i] = x[i];
    }
  }

  void forward_bluestein(Complex* data) {
    for (std::size_t k = 0; k < n; ++k) work[k] = data[k] * chirp[k];
    for (std::size_t k = n; k < m; ++k) work[k] = Complex{};
    inner->run(work.data(), FftDirection::kForward);
    for (std::size_t k = 0; k < m; ++k) work[k] *= chirp_fft[k];
    inner->run(work.data(), FftDirection::kInverse);
    for (std::size_t k = 0; k < n; ++k) data[k] = work[k] * chirp[k];
  }

  std::size_t n;
  bool use_bluestein = false;
  std::vector<std::size_t> factors;
  std::vector<Complex> twiddle, scratch;
  std::size_t m = 0;
  std::unique_ptr<ComplexFft<T>> inner;
  std::vector<Complex> chirp, chirp_fft, work;
};

template <typename T>
std::vector<std::complex<T>> random_lines(std::size_t count,
                                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::complex<T>> x(count);
  for (auto& v : x) {
    v = {static_cast<T>(rng.uniform(-1, 1)),
         static_cast<T>(rng.uniform(-1, 1))};
  }
  return x;
}

template <typename T>
bool same_bits(const std::complex<T>* a, const std::complex<T>* b,
               std::size_t count) {
  return std::memcmp(a, b, count * sizeof(std::complex<T>)) == 0;
}

template <typename T>
void expect_one_lane_matches_oracle() {
  for (std::size_t n = 1; n <= 300; ++n) {
    Fft1d<T> plan(n);
    ComplexFft<T> ref(n);
    for (const FftDirection dir :
         {FftDirection::kForward, FftDirection::kInverse}) {
      // Random complex input, then a real one: the r2c odd path feeds
      // zero imaginary parts, where signed zeros show any reordering.
      auto a = random_lines<T>(n, 1000 + n);
      auto b = random_lines<T>(n, 2000 + n);
      for (std::size_t i = 0; i < n; ++i) b[i].imag(T(0));
      for (auto* x : {&a, &b}) {
        auto want = *x;
        ref.run(want.data(), dir);
        plan.transform(x->data(), dir);
        ASSERT_TRUE(same_bits(x->data(), want.data(), n))
            << "n=" << n << " inverse=" << (dir == FftDirection::kInverse);
      }
    }
  }
}

TEST(Fft1dOracle, OneLanePathMatchesComplexKernelBitwiseDouble) {
  expect_one_lane_matches_oracle<double>();
}

TEST(Fft1dOracle, OneLanePathMatchesComplexKernelBitwiseFloat) {
  expect_one_lane_matches_oracle<float>();
}

// Every level the host runs x {float, double} x sizes covering all three
// algorithms x both directions x both pencil layouts x batch counts that
// leave every tail length: each line must be memcmp-equal to its one-lane
// transform, and nothing outside the lines may change.
template <typename T>
void expect_lanes_match_one_lane(SimdLevel level) {
  constexpr std::size_t kMaxLanes = 32 / sizeof(T);
  constexpr std::size_t kGap = 3;
  const std::complex<T> sentinel(T(7), T(-7));
  for (const std::size_t n :
       {1, 2, 3, 8, 12, 16, 17, 27, 48, 64, 96, 127, 1000}) {
    Fft1d<T> plan(n);
    for (const FftDirection dir :
         {FftDirection::kForward, FftDirection::kInverse}) {
      for (std::size_t batch = 1; batch <= 2 * kMaxLanes + 1; ++batch) {
        for (const bool adjacent : {false, true}) {
          // Contiguous lines n + kGap apart, or adjacent lines (one apart)
          // whose elements are batch + kGap apart.
          const std::ptrdiff_t stride =
              adjacent ? static_cast<std::ptrdiff_t>(batch + kGap) : 1;
          const std::ptrdiff_t line =
              adjacent ? 1 : static_cast<std::ptrdiff_t>(n + kGap);
          const std::size_t extent =
              adjacent ? n * (batch + kGap) : batch * (n + kGap);
          std::vector<std::complex<T>> data(extent, sentinel);
          const auto src = random_lines<T>(n * batch, 31 * n + batch);
          std::vector<std::complex<T>> want = src;
          for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t e = 0; e < n; ++e) {
              data[b * line + e * stride] = src[b * n + e];
            }
            plan.transform(want.data() + b * n, dir);
          }
          auto expect = std::vector<std::complex<T>>(extent, sentinel);
          for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t e = 0; e < n; ++e) {
              expect[b * line + e * stride] = want[b * n + e];
            }
          }
          const SimdLevel prev = set_simd_level(level);
          plan.transform_strided(data.data(), stride, batch, line, dir);
          set_simd_level(prev);
          ASSERT_TRUE(same_bits(data.data(), expect.data(), extent))
              << simd_level_name(level) << " n=" << n << " batch=" << batch
              << " adjacent=" << adjacent
              << " inverse=" << (dir == FftDirection::kInverse);
        }
      }
    }
  }
}

TEST(Fft1dLanes, EveryLevelMatchesOneLanePathBitwise) {
  for (int l = 0; l <= static_cast<int>(detected_simd_level()); ++l) {
    expect_lanes_match_one_lane<double>(static_cast<SimdLevel>(l));
    expect_lanes_match_one_lane<float>(static_cast<SimdLevel>(l));
  }
}

TEST(Fft1dLanes, WorkspaceSharedAcrossLevelsStaysCorrect) {
  // A workspace sized at one level is grown, not overrun, at a wider one.
  Fft1d<double> plan(96);
  const SimdLevel prev = set_simd_level(SimdLevel::kScalar);
  auto ws = plan.make_workspace();
  set_simd_level(prev);
  auto data = random_lines<double>(96 * 9, 5);
  auto want = data;
  for (std::size_t b = 0; b < 9; ++b) {
    plan.transform(want.data() + b * 96, FftDirection::kForward);
  }
  plan.transform_strided(data.data(), 1, 9, 96, FftDirection::kForward, ws);
  EXPECT_TRUE(same_bits(data.data(), want.data(), data.size()));
}

TEST(Fft1d, RejectsZeroSize) {
  EXPECT_THROW(Fft1d<double>(0), Error);
}

TEST(Fft1d, MoveTransfersPlan) {
  Fft1d<double> a(32);
  Fft1d<double> b = std::move(a);
  auto x = random_signal(32, 3);
  const auto want = naive_dft(x, FftDirection::kForward);
  b.transform(x.data(), FftDirection::kForward);
  EXPECT_LT(rel_err(x, want), 1e-12);
}

}  // namespace
}  // namespace lossyfft
