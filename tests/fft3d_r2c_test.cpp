#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/truncate.hpp"
#include "dfft/fft3d_r2c.hpp"
#include "minimpi/runtime.hpp"

namespace lossyfft {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

double real_at(int x, int y, int z, std::uint64_t seed) {
  Xoshiro256 rng(seed + static_cast<std::uint64_t>(x) +
                 (static_cast<std::uint64_t>(y) << 20) +
                 (static_cast<std::uint64_t>(z) << 40));
  return rng.uniform(-1, 1);
}

template <typename T>
std::vector<T> local_real(const Box3& b, std::uint64_t seed) {
  std::vector<T> v(static_cast<std::size_t>(b.count()));
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z)
    for (int y = b.lo[1]; y < b.hi(1); ++y)
      for (int x = b.lo[0]; x < b.hi(0); ++x) {
        v[i++] = static_cast<T>(real_at(x, y, z, seed));
      }
  return v;
}

// Serial half-spectrum oracle over the full grid.
std::vector<std::complex<double>> oracle(std::array<int, 3> n,
                                         std::uint64_t seed) {
  const int nx = n[0], ny = n[1], nz = n[2], hx = n[0] / 2 + 1;
  std::vector<std::complex<double>> out(
      static_cast<std::size_t>(hx) * ny * nz);
  for (int kz = 0; kz < nz; ++kz)
    for (int ky = 0; ky < ny; ++ky)
      for (int kx = 0; kx < hx; ++kx) {
        std::complex<double> acc{};
        for (int z = 0; z < nz; ++z)
          for (int y = 0; y < ny; ++y)
            for (int x = 0; x < nx; ++x) {
              const double ang =
                  -2.0 * M_PI *
                  (static_cast<double>(kx) * x / nx +
                   static_cast<double>(ky) * y / ny +
                   static_cast<double>(kz) * z / nz);
              acc += real_at(x, y, z, seed) *
                     std::complex<double>(std::cos(ang), std::sin(ang));
            }
        out[static_cast<std::size_t>(kx) +
            static_cast<std::size_t>(hx) *
                (static_cast<std::size_t>(ky) +
                 static_cast<std::size_t>(ny) * kz)] = acc;
      }
  return out;
}

TEST(Fft3dR2c, MatchesOracleSingleRank) {
  run_ranks(1, [](Comm& comm) {
    const std::array<int, 3> n{6, 4, 5};
    Fft3dR2c<double> fft(comm, n);
    EXPECT_EQ(fft.spectral_grid(), (std::array<int, 3>{4, 4, 5}));
    const auto in = local_real<double>(fft.real_inbox(), 1);
    std::vector<std::complex<double>> out(fft.spectral_count());
    fft.forward(in, out);
    const auto want = oracle(n, 1);
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_LT(std::abs(out[i] - want[i]), 1e-10) << i;
    }
  });
}

TEST(Fft3dR2c, MatchesOracleDistributed) {
  const std::array<int, 3> n{8, 6, 4};
  const auto want = oracle(n, 2);
  run_ranks(4, [&](Comm& comm) {
    Fft3dR2c<double> fft(comm, n);
    const auto in = local_real<double>(fft.real_inbox(), 2);
    std::vector<std::complex<double>> out(fft.spectral_count());
    fft.forward(in, out);
    const Box3& b = fft.spectral_outbox();
    const int hx = fft.spectral_grid()[0];
    std::size_t i = 0;
    for (int z = b.lo[2]; z < b.hi(2); ++z)
      for (int y = b.lo[1]; y < b.hi(1); ++y)
        for (int x = b.lo[0]; x < b.hi(0); ++x) {
          const auto w = want[static_cast<std::size_t>(x) +
                              static_cast<std::size_t>(hx) *
                                  (static_cast<std::size_t>(y) +
                                   static_cast<std::size_t>(n[1]) * z)];
          EXPECT_LT(std::abs(out[i] - w), 1e-10);
          ++i;
        }
  });
}

struct RC {
  std::array<int, 3> n;
  int ranks;
  ExchangeBackend backend;
};

class R2cRoundTrip : public ::testing::TestWithParam<RC> {};

TEST_P(R2cRoundTrip, BackwardForwardIsIdentity) {
  const auto c = GetParam();
  run_ranks(c.ranks, [&](Comm& comm) {
    Fft3dOptions o;
    o.backend = c.backend;
    o.gpus_per_node = 3;
    Fft3dR2c<double> fft(comm, c.n, o);
    const auto in = local_real<double>(fft.real_inbox(), 3);
    std::vector<std::complex<double>> spec(fft.spectral_count());
    std::vector<double> back(fft.real_count());
    fft.forward(in, spec);
    fft.backward(spec, back);
    double sums[2] = {0, 0};
    for (std::size_t i = 0; i < in.size(); ++i) {
      sums[0] += (back[i] - in[i]) * (back[i] - in[i]);
      sums[1] += in[i] * in[i];
    }
    comm.allreduce(std::span<double>(sums, 2), minimpi::ReduceOp::kSum);
    EXPECT_LT(std::sqrt(sums[0] / sums[1]), 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, R2cRoundTrip,
    ::testing::Values(RC{{8, 8, 8}, 1, ExchangeBackend::kPairwise},
                      RC{{8, 8, 8}, 4, ExchangeBackend::kPairwise},
                      RC{{8, 8, 8}, 4, ExchangeBackend::kOsc},
                      RC{{16, 12, 10}, 6, ExchangeBackend::kOsc},
                      RC{{7, 5, 9}, 4, ExchangeBackend::kPairwise},
                      RC{{9, 6, 4}, 3, ExchangeBackend::kOsc},
                      RC{{12, 12, 12}, 8, ExchangeBackend::kPairwise}),
    [](const auto& info) {
      const auto& c = info.param;
      return std::string(to_string(c.backend)) + "_p" +
             std::to_string(c.ranks) + "_" + std::to_string(c.n[0]) + "x" +
             std::to_string(c.n[1]) + "x" + std::to_string(c.n[2]);
    });

TEST(Fft3dR2c, CompressedWireSavesRealAndSpectralBytes) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{16, 16, 16};
    Fft3dOptions o;
    o.backend = ExchangeBackend::kOsc;
    o.codec = std::make_shared<CastFp32Codec>();
    Fft3dR2c<double> fft(comm, n, o);
    const auto in = local_real<double>(fft.real_inbox(), 4);
    std::vector<std::complex<double>> spec(fft.spectral_count());
    fft.forward(in, spec);
    const auto st = fft.stats();
    EXPECT_NEAR(st.compression_ratio(), 2.0, 1e-9);

    // The half-spectrum carries ~(nx/2+1)/nx of the c2c volume; check the
    // reduced wire volume is indeed less than a c2c forward would move.
    // c2c forward: 4 reshapes x local complex volume; r2c forward: 1 real
    // + 3 reduced complex reshapes.
    const double c2c_payload = 4.0 * 16 * 16 * 16 * 16 / comm.size();
    EXPECT_LT(static_cast<double>(st.payload_bytes), c2c_payload);
  });
}

TEST(Fft3dR2c, ToleranceConstructorBoundsError) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{12, 12, 12};
    for (const double e_tol : {1e-4, 1e-8}) {
      Fft3dR2c<double> fft(comm, n, e_tol);
      const auto in = local_real<double>(fft.real_inbox(), 5);
      std::vector<std::complex<double>> spec(fft.spectral_count());
      std::vector<double> back(fft.real_count());
      fft.forward(in, spec);
      fft.backward(spec, back);
      double sums[2] = {0, 0};
      for (std::size_t i = 0; i < in.size(); ++i) {
        sums[0] += (back[i] - in[i]) * (back[i] - in[i]);
        sums[1] += in[i] * in[i];
      }
      comm.allreduce(std::span<double>(sums, 2), minimpi::ReduceOp::kSum);
      EXPECT_LT(std::sqrt(sums[0] / sums[1]), 20 * e_tol) << e_tol;
    }
  });
}

// Every scaling split: the spectra relate as the c2c ones do
// (Fft3d.ScalingOptionsRelate), and a roundtrip returns x, or N x under
// kNone.
TEST(Fft3dR2c, ScalingOptionsRelateAndRoundTrip) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{8, 6, 4};
    const double N = 192.0;
    std::vector<std::vector<std::complex<double>>> spec;
    for (const Scaling s : {Scaling::kBackward, Scaling::kForward,
                            Scaling::kSymmetric, Scaling::kNone}) {
      Fft3dOptions o;
      o.scaling = s;
      Fft3dR2c<double> fft(comm, n, o);
      const auto in = local_real<double>(fft.real_inbox(), 6);
      spec.emplace_back(fft.spectral_count());
      std::vector<double> back(fft.real_count());
      fft.forward(in, spec.back());
      fft.backward(spec.back(), back);
      const double gain = s == Scaling::kNone ? N : 1.0;
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_NEAR(back[i], gain * in[i], gain * 1e-12)
            << static_cast<int>(s);
      }
    }
    const auto &bwd = spec[0], &fwd = spec[1], &sym = spec[2], &none = spec[3];
    for (std::size_t i = 0; i < bwd.size(); ++i) {
      EXPECT_LT(std::abs(fwd[i] * N - bwd[i]), 1e-10);
      EXPECT_LT(std::abs(sym[i] * std::sqrt(N) - bwd[i]), 1e-10);
      EXPECT_EQ(none[i], bwd[i]);
    }
  });
}

TEST(Fft3dR2c, FloatVariantWorks) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    Fft3dR2c<float> fft(comm, n);
    const auto in = local_real<float>(fft.real_inbox(), 7);
    std::vector<std::complex<float>> spec(fft.spectral_count());
    std::vector<float> back(fft.real_count());
    fft.forward(in, spec);
    fft.backward(spec, back);
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_NEAR(back[i], in[i], 1e-5f);
    }
  });
}

TEST(Fft3dR2c, RejectsBadGridAndSpans) {
  run_ranks(1, [](Comm& comm) {
    EXPECT_THROW(Fft3dR2c<double>(comm, {0, 4, 4}), Error);
    Fft3dR2c<double> fft(comm, {8, 8, 8});
    std::vector<double> wrong(3);
    std::vector<std::complex<double>> spec(fft.spectral_count());
    EXPECT_THROW(fft.forward(wrong, spec), Error);
  });
}

}  // namespace
}  // namespace lossyfft
