#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/planner.hpp"
#include "compress/truncate.hpp"
#include "dfft/decomp.hpp"
#include "dfft/fft3d.hpp"
#include "minimpi/runtime.hpp"

namespace lossyfft {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

// Deterministic pseudo-random global field: every rank can evaluate any
// global index without communication.
std::complex<double> field_at(int x, int y, int z, std::uint64_t seed) {
  Xoshiro256 rng(seed + static_cast<std::uint64_t>(x) +
                 (static_cast<std::uint64_t>(y) << 20) +
                 (static_cast<std::uint64_t>(z) << 40));
  return {rng.uniform(-1, 1), rng.uniform(-1, 1)};
}

template <typename T>
std::vector<std::complex<T>> local_field(const Box3& b, std::uint64_t seed) {
  std::vector<std::complex<T>> v(static_cast<std::size_t>(b.count()));
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z)
    for (int y = b.lo[1]; y < b.hi(1); ++y)
      for (int x = b.lo[0]; x < b.hi(0); ++x) {
        const auto c = field_at(x, y, z, seed);
        v[i++] = {static_cast<T>(c.real()), static_cast<T>(c.imag())};
      }
  return v;
}

// Serial reference: naive 3-D DFT of the full grid.
std::vector<std::complex<double>> dft3_reference(std::array<int, 3> n,
                                                 std::uint64_t seed) {
  const int nx = n[0], ny = n[1], nz = n[2];
  std::vector<std::complex<double>> in(
      static_cast<std::size_t>(nx) * ny * nz);
  std::size_t i = 0;
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) in[i++] = field_at(x, y, z, seed);

  std::vector<std::complex<double>> out(in.size());
  for (int kz = 0; kz < nz; ++kz)
    for (int ky = 0; ky < ny; ++ky)
      for (int kx = 0; kx < nx; ++kx) {
        std::complex<double> acc{};
        for (int z = 0; z < nz; ++z)
          for (int y = 0; y < ny; ++y)
            for (int x = 0; x < nx; ++x) {
              const double ang =
                  -2.0 * M_PI *
                  (static_cast<double>(kx) * x / nx +
                   static_cast<double>(ky) * y / ny +
                   static_cast<double>(kz) * z / nz);
              acc += in[static_cast<std::size_t>(x) +
                        static_cast<std::size_t>(nx) *
                            (static_cast<std::size_t>(y) +
                             static_cast<std::size_t>(ny) * z)] *
                     std::complex<double>(std::cos(ang), std::sin(ang));
            }
        out[static_cast<std::size_t>(kx) +
            static_cast<std::size_t>(nx) *
                (static_cast<std::size_t>(ky) +
                 static_cast<std::size_t>(ny) * kz)] = acc;
      }
  return out;
}

TEST(Fft3d, MatchesNaive3dDftSingleRank) {
  run_ranks(1, [](Comm& comm) {
    const std::array<int, 3> n{4, 3, 5};
    Fft3d<double> fft(comm, n);
    const auto in = local_field<double>(fft.inbox(), 1);
    std::vector<std::complex<double>> out(fft.local_count());
    fft.forward(in, out);
    const auto want = dft3_reference(n, 1);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_LT(std::abs(out[i] - want[i]), 1e-10) << i;
    }
  });
}

TEST(Fft3d, MatchesNaive3dDftDistributed) {
  const std::array<int, 3> n{6, 4, 4};
  const auto want = dft3_reference(n, 2);
  run_ranks(4, [&](Comm& comm) {
    Fft3d<double> fft(comm, n);
    const auto in = local_field<double>(fft.inbox(), 2);
    std::vector<std::complex<double>> out(fft.local_count());
    fft.forward(in, out);
    // Compare this rank's brick against the global reference.
    const Box3& b = fft.outbox();
    std::size_t i = 0;
    for (int z = b.lo[2]; z < b.hi(2); ++z)
      for (int y = b.lo[1]; y < b.hi(1); ++y)
        for (int x = b.lo[0]; x < b.hi(0); ++x) {
          const auto w = want[static_cast<std::size_t>(x) +
                              static_cast<std::size_t>(n[0]) *
                                  (static_cast<std::size_t>(y) +
                                   static_cast<std::size_t>(n[1]) * z)];
          EXPECT_LT(std::abs(out[i] - w), 1e-10);
          ++i;
        }
  });
}

struct FCase {
  std::array<int, 3> n;
  int ranks;
  ExchangeBackend backend;
};

class Fft3dRoundTrip : public ::testing::TestWithParam<FCase> {};

TEST_P(Fft3dRoundTrip, BackwardForwardIsIdentity) {
  const auto c = GetParam();
  run_ranks(c.ranks, [&](Comm& comm) {
    Fft3dOptions o;
    o.backend = c.backend;
    o.gpus_per_node = 3;
    Fft3d<double> fft(comm, c.n, o);
    const auto in = local_field<double>(fft.inbox(), 3);
    std::vector<std::complex<double>> spec(fft.local_count());
    std::vector<std::complex<double>> back(fft.local_count());
    fft.forward(in, spec);
    fft.backward(spec, back);
    EXPECT_LT(rel_l2_error<double>(comm, back, in), 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Fft3dRoundTrip,
    ::testing::Values(FCase{{8, 8, 8}, 1, ExchangeBackend::kPairwise},
                      FCase{{8, 8, 8}, 2, ExchangeBackend::kPairwise},
                      FCase{{8, 8, 8}, 4, ExchangeBackend::kOsc},
                      FCase{{8, 8, 8}, 6, ExchangeBackend::kPairwise},
                      FCase{{12, 10, 6}, 6, ExchangeBackend::kPairwise},
                      FCase{{12, 10, 6}, 6, ExchangeBackend::kOsc},
                      FCase{{7, 5, 9}, 4, ExchangeBackend::kPairwise},
                      FCase{{16, 16, 16}, 8, ExchangeBackend::kOsc},
                      FCase{{11, 13, 3}, 3, ExchangeBackend::kOsc}),
    [](const auto& info) {
      const auto& c = info.param;
      return std::string(to_string(c.backend)) + "_p" +
             std::to_string(c.ranks) + "_" + std::to_string(c.n[0]) + "x" +
             std::to_string(c.n[1]) + "x" + std::to_string(c.n[2]);
    });

TEST(Fft3d, FloatRoundTripHasSinglePrecisionError) {
  run_ranks(4, [](Comm& comm) {
    Fft3d<float> fft(comm, {12, 12, 12});
    const auto in = local_field<float>(fft.inbox(), 4);
    std::vector<std::complex<float>> spec(fft.local_count()),
        back(fft.local_count());
    fft.forward(in, spec);
    fft.backward(spec, back);
    const double err = rel_l2_error<float>(comm, back, in);
    EXPECT_LT(err, 1e-5);
    EXPECT_GT(err, 1e-10);  // Genuinely single precision, not double.
  });
}

TEST(Fft3d, CompressedRoundTripAccuracyOrdering) {
  // The heart of Table II: FP64 exact << FP64->FP32 compressed << FP32
  // everything. Run all three on the same field and compare.
  // Needs a grid large enough that FP32's *compute* roundoff (which grows
  // with transform size) dominates the mixed run's cast-only noise — the
  // regime the paper's 1024^3 experiments live in.
  run_ranks(6, [](Comm& comm) {
    const std::array<int, 3> n{64, 64, 64};

    Fft3d<double> exact(comm, n);
    Fft3dOptions mixed_o;
    mixed_o.backend = ExchangeBackend::kOsc;
    mixed_o.codec = std::make_shared<CastFp32Codec>();
    Fft3d<double> mixed(comm, n, mixed_o);
    Fft3d<float> fp32(comm, n);

    const auto in64 = local_field<double>(exact.inbox(), 5);
    const auto in32 = local_field<float>(fp32.inbox(), 5);

    std::vector<std::complex<double>> spec(exact.local_count()),
        back(exact.local_count());
    exact.forward(in64, spec);
    exact.backward(spec, back);
    const double err_exact = rel_l2_error<double>(comm, back, in64);

    mixed.forward(in64, spec);
    mixed.backward(spec, back);
    const double err_mixed = rel_l2_error<double>(comm, back, in64);

    std::vector<std::complex<float>> spec32(fp32.local_count()),
        back32(fp32.local_count());
    fp32.forward(in32, spec32);
    fp32.backward(spec32, back32);
    const double err_fp32 = rel_l2_error<float>(comm, back32, in32);

    EXPECT_LT(err_exact, 1e-14);
    EXPECT_LT(err_mixed, err_fp32);        // Mixed beats pure FP32...
    EXPECT_GT(err_mixed, err_exact * 10);  // ...but is not exact.
    // Paper's headline: about an order of magnitude between them.
    EXPECT_LT(err_mixed * 3, err_fp32);
  });
}

TEST(Fft3d, ToleranceConstructorMeetsRequestedAccuracy) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    for (const double e_tol : {1e-3, 1e-6, 1e-10}) {
      Fft3d<double> fft(comm, n, e_tol);
      const auto in = local_field<double>(fft.inbox(), 6);
      std::vector<std::complex<double>> spec(fft.local_count()),
          back(fft.local_count());
      fft.forward(in, spec);
      fft.backward(spec, back);
      // Two lossy transforms; allow a small constant factor.
      EXPECT_LT(rel_l2_error<double>(comm, back, in), 20 * e_tol) << e_tol;
    }
  });
}

TEST(Fft3d, CompressionReducesWireVolume) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    Fft3dOptions o;
    o.backend = ExchangeBackend::kOsc;
    o.codec = std::make_shared<CastFp16Codec>();
    Fft3d<double> fft(comm, n, o);
    const auto in = local_field<double>(fft.inbox(), 7);
    std::vector<std::complex<double>> out(fft.local_count());
    fft.forward(in, out);
    const auto st = fft.stats();
    EXPECT_NEAR(st.compression_ratio(), 4.0, 1e-9);
    EXPECT_GT(st.payload_bytes, 0u);
  });
}

TEST(Fft3d, LinearityAcrossRanks) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 6, 4};
    Fft3d<double> fft(comm, n);
    const auto x = local_field<double>(fft.inbox(), 8);
    const auto y = local_field<double>(fft.inbox(), 9);
    std::vector<std::complex<double>> xy(x.size()), fx(x.size()),
        fy(x.size()), fxy(x.size()), sum(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) xy[i] = x[i] + 2.0 * y[i];
    fft.forward(x, fx);
    fft.forward(y, fy);
    fft.forward(xy, fxy);
    for (std::size_t i = 0; i < x.size(); ++i) sum[i] = fx[i] + 2.0 * fy[i];
    EXPECT_LT(rel_l2_error<double>(comm, fxy, sum), 1e-13);
  });
}

TEST(Fft3d, ParsevalAcrossRanks) {
  run_ranks(6, [](Comm& comm) {
    const std::array<int, 3> n{12, 6, 6};
    Fft3d<double> fft(comm, n);
    const auto in = local_field<double>(fft.inbox(), 10);
    std::vector<std::complex<double>> out(fft.local_count());
    fft.forward(in, out);
    double sums[2] = {0, 0};
    for (const auto& v : in) sums[0] += std::norm(v);
    for (const auto& v : out) sums[1] += std::norm(v);
    comm.allreduce(std::span<double>(sums, 2), minimpi::ReduceOp::kSum);
    EXPECT_NEAR(sums[1] / static_cast<double>(fft.global_count()), sums[0],
                1e-10 * sums[0]);
  });
}

TEST(Fft3d, OscPscwSyncRoundTrips) {
  run_ranks(6, [](Comm& comm) {
    const std::array<int, 3> n{12, 10, 6};
    Fft3dOptions o;
    o.backend = ExchangeBackend::kOsc;
    o.osc_sync = osc::OscSync::kPscw;
    o.gpus_per_node = 3;
    o.codec = std::make_shared<CastFp32Codec>();
    Fft3d<double> fft(comm, n, o);
    const auto in = local_field<double>(fft.inbox(), 36);
    std::vector<std::complex<double>> spec(fft.local_count()),
        back(fft.local_count());
    fft.forward(in, spec);
    fft.backward(spec, back);
    EXPECT_LT(rel_l2_error<double>(comm, back, in), 1e-6);
  });
}

TEST(Fft3d, SlabAlgorithmMatchesPencil) {
  const std::array<int, 3> n{8, 6, 8};
  const auto want = dft3_reference(n, 33);
  for (const int p : {1, 2, 4}) {
    run_ranks(p, [&](Comm& comm) {
      Fft3dOptions o;
      o.algorithm = FftAlgorithm::kSlab;
      Fft3d<double> fft(comm, n, o);
      const auto in = local_field<double>(fft.inbox(), 33);
      std::vector<std::complex<double>> out(fft.local_count());
      fft.forward(in, out);
      const Box3& b = fft.outbox();
      std::size_t i = 0;
      for (int z = b.lo[2]; z < b.hi(2); ++z)
        for (int y = b.lo[1]; y < b.hi(1); ++y)
          for (int x = b.lo[0]; x < b.hi(0); ++x) {
            const auto w = want[static_cast<std::size_t>(x) +
                                static_cast<std::size_t>(n[0]) *
                                    (static_cast<std::size_t>(y) +
                                     static_cast<std::size_t>(n[1]) * z)];
            EXPECT_LT(std::abs(out[i] - w), 1e-10) << "p=" << p;
            ++i;
          }
    });
  }
}

TEST(Fft3d, SlabRoundTripWithCompression) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{12, 8, 8};
    Fft3dOptions o;
    o.algorithm = FftAlgorithm::kSlab;
    o.backend = ExchangeBackend::kOsc;
    o.codec = std::make_shared<CastFp32Codec>();
    Fft3d<double> fft(comm, n, o);
    const auto in = local_field<double>(fft.inbox(), 34);
    std::vector<std::complex<double>> spec(fft.local_count()),
        back(fft.local_count());
    fft.forward(in, spec);
    fft.backward(spec, back);
    EXPECT_LT(rel_l2_error<double>(comm, back, in), 1e-6);
    EXPECT_NEAR(fft.stats().compression_ratio(), 2.0, 1e-9);
  });
}

// Bytes this rank sends off-rank in the reshape all_in -> all_out: its
// inbox minus the self-block it keeps, 16 bytes per complex<double>.
std::uint64_t off_rank_bytes(const std::vector<Box3>& all_in,
                             const std::vector<Box3>& all_out, int rank) {
  const Box3& in = all_in[static_cast<std::size_t>(rank)];
  const Box3& out = all_out[static_cast<std::size_t>(rank)];
  return 16 * static_cast<std::uint64_t>(in.count() -
                                         Box3::intersect(in, out).count());
}

TEST(Fft3d, PayloadIsOffRankOverlapVolume) {
  // Each pipeline's payload is exactly the off-rank overlap volume of its
  // reshapes, computed here from the same box lists the planner derives:
  // self-blocks never reach the wire, on the raw path or a codec path.
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    const int p = comm.size();
    const int me = comm.rank();
    const auto bricks = split_brick(n, proc_grid3_for(p, n));
    const auto zs = split_brick(n, {1, 1, p});
    const auto xs = split_brick(n, {p, 1, 1});
    const auto xp = split_pencil(n, 0, proc_grid2_for(p, n[1], n[2]));
    const auto yp = split_pencil(n, 1, proc_grid2_for(p, n[0], n[2]));
    const auto zp = split_pencil(n, 2, proc_grid2_for(p, n[0], n[1]));
    const std::uint64_t slab_want = off_rank_bytes(bricks, zs, me) +
                                    off_rank_bytes(zs, xs, me) +
                                    off_rank_bytes(xs, bricks, me);
    const std::uint64_t pencil_want =
        off_rank_bytes(bricks, xp, me) + off_rank_bytes(xp, yp, me) +
        off_rank_bytes(yp, zp, me) + off_rank_bytes(zp, bricks, me);
    EXPECT_GT(slab_want, 0u);
    EXPECT_GT(pencil_want, 0u);
    Fft3dOptions fp32;
    fp32.backend = ExchangeBackend::kOsc;
    fp32.codec = std::make_shared<CastFp32Codec>();
    for (const Fft3dOptions& base : {Fft3dOptions{}, fp32}) {
      Fft3dOptions slab_o = base;
      slab_o.algorithm = FftAlgorithm::kSlab;
      Fft3d<double> slab(comm, n, slab_o);
      Fft3d<double> pencil(comm, n, base);
      const auto in = local_field<double>(slab.inbox(), 35);
      std::vector<std::complex<double>> out(slab.local_count());
      slab.forward(in, out);
      pencil.forward(in, out);
      EXPECT_EQ(slab.stats().payload_bytes, slab_want);
      EXPECT_EQ(pencil.stats().payload_bytes, pencil_want);
      const std::uint64_t rate = base.codec ? 2 : 1;
      EXPECT_EQ(slab.stats().wire_bytes, slab_want / rate);
      EXPECT_EQ(pencil.stats().wire_bytes, pencil_want / rate);
    }
  });
}

TEST(Fft3d, SingleRankLossyCodecIsExact) {
  // On one rank every reshape is self-only: nothing crosses the wire, so a
  // lossy codec never runs and the transform is bitwise the exact-wire one.
  run_ranks(1, [](Comm& comm) {
    const std::array<int, 3> n{12, 8, 6};
    Fft3dOptions exact;
    exact.backend = ExchangeBackend::kOsc;
    Fft3dOptions lossy = exact;
    lossy.codec = std::make_shared<BitTrimCodec>(12);
    Fft3dOptions two_sided;
    two_sided.codec = std::make_shared<CastFp16Codec>();
    Fft3d<double> ref(comm, n, exact);
    const auto in = local_field<double>(ref.inbox(), 36);
    const auto count = ref.local_count();
    std::vector<std::complex<double>> ref_spec(count), ref_back(count);
    ref.forward(in, ref_spec);
    ref.backward(ref_spec, ref_back);
    for (const Fft3dOptions& o : {lossy, two_sided}) {
      Fft3d<double> fft(comm, n, o);
      std::vector<std::complex<double>> spec(count), back(count);
      fft.forward(in, spec);
      fft.backward(spec, back);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(std::memcmp(&spec[i], &ref_spec[i], sizeof(spec[i])), 0)
            << o.codec->name() << " spectrum i=" << i;
        ASSERT_EQ(std::memcmp(&back[i], &ref_back[i], sizeof(back[i])), 0)
            << o.codec->name() << " roundtrip i=" << i;
      }
      const auto st = fft.stats();
      EXPECT_EQ(st.wire_bytes, 0u);
      EXPECT_EQ(st.payload_bytes, 0u);
      EXPECT_EQ(st.messages, 0);
    }
  });
}

TEST(Fft3d, UserBoxesPencilInBrickOut) {
  // heFFTe-style custom boxes: the caller already holds z-pencils and
  // wants the spectrum back in bricks.
  const std::array<int, 3> n{8, 6, 4};
  const auto want = dft3_reference(n, 30);
  run_ranks(4, [&](Comm& comm) {
    const auto zp = split_pencil(n, 2, 4);
    const auto bricks = split_brick(n, proc_grid3(4));
    const Box3 inbox = zp[static_cast<std::size_t>(comm.rank())];
    const Box3 outbox = bricks[static_cast<std::size_t>(comm.rank())];
    Fft3d<double> fft(comm, n, inbox, outbox);
    EXPECT_EQ(fft.inbox(), inbox);
    EXPECT_EQ(fft.outbox(), outbox);

    const auto in = local_field<double>(inbox, 30);
    std::vector<std::complex<double>> out(fft.output_count());
    fft.forward(in, out);
    std::size_t i = 0;
    for (int z = outbox.lo[2]; z < outbox.hi(2); ++z)
      for (int y = outbox.lo[1]; y < outbox.hi(1); ++y)
        for (int x = outbox.lo[0]; x < outbox.hi(0); ++x) {
          const auto w = want[static_cast<std::size_t>(x) +
                              static_cast<std::size_t>(n[0]) *
                                  (static_cast<std::size_t>(y) +
                                   static_cast<std::size_t>(n[1]) * z)];
          EXPECT_LT(std::abs(out[i] - w), 1e-10);
          ++i;
        }
  });
}

TEST(Fft3d, UserBoxesRoundTripWithDifferentInOut) {
  run_ranks(6, [](Comm& comm) {
    const std::array<int, 3> n{12, 6, 6};
    const auto xp = split_pencil(n, 0, 6);
    const auto yp = split_pencil(n, 1, 6);
    const Box3 inbox = xp[static_cast<std::size_t>(comm.rank())];
    const Box3 outbox = yp[static_cast<std::size_t>(comm.rank())];
    Fft3d<double> fwd(comm, n, inbox, outbox);
    Fft3d<double> bwd(comm, n, outbox, inbox);
    const auto in = local_field<double>(inbox, 31);
    std::vector<std::complex<double>> spec(fwd.output_count());
    std::vector<std::complex<double>> back(in.size());
    fwd.forward(in, spec);
    bwd.backward(spec, back);
    EXPECT_LT(rel_l2_error<double>(comm, back, in), 1e-12);
  });
}

TEST(Fft3d, UserBoxesMustTile) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{4, 4, 4};
    // Both ranks claim the same half: the grid is not tiled.
    const Box3 bad{{0, 0, 0}, {4, 4, 2}};
    EXPECT_THROW(Fft3d<double>(comm, n, bad, bad), Error);
    comm.barrier();
  });
}

TEST(Fft3d, BackwardBatchTakesInboxImagesLikeBackward) {
  // backward runs the forward pipeline, inbox to outbox, and so does its
  // batch entry point where a rank's two box counts differ.
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{4, 4, 4};
    const bool r0 = comm.rank() == 0;
    const Box3 thin{{0, 0, r0 ? 0 : 1}, {4, 4, r0 ? 1 : 3}};
    const Box3 thick{{0, 0, r0 ? 0 : 3}, {4, 4, r0 ? 3 : 1}};
    Fft3dOptions o;
    o.batch_fields = 2;
    Fft3d<double> fwd(comm, n, thin, thick, o);
    Fft3d<double> bwd(comm, n, thick, thin, o);
    auto in = local_field<double>(thin, 50);
    const auto second = local_field<double>(thin, 51);
    in.insert(in.end(), second.begin(), second.end());
    std::vector<std::complex<double>> spec(2 * fwd.output_count()),
        back(in.size());
    fwd.forward_batch(in, spec, 2);
    bwd.backward_batch(spec, back, 2);
    EXPECT_LT(rel_l2_error<double>(comm, back, in), 1e-12);
  });
}

TEST(Fft3d, ScalingOptionsRelate) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    const double N = 512.0;
    const auto in = local_field<double>(
        Fft3d<double>(comm, n).inbox(), 20);

    const auto spectrum_with = [&](Scaling s) {
      Fft3dOptions o;
      o.scaling = s;
      Fft3d<double> fft(comm, n, o);
      std::vector<std::complex<double>> out(fft.local_count());
      fft.forward(in, out);
      return out;
    };
    const auto bwd = spectrum_with(Scaling::kBackward);
    const auto fwd = spectrum_with(Scaling::kForward);
    const auto sym = spectrum_with(Scaling::kSymmetric);
    for (std::size_t i = 0; i < bwd.size(); ++i) {
      EXPECT_LT(std::abs(fwd[i] * N - bwd[i]), 1e-10);
      EXPECT_LT(std::abs(sym[i] * std::sqrt(N) - bwd[i]), 1e-10);
    }
  });
}

TEST(Fft3d, SymmetricScalingIsUnitaryRoundTrip) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 6, 10};
    Fft3dOptions o;
    o.scaling = Scaling::kSymmetric;
    Fft3d<double> fft(comm, n, o);
    const auto in = local_field<double>(fft.inbox(), 21);
    std::vector<std::complex<double>> spec(fft.local_count()),
        back(fft.local_count());
    fft.forward(in, spec);
    fft.backward(spec, back);
    EXPECT_LT(rel_l2_error<double>(comm, back, in), 1e-12);
    // Unitary: energy matches without any 1/N weight.
    double sums[2] = {0, 0};
    for (const auto& v : in) sums[0] += std::norm(v);
    for (const auto& v : spec) sums[1] += std::norm(v);
    comm.allreduce(std::span<double>(sums, 2), minimpi::ReduceOp::kSum);
    EXPECT_NEAR(sums[1], sums[0], 1e-10 * sums[0]);
  });
}

TEST(Fft3d, NoneScalingAccumulatesN) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{4, 4, 4};
    Fft3dOptions o;
    o.scaling = Scaling::kNone;
    Fft3d<double> fft(comm, n, o);
    const auto in = local_field<double>(fft.inbox(), 22);
    std::vector<std::complex<double>> spec(fft.local_count()),
        back(fft.local_count());
    fft.forward(in, spec);
    fft.backward(spec, back);
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_LT(std::abs(back[i] - 64.0 * in[i]), 1e-10);
    }
  });
}

// Batched epochs of both pipeline shapes: capacity 1 runs field by field,
// 3 holds the whole batch and 2 leaves a partial last chunk. Every field's
// bits match its own per-field transform in both directions.
class Fft3dBatch
    : public ::testing::TestWithParam<std::tuple<FftAlgorithm, int>> {};

TEST_P(Fft3dBatch, BatchTransformsMatchPerFieldTransforms) {
  const auto [algorithm, capacity] = GetParam();
  run_ranks(4, [&](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    const int fields = 3;  // A velocity vector.
    Fft3dOptions o;
    o.backend = ExchangeBackend::kOsc;
    o.algorithm = algorithm;
    o.batch_fields = capacity;
    Fft3d<double> fft(comm, n, o);
    const std::size_t c = fft.local_count();
    std::vector<std::complex<double>> in(fields * c), batch(fields * c),
        back(fields * c), single(fields * c), single_back(fields * c);
    for (int f = 0; f < fields; ++f) {
      const auto field = local_field<double>(
          fft.inbox(), 40 + static_cast<std::uint64_t>(f));
      std::copy(field.begin(), field.end(),
                in.begin() + static_cast<std::ptrdiff_t>(f) *
                                 static_cast<std::ptrdiff_t>(c));
    }
    fft.forward_batch(in, batch, fields);
    fft.backward_batch(batch, back, fields);
    for (int f = 0; f < fields; ++f) {
      const auto bank = [&](std::vector<std::complex<double>>& v) {
        return std::span<std::complex<double>>(v).subspan(
            static_cast<std::size_t>(f) * c, c);
      };
      fft.forward(bank(in), bank(single));
      fft.backward(bank(batch), bank(single_back));
    }
    const std::size_t bytes = batch.size() * sizeof(std::complex<double>);
    EXPECT_EQ(std::memcmp(batch.data(), single.data(), bytes), 0);
    EXPECT_EQ(std::memcmp(back.data(), single_back.data(), bytes), 0);
    EXPECT_LT(rel_l2_error<double>(comm, back, in), 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Fft3dBatch,
    ::testing::Combine(::testing::Values(FftAlgorithm::kPencil,
                                         FftAlgorithm::kSlab),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == FftAlgorithm::kSlab
                             ? "Slab"
                             : "Pencil") +
             "_cap" + std::to_string(std::get<1>(info.param));
    });

TEST(Fft3d, BatchRejectsBadSizes) {
  run_ranks(1, [](Comm& comm) {
    Fft3d<double> fft(comm, {4, 4, 4});
    std::vector<std::complex<double>> wrong(fft.local_count());
    std::vector<std::complex<double>> out(2 * fft.local_count());
    EXPECT_THROW(fft.forward_batch(wrong, out, 2), Error);
    EXPECT_THROW(fft.forward_batch(out, out, 0), Error);
  });
}

TEST(Fft3d, ModelFlopsFormula) {
  run_ranks(1, [](Comm& comm) {
    Fft3d<double> fft(comm, {8, 8, 8});
    EXPECT_DOUBLE_EQ(fft.model_flops(), 5.0 * 512 * 9.0);
  });
}

TEST(Fft3d, RejectsBadGrid) {
  run_ranks(1, [](Comm& comm) {
    EXPECT_THROW(Fft3d<double>(comm, {0, 4, 4}), Error);
  });
}

}  // namespace
}  // namespace lossyfft
