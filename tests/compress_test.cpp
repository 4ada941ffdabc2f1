#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <tuple>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "compress/bitio.hpp"
#include "compress/checksum.hpp"
#include "compress/lossless.hpp"
#include "compress/parallel_codec.hpp"
#include "compress/planner.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "softfloat/trim.hpp"

namespace lossyfft {
namespace {

std::vector<double> uniform_data(std::size_t n, std::uint64_t seed,
                                 double lo = -1.0, double hi = 1.0) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  fill_uniform(rng, v, lo, hi);
  return v;
}

std::vector<double> roundtrip(const Codec& c, std::span<const double> in) {
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  EXPECT_LE(used, wire.size());
  if (c.fixed_size()) {
    EXPECT_EQ(used, c.max_compressed_bytes(in.size()));
  }
  std::vector<double> out(in.size());
  c.decompress(std::span<const std::byte>(wire.data(), used), out);
  return out;
}

double max_abs_err(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

double max_rel_err(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (b[i] != 0.0) m = std::max(m, std::fabs(a[i] - b[i]) / std::fabs(b[i]));
  }
  return m;
}

// ------------------------------------------------------- Identity / casts

TEST(IdentityCodec, ExactRoundTrip) {
  IdentityCodec c;
  const auto in = uniform_data(1000, 1);
  EXPECT_EQ(roundtrip(c, in), in);
  EXPECT_TRUE(c.lossless());
  EXPECT_DOUBLE_EQ(c.nominal_rate(), 1.0);
}

TEST(CastFp32Codec, HalvesSizeWithSinglePrecisionError) {
  CastFp32Codec c;
  const auto in = uniform_data(777, 2);
  EXPECT_EQ(c.max_compressed_bytes(777), 777u * 4);
  const auto out = roundtrip(c, in);
  EXPECT_LE(max_rel_err(out, in), std::ldexp(1.0, -24) * (1 + 1e-9));
  EXPECT_GT(max_abs_err(out, in), 0.0);  // It is genuinely lossy.
}

TEST(CastFp16Codec, QuarterSizeWithHalfPrecisionError) {
  CastFp16Codec c;
  // Magnitudes inside FP16's normal range, where the relative-error bound
  // of casting applies (below ~6.1e-5 FP16 flushes toward subnormals).
  auto in = uniform_data(512, 3, 0.5, 1.5);
  for (std::size_t i = 0; i < in.size(); i += 2) in[i] = -in[i];
  const auto out = roundtrip(c, in);
  EXPECT_LE(max_rel_err(out, in), std::ldexp(1.0, -11) * (1 + 1e-9));
}

TEST(CastFp16Codec, PlainModeOverflowsOutOfRangeValues) {
  CastFp16Codec plain(/*scaled=*/false);
  std::vector<double> in = {1e6, -1e6, 1.0};
  const auto out = roundtrip(plain, in);
  EXPECT_TRUE(std::isinf(out[0]));  // The paper's plain truncation hazard.
}

TEST(CastFp16Codec, ScaledModeSurvivesLargeMagnitudes) {
  CastFp16Codec scaled(/*scaled=*/true);
  std::vector<double> in(300);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = 1e8 * (1.0 + static_cast<double>(i) / in.size());
  }
  const auto out = roundtrip(scaled, in);
  EXPECT_LE(max_rel_err(out, in), 2e-3);  // FP16 roundoff survives scaling.
}

TEST(CastBf16Codec, KeepsRangeLosesPrecision) {
  CastBf16Codec c;
  std::vector<double> in = {1e30, -1e-30, 0.333333333};
  const auto out = roundtrip(c, in);
  EXPECT_TRUE(std::isfinite(out[0]));
  EXPECT_NEAR(out[0] / in[0], 1.0, 1e-2);
  EXPECT_LE(max_rel_err(out, in), std::ldexp(1.0, -8) * (1 + 1e-9));
}

// -------------------------------------------------------------- BitTrim

class BitTrimSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitTrimSweep, ErrorBoundedByRetainedRoundoff) {
  const int m = GetParam();
  BitTrimCodec c(m);
  const auto in = uniform_data(401, 50 + static_cast<std::uint64_t>(m));
  const auto out = roundtrip(c, in);
  const double u = unit_roundoff_for_mantissa(m);
  EXPECT_LE(max_rel_err(out, in), u * (1 + 1e-9)) << "m=" << m;
}

TEST_P(BitTrimSweep, PackedSizeMatchesFormula) {
  const int m = GetParam();
  BitTrimCodec c(m);
  const std::size_t n = 1000;
  EXPECT_EQ(c.max_compressed_bytes(n),
            (n * static_cast<std::size_t>(12 + m) + 7) / 8);
}

INSTANTIATE_TEST_SUITE_P(MantissaBits, BitTrimSweep,
                         ::testing::Values(0, 1, 4, 8, 10, 16, 20, 23, 29, 35,
                                           44, 52));

TEST(BitTrimCodec, FullWidthIsLossless) {
  BitTrimCodec c(52);
  const auto in = uniform_data(256, 7, -1e5, 1e5);
  EXPECT_EQ(roundtrip(c, in), in);
  EXPECT_TRUE(c.lossless());
}

TEST(BitTrimCodec, MatchesTrimMantissaExactly) {
  // The wire value must be exactly trim_mantissa(x, m): BitTrim is the
  // packed transport of Fig. 2's trimming operation.
  BitTrimCodec c(9);
  const auto in = uniform_data(128, 8, -100.0, 100.0);
  const auto out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], trim_mantissa(in[i], 9)) << i;
  }
}

TEST(BitTrimCodec, HandlesNegativesZerosAndHugeValues) {
  BitTrimCodec c(12);
  std::vector<double> in = {0.0, -0.0, 1e300, -1e300, 1e-300, -5.5};
  const auto out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], trim_mantissa(in[i], 12)) << i;
  }
}

TEST(BitTrimCodec, RejectsBadBits) {
  EXPECT_THROW(BitTrimCodec(-1), Error);
  EXPECT_THROW(BitTrimCodec(53), Error);
}

// ----------------------------------------------------------------- zfpx

TEST(ZfpxLift, TransformIsExactlyInvertible) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::int64_t p[4], orig[4];
    for (auto& v : p) {
      v = static_cast<std::int64_t>(rng()) >> 8;  // Leave headroom.
    }
    std::copy(p, p + 4, orig);
    zfpx_detail::fwd_lift4(p, 1);
    zfpx_detail::inv_lift4(p, 1);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(p[i], orig[i]);
  }
}

TEST(ZfpxNegabinary, RoundTripsAllSigns) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{123456789}, std::int64_t{-987654321},
                         (std::int64_t{1} << 55), -(std::int64_t{1} << 55)}) {
    EXPECT_EQ(zfpx_detail::negabinary_to_int(zfpx_detail::int_to_negabinary(v)),
              v);
  }
}

TEST(ZfpxEmbeddedCoder, LosslessWithFullBudget) {
  Xoshiro256 rng(5);
  std::int64_t q[16], back[16];
  for (auto& v : q) {
    v = static_cast<std::int64_t>(rng.below(1u << 20)) - (1 << 19);
  }
  std::vector<std::byte> buf(16 * 64 / 8 + 64);
  zfpx_detail::encode_block_ints(q, 16, 16 * 62, buf);
  zfpx_detail::decode_block_ints(buf, 16, 16 * 62, back);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(back[i], q[i]) << i;
}

TEST(ZfpxEmbeddedCoder, TruncatedBudgetShrinksError) {
  Xoshiro256 rng(6);
  std::int64_t q[16];
  for (auto& v : q) {
    v = static_cast<std::int64_t>(rng.below(1u << 24)) - (1 << 23);
  }
  // Negabinary prefixes are not bit-for-bit monotone, but quadrupling the
  // budget must cut the error dramatically, down to exact at full budget.
  std::vector<double> errs;
  for (const int bits : {32, 128, 512, 1024}) {
    std::int64_t back[16];
    std::vector<std::byte> buf(static_cast<std::size_t>(bits) / 8 + 16);
    zfpx_detail::encode_block_ints(q, 16, bits, buf);
    zfpx_detail::decode_block_ints(buf, 16, bits, back);
    double err = 0.0;
    for (int i = 0; i < 16; ++i) {
      err += std::fabs(static_cast<double>(back[i] - q[i]));
    }
    errs.push_back(err);
  }
  EXPECT_LT(errs[1], errs[0]);
  EXPECT_LT(errs[2], errs[1] / 10.0);
  EXPECT_EQ(errs[3], 0.0);  // Full budget: lossless.
}

class ZfpxRateSweep : public ::testing::TestWithParam<int> {};

TEST_P(ZfpxRateSweep, FixedSizeAndBoundedError) {
  const int bpv = GetParam();
  Zfpx1dCodec c(bpv);
  const auto in = uniform_data(444, 60 + static_cast<std::uint64_t>(bpv));
  const auto out = roundtrip(c, in);
  // With b bits/value in a 4-block the coder keeps at least the top ~b-8
  // planes of the block; a conservative error bound follows.
  const double bound = std::ldexp(1.0, -(bpv - 10));
  EXPECT_LE(max_abs_err(out, in), std::max(bound, 1e-15)) << "bpv=" << bpv;
}

INSTANTIATE_TEST_SUITE_P(Rates, ZfpxRateSweep,
                         ::testing::Values(12, 16, 20, 24, 32, 40, 48));

TEST(Zfpx1d, HighRateIsNearLossless) {
  Zfpx1dCodec c(64);
  const auto in = uniform_data(128, 61);
  const auto out = roundtrip(c, in);
  EXPECT_LE(max_abs_err(out, in), 1e-15);
}

TEST(Zfpx1d, TailBlockHandled) {
  Zfpx1dCodec c(24);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 13u}) {
    const auto in = uniform_data(n, 70 + n);
    const auto out = roundtrip(c, in);
    EXPECT_LE(max_abs_err(out, in), 1e-4) << n;
  }
}

TEST(Zfpx3d, SmoothFieldBeatsTruncationAtEqualRate) {
  // The paper's Section IV-A claim: with spatial correlation, a zfp-style
  // codec at compression rate 4 (16 bits/value) reconstructs with smaller
  // max error than FP64->FP16 truncation (also rate 4).
  Xoshiro256 rng(8);
  const int n = 16;
  const auto field = make_smooth_field3d(rng, n, n, n, 4);

  Zfpx3d z{n, n, n, /*bits_per_value=*/16};
  std::vector<std::byte> wire(z.compressed_bytes());
  z.compress(field, wire);
  std::vector<double> out(field.size());
  z.decompress(wire, out);
  const double zfpx_err = max_abs_err(out, field);

  CastFp16Codec h(/*scaled=*/true);
  const auto trunc = roundtrip(h, field);
  const double trunc_err = max_abs_err(trunc, field);

  EXPECT_LT(zfpx_err, trunc_err);
  // And the wire volume really is rate >= 3.5 (headers cost a little).
  EXPECT_LE(static_cast<double>(z.compressed_bytes()),
            static_cast<double>(field.size()) * 8.0 / 3.5);
}

TEST(Zfpx3d, RandomDataBehavesLikeTruncation) {
  // Random data has no correlation to exploit: zfpx should NOT beat
  // truncation by an order of magnitude (paper: "would behave similar to
  // truncation operations").
  const auto in = uniform_data(4096, 9);
  Zfpx3d z{16, 16, 16, 16};
  std::vector<std::byte> wire(z.compressed_bytes());
  z.compress(in, wire);
  std::vector<double> out(in.size());
  z.decompress(wire, out);
  const double zfpx_err = max_abs_err(out, in);

  CastFp16Codec h(/*scaled=*/true);
  const auto trunc = roundtrip(h, in);
  const double trunc_err = max_abs_err(trunc, in);
  EXPECT_GT(zfpx_err, trunc_err / 10.0);
}

TEST(Zfpx2d, SmoothPlaneBeatsStreamCodecAtEqualRate) {
  // A 2-D block sees correlation in both directions; the 1-D stream codec
  // only along the scan order — at equal rate the planar codec must win
  // on a smooth plane.
  Xoshiro256 rng(30);
  const int n = 32;
  const auto volume = make_smooth_field3d(rng, n, n, 1, 4);  // One slice.
  Zfpx2d z2{n, n, 16};
  std::vector<std::byte> wire(z2.compressed_bytes());
  z2.compress(volume, wire);
  std::vector<double> out(volume.size());
  z2.decompress(wire, out);
  const double err2d = max_abs_err(out, volume);

  Zfpx1dCodec z1(16);
  const auto out1 = roundtrip(z1, volume);
  const double err1d = max_abs_err(out1, volume);
  EXPECT_LT(err2d, err1d);
}

TEST(Zfpx2d, OddExtentsRoundTrip) {
  Xoshiro256 rng(31);
  const auto field = make_smooth_field3d(rng, 7, 11, 1, 2);
  Zfpx2d z{7, 11, 32};
  std::vector<std::byte> wire(z.compressed_bytes());
  z.compress(field, wire);
  std::vector<double> out(field.size());
  z.decompress(wire, out);
  EXPECT_LE(max_abs_err(out, field), 1e-6);
}

TEST(Zfpx2d, HighRateIsNearLossless) {
  const auto in = uniform_data(16 * 16, 32);
  Zfpx2d z{16, 16, 62};
  std::vector<std::byte> wire(z.compressed_bytes());
  z.compress(in, wire);
  std::vector<double> out(in.size());
  z.decompress(wire, out);
  EXPECT_LE(max_abs_err(out, in), 1e-14);
}

TEST(Zfpx3d, OddExtentsRoundTrip) {
  Xoshiro256 rng(10);
  const auto field = make_smooth_field3d(rng, 5, 7, 9, 2);
  Zfpx3d z{5, 7, 9, 32};
  std::vector<std::byte> wire(z.compressed_bytes());
  z.compress(field, wire);
  std::vector<double> out(field.size());
  z.decompress(wire, out);
  EXPECT_LE(max_abs_err(out, field), 1e-6);
}

TEST(Zfpx1d, RejectsBadRate) {
  EXPECT_THROW(Zfpx1dCodec(1), Error);
  EXPECT_THROW(Zfpx1dCodec(65), Error);
}

TEST(Zfpx1d, RejectsNonFinite) {
  Zfpx1dCodec c(16);
  std::vector<double> in = {1.0, std::nan(""), 2.0, 3.0};
  std::vector<std::byte> wire(c.max_compressed_bytes(4));
  EXPECT_THROW(c.compress(in, wire), Error);
}

// ------------------------------------------------------ zfpx accuracy mode

class ZfpxAccuracySweep : public ::testing::TestWithParam<double> {};

TEST_P(ZfpxAccuracySweep, GuaranteesAbsoluteBound) {
  const double tol = GetParam();
  ZfpxAccuracyCodec c(tol);
  const auto in = uniform_data(1201, 80);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  std::vector<double> out(in.size());
  c.decompress(std::span<const std::byte>(wire.data(), used), out);
  EXPECT_LE(max_abs_err(out, in), tol) << tol;
}

INSTANTIATE_TEST_SUITE_P(Tols, ZfpxAccuracySweep,
                         ::testing::Values(1e-1, 1e-3, 1e-6, 1e-9, 1e-13));

TEST(ZfpxAccuracyCodec, LooserToleranceCostsFewerBytes) {
  const auto in = uniform_data(4096, 81);
  ZfpxAccuracyCodec loose(1e-2), tight(1e-10);
  std::vector<std::byte> wire(tight.max_compressed_bytes(in.size()));
  const std::size_t b_loose = loose.compress(in, wire);
  const std::size_t b_tight = tight.compress(in, wire);
  EXPECT_LT(b_loose, b_tight);
  EXPECT_LT(b_loose, in.size() * 8 / 2);  // Better than rate 2 at 1e-2.
}

TEST(ZfpxAccuracyCodec, SmoothDataCompressesBetterThanRandom) {
  Xoshiro256 rng(82);
  const auto smooth = make_smooth_field3d(rng, 16, 16, 16, 4);
  const auto random = uniform_data(smooth.size(), 83);
  ZfpxAccuracyCodec c(1e-6);
  std::vector<std::byte> wire(c.max_compressed_bytes(smooth.size()));
  const std::size_t s_bytes = c.compress(smooth, wire);
  const std::size_t r_bytes = c.compress(random, wire);
  EXPECT_LT(s_bytes, r_bytes);
}

TEST(ZfpxAccuracyCodec, AllZeroBlocksCostHeadersOnly) {
  ZfpxAccuracyCodec c(1e-9);
  std::vector<double> zeros(1024, 0.0);
  std::vector<std::byte> wire(c.max_compressed_bytes(zeros.size()));
  const std::size_t used = c.compress(zeros, wire);
  EXPECT_LE(used, 8 + (zeros.size() / 4) * 2 + 8);
  std::vector<double> out(zeros.size());
  c.decompress(std::span<const std::byte>(wire.data(), used), out);
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

TEST(ZfpxAccuracyCodec, RejectsBadTolerance) {
  EXPECT_THROW(ZfpxAccuracyCodec(0.0), Error);
  EXPECT_THROW(ZfpxAccuracyCodec(-1e-6), Error);
}

// ------------------------------------------------------------------ szq

class SzqBoundSweep : public ::testing::TestWithParam<double> {};

TEST_P(SzqBoundSweep, GuaranteesAbsoluteErrorBound) {
  const double eb = GetParam();
  SzqCodec c(eb);
  const auto in = uniform_data(1500, 11);
  const auto out = roundtrip(c, in);
  EXPECT_LE(max_abs_err(out, in), eb * (1 + 1e-12)) << eb;
}

INSTANTIATE_TEST_SUITE_P(Bounds, SzqBoundSweep,
                         ::testing::Values(1e-2, 1e-4, 1e-6, 1e-9, 1e-12));

TEST(SzqCodec, SmoothDataCompressesBetterThanRandom) {
  Xoshiro256 rng(12);
  const auto smooth = make_smooth_field3d(rng, 16, 16, 16, 4);
  const auto random = uniform_data(smooth.size(), 13);
  SzqCodec c(1e-4);
  std::vector<std::byte> wire(c.max_compressed_bytes(smooth.size()));
  const std::size_t s_bytes = c.compress(smooth, wire);
  const std::size_t r_bytes = c.compress(random, wire);
  EXPECT_LT(s_bytes, r_bytes);
  // Smooth data at a loose bound should compress well below 8 bytes/value.
  EXPECT_LT(static_cast<double>(s_bytes),
            0.5 * static_cast<double>(smooth.size()) * 8);
}

TEST(SzqCodec, OutliersSurviveExactly) {
  SzqCodec c(1e-6);
  std::vector<double> in = {0.0, 1e250, -1e250, 1.0, 2.0};
  const auto out = roundtrip(c, in);
  EXPECT_EQ(out[1], 1e250);  // Stored verbatim.
  EXPECT_EQ(out[2], -1e250);
  EXPECT_LE(std::fabs(out[3] - 1.0), 1e-6);
}

TEST(SzqCodec, RejectsBadBound) {
  EXPECT_THROW(SzqCodec(0.0), Error);
  EXPECT_THROW(SzqCodec(-1.0), Error);
}

TEST(SzqCodec, EmptyInputRoundTrips) {
  SzqCodec c(1e-5);
  std::vector<double> in;
  std::vector<std::byte> wire(c.max_compressed_bytes(0));
  const std::size_t used = c.compress(in, wire);
  std::vector<double> out;
  c.decompress(std::span<const std::byte>(wire.data(), used), out);
  SUCCEED();
}

// ------------------------------------------------------------- lossless

TEST(ByteplaneRle, ExactOnArbitraryData) {
  ByteplaneRleCodec c;
  const auto in = uniform_data(997, 14, -1e10, 1e10);
  EXPECT_EQ(roundtrip(c, in), in);
  EXPECT_TRUE(c.lossless());
}

TEST(ByteplaneRle, CompressesConstantData) {
  ByteplaneRleCodec c;
  std::vector<double> in(4096, 3.14159);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  EXPECT_LT(used, in.size());  // Far below 8 bytes/value.
}

TEST(ByteplaneRle, ExactOnSpecialValues) {
  ByteplaneRleCodec c;
  std::vector<double> in = {0.0, -0.0, 1e300, -1e-300,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  const auto out = roundtrip(c, in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(in[i]));
  }
}

// -------------------------------------------------------------- planner

TEST(Planner, MantissaBitsForToleranceBoundaries) {
  EXPECT_EQ(mantissa_bits_for_tolerance(1.0), 0);
  EXPECT_EQ(mantissa_bits_for_tolerance(0.5), 0);    // u(0) = 0.5.
  EXPECT_EQ(mantissa_bits_for_tolerance(0.25), 1);   // u(1) = 0.25.
  EXPECT_EQ(mantissa_bits_for_tolerance(1e-16), 52);
  EXPECT_EQ(mantissa_bits_for_tolerance(1e-300), 52);
}

TEST(Planner, SelectedCodecMeetsTolerance) {
  // O(1)-scaled data (the planner's contract): loose tolerances may select
  // FP16, whose relative-error guarantee needs values inside its range.
  auto in = uniform_data(512, 20, 0.5, 1.5);
  for (std::size_t i = 1; i < in.size(); i += 2) in[i] = -in[i];
  for (const double e_tol : {1e-2, 1e-3, 1e-5, 1e-7, 1e-10, 1e-13}) {
    const auto codec = plan_codec(e_tol, CodecFamily::kTruncation);
    const auto out = roundtrip(*codec, in);
    EXPECT_LE(max_rel_err(out, in), e_tol * (1 + 1e-9)) << codec->name();
  }
}

TEST(Planner, LooseToleranceBuysMoreCompression) {
  const auto loose = plan_codec(1e-2, CodecFamily::kTruncation);
  const auto tight = plan_codec(1e-12, CodecFamily::kTruncation);
  EXPECT_GT(loose->nominal_rate(), tight->nominal_rate());
  EXPECT_EQ(loose->name(), "fp64->fp16");
}

TEST(Planner, BelowFp64RoundoffFallsBackToIdentity) {
  const auto codec = plan_codec(1e-17, CodecFamily::kTruncation);
  EXPECT_EQ(codec->name(), "fp64");
  EXPECT_TRUE(codec->lossless());
}

TEST(Planner, OtherFamiliesRespectToleranceToo) {
  const auto in = uniform_data(800, 21);
  for (const auto family :
       {CodecFamily::kSzq, CodecFamily::kLossless, CodecFamily::kZfpx}) {
    const auto codec = plan_codec(1e-6, family);
    const auto out = roundtrip(*codec, in);
    EXPECT_LE(max_abs_err(out, in), 1e-6 * (1 + 1e-9)) << codec->name();
  }
}

TEST(Planner, RejectsNonPositiveTolerance) {
  EXPECT_THROW(plan_codec(0.0), Error);
  EXPECT_THROW(plan_codec(-1.0), Error);
}

TEST(PlannerRate, AchievesRequestedRateExactlyOrBetter) {
  for (const double rate : {1.0, 1.5, 2.0, 3.0, 4.0, 5.0}) {
    const auto codec = plan_codec_for_rate(rate, CodecFamily::kTruncation);
    EXPECT_GE(codec->nominal_rate(), rate * (1 - 1e-12)) << codec->name();
    // Verify against real bytes, not just the declared rate.
    const std::size_t n = 4096;
    EXPECT_LE(static_cast<double>(codec->max_compressed_bytes(n)),
              static_cast<double>(n) * 8.0 / rate + 16)
        << codec->name();
  }
}

TEST(PlannerRate, PrefersHardwareCastsAtTheirRates) {
  EXPECT_EQ(plan_codec_for_rate(2.0)->name(), "fp64->fp32");
  EXPECT_EQ(plan_codec_for_rate(4.0)->name(), "fp64->fp16");
  EXPECT_EQ(plan_codec_for_rate(1.0)->name(), "fp64");
}

TEST(PlannerRate, HigherRateMeansLargerError) {
  const auto in = uniform_data(600, 22);
  double prev = -1.0;
  for (const double rate : {1.5, 2.5, 4.0, 5.0}) {
    const auto codec = plan_codec_for_rate(rate);
    const auto out = roundtrip(*codec, in);
    const double err = max_rel_err(out, in);
    if (prev >= 0.0) {
      EXPECT_GE(err, prev) << rate;
    }
    prev = err;
  }
}

TEST(PlannerRate, RejectsImpossibleRequests) {
  EXPECT_THROW(plan_codec_for_rate(0.5), Error);
  EXPECT_THROW(plan_codec_for_rate(6.0, CodecFamily::kTruncation), Error);
  EXPECT_THROW(plan_codec_for_rate(2.0, CodecFamily::kLossless), Error);
  // zfpx reaches much higher rates than truncation can.
  EXPECT_NO_THROW(plan_codec_for_rate(16.0, CodecFamily::kZfpx));
}

// -------------------------------------------------------------- checksum

TEST(ChecksumCodec, TransparentRoundTrip) {
  ChecksumCodec c(std::make_shared<CastFp32Codec>());
  const auto in = uniform_data(500, 23);
  const auto plain = roundtrip(CastFp32Codec{}, in);
  const auto framed = roundtrip(c, in);
  EXPECT_EQ(framed, plain);
  EXPECT_TRUE(c.fixed_size());
}

TEST(ChecksumCodec, DetectsSingleBitFlip) {
  ChecksumCodec c(std::make_shared<IdentityCodec>());
  const auto in = uniform_data(64, 24);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  wire[ChecksumCodec::kHeaderBytes + 100] ^= std::byte{0x10};
  std::vector<double> out(in.size());
  EXPECT_THROW(
      c.decompress(std::span<const std::byte>(wire.data(), used), out),
      Error);
}

TEST(ChecksumCodec, DetectsTruncatedFrame) {
  ChecksumCodec c(std::make_shared<SzqCodec>(1e-6));
  const auto in = uniform_data(256, 25);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  std::vector<double> out(in.size());
  EXPECT_THROW(
      c.decompress(std::span<const std::byte>(wire.data(), used / 2), out),
      Error);
}

TEST(ChecksumCodec, Fnv1aKnownVector) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(fnv1a64({}), 0xCBF29CE484222325ull);
  const char* s = "a";
  EXPECT_EQ(fnv1a64(std::as_bytes(std::span<const char>(s, 1))),
            0xAF63DC4C8601EC8Cull);
}

TEST(ChecksumCodec, RejectsNullInner) {
  EXPECT_THROW(ChecksumCodec(nullptr), Error);
}

// ------------------------------------------------- parallel granularity
// The contract behind ParallelCodec (codec.hpp): for a fixed-size codec
// with granularity g > 0, the encoding of any prefix whose length is a
// multiple of g occupies exactly max_compressed_bytes(prefix) bytes, so a
// stream can be cut at granularity multiples and each piece coded
// independently without changing a single wire byte.

std::vector<std::shared_ptr<const Codec>> shardable_codecs() {
  return {std::make_shared<IdentityCodec>(),
          std::make_shared<CastFp32Codec>(),
          std::make_shared<CastBf16Codec>(),
          std::make_shared<CastFp16Codec>(/*scaled=*/false),
          std::make_shared<BitTrimCodec>(20),
          std::make_shared<BitTrimCodec>(9),
          std::make_shared<Zfpx1dCodec>(20)};
}

TEST(ParallelGranularity, DeclaredOnlyWhereShardingIsSound) {
  for (const auto& c : shardable_codecs()) {
    EXPECT_GT(c->parallel_granularity(), 0u) << c->name();
    EXPECT_TRUE(c->fixed_size()) << c->name();
  }
  // Scaled FP16 appends all block scales after all halves; checksum frames
  // the whole message. Neither can be cut-and-concatenated, and they must
  // say so.
  EXPECT_EQ(CastFp16Codec(/*scaled=*/true).parallel_granularity(), 0u);
  EXPECT_EQ(
      ChecksumCodec(std::make_shared<IdentityCodec>()).parallel_granularity(),
      0u);
  // szq, RLE, and zfpx accuracy mode are variable-rate, so they shard
  // through the internal frame (directory + compacted payloads) instead of
  // prefix exactness.
  EXPECT_EQ(SzqCodec(1e-6).parallel_granularity(), SzqCodec::kShardElems);
  EXPECT_EQ(ByteplaneRleCodec().parallel_granularity(),
            ByteplaneRleCodec::kShardElems);
  EXPECT_EQ(ZfpxAccuracyCodec(1e-6).parallel_granularity(),
            ZfpxAccuracyCodec::kShardElems);
  EXPECT_FALSE(SzqCodec(1e-6).fixed_size());
  EXPECT_FALSE(ByteplaneRleCodec().fixed_size());
  EXPECT_FALSE(ZfpxAccuracyCodec(1e-6).fixed_size());
}

TEST(ParallelGranularity, SizesAreAdditiveAtGranularityMultiples) {
  for (const auto& c : shardable_codecs()) {
    const std::size_t g = c->parallel_granularity();
    for (const std::size_t a : {g, 2 * g, 16 * g, 129 * g}) {
      for (const std::size_t b : {std::size_t{1}, g, 3 * g + 1}) {
        EXPECT_EQ(c->max_compressed_bytes(a + b),
                  c->max_compressed_bytes(a) + c->max_compressed_bytes(b))
            << c->name() << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(ParallelGranularity, ShardConcatenationEqualsSerialStream) {
  for (const auto& c : shardable_codecs()) {
    const std::size_t g = c->parallel_granularity();
    const std::size_t n = 100 * g + g / 2 + 1;  // Deliberately ragged tail.
    const auto in = uniform_data(n, 4242);
    std::vector<std::byte> serial(c->max_compressed_bytes(n));
    const std::size_t used = c->compress(in, serial);
    ASSERT_EQ(used, serial.size()) << c->name();

    std::vector<std::byte> pieced(serial.size());
    for (const std::size_t cut : {g, 7 * g, 64 * g, 100 * g}) {
      std::fill(pieced.begin(), pieced.end(), std::byte{0xAA});
      const std::size_t head_bytes = c->max_compressed_bytes(cut);
      const std::size_t head = c->compress(
          std::span<const double>(in).first(cut),
          std::span<std::byte>(pieced.data(), head_bytes));
      const std::size_t tail = c->compress(
          std::span<const double>(in).subspan(cut),
          std::span<std::byte>(pieced.data() + head_bytes,
                               pieced.size() - head_bytes));
      ASSERT_EQ(head + tail, used) << c->name() << " cut=" << cut;
      EXPECT_EQ(std::memcmp(pieced.data(), serial.data(), used), 0)
          << c->name() << " cut=" << cut;

      // And the pieces decode independently to the serial reconstruction.
      std::vector<double> whole(n), parts(n);
      c->decompress(std::span<const std::byte>(serial.data(), used), whole);
      c->decompress(std::span<const std::byte>(pieced.data(), head_bytes),
                    std::span<double>(parts.data(), cut));
      c->decompress(
          std::span<const std::byte>(pieced.data() + head_bytes, tail),
          std::span<double>(parts.data() + cut, n - cut));
      EXPECT_EQ(std::memcmp(parts.data(), whole.data(), n * sizeof(double)),
                0)
          << c->name() << " cut=" << cut;
    }
  }
}

// --------------------------------------------- variable-codec shard frame
// szq and RLE shard through the internal frame documented in codec.hpp:
// `u64 count | u64 dir[ceil(n/g)] | compacted shard payloads`, every shard
// coded independently. The wire stream must be a pure function of the data
// — identical whether the serial encoder or ParallelCodec's fan-out (any
// shard count) produced it — and each shard payload must match what
// compress_shard emits for that element range alone.

std::vector<std::shared_ptr<const Codec>> framed_codecs() {
  return {std::make_shared<SzqCodec>(1e-7),
          std::make_shared<ByteplaneRleCodec>(),
          std::make_shared<ZfpxAccuracyCodec>(1e-7)};
}

TEST(ShardFrame, ParallelFanOutIsBitwiseIdenticalToSerial) {
  WorkerPool pool(3);
  for (const auto& c : framed_codecs()) {
    const std::size_t g = c->parallel_granularity();
    // Ragged tail on purpose: the last shard is a partial one.
    for (const std::size_t n : {g / 2, g, 3 * g + g / 3, 8 * g + 1}) {
      const auto in = uniform_data(n, 777 + n);
      std::vector<std::byte> serial(c->max_compressed_bytes(n));
      std::vector<std::byte> fanned(serial.size(), std::byte{0x5C});
      const std::size_t used = c->compress(in, serial);
      for (const int shards : {2, 3, 7}) {
        ParallelCodec pc(c, &pool, shards, /*min_shard_bytes=*/1);
        std::fill(fanned.begin(), fanned.end(), std::byte{0x5C});
        ASSERT_EQ(pc.compress(in, fanned), used)
            << c->name() << " n=" << n << " shards=" << shards;
        EXPECT_EQ(std::memcmp(fanned.data(), serial.data(), used), 0)
            << c->name() << " n=" << n << " shards=" << shards;

        // And the parallel decoder reconstructs the serial decode exactly.
        std::vector<double> whole(n), sharded(n, -1.0);
        c->decompress(std::span<const std::byte>(serial.data(), used),
                      whole);
        pc.decompress(std::span<const std::byte>(serial.data(), used),
                      sharded);
        EXPECT_EQ(
            std::memcmp(whole.data(), sharded.data(), n * sizeof(double)),
            0)
            << c->name() << " n=" << n << " shards=" << shards;
      }
    }
  }
}

TEST(ShardFrame, DirectoryMatchesIndependentShardEncodes) {
  for (const auto& c : framed_codecs()) {
    const std::size_t g = c->parallel_granularity();
    const std::size_t n = 2 * g + g / 5;
    const auto in = uniform_data(n, 4141);
    std::vector<std::byte> wire(c->max_compressed_bytes(n));
    const std::size_t used = c->compress(in, wire);
    const std::size_t ns = (n + g - 1) / g;
    std::uint64_t count = 0;
    std::memcpy(&count, wire.data(), 8);
    ASSERT_EQ(count, n);
    std::size_t pos = 8 + 8 * ns;
    for (std::size_t s = 0; s < ns; ++s) {
      const std::size_t m = std::min(g, n - s * g);
      std::uint64_t bytes = 0;
      std::memcpy(&bytes, wire.data() + 8 + 8 * s, 8);
      std::vector<std::byte> solo(c->shard_payload_bound(m));
      const std::size_t solo_used = c->compress_shard(
          std::span<const double>(in).subspan(s * g, m), solo);
      ASSERT_EQ(solo_used, bytes) << c->name() << " shard=" << s;
      EXPECT_EQ(std::memcmp(solo.data(), wire.data() + pos, bytes), 0)
          << c->name() << " shard=" << s;
      pos += bytes;
    }
    EXPECT_EQ(pos, used) << c->name();
  }
}

TEST(ShardFrame, EmptyStreamIsJustTheCountWord) {
  for (const auto& c : framed_codecs()) {
    EXPECT_EQ(c->max_compressed_bytes(0), 8u) << c->name();
    std::vector<std::byte> wire(8);
    EXPECT_EQ(c->compress({}, wire), 8u) << c->name();
    std::vector<double> out;
    EXPECT_NO_THROW(c->decompress(wire, out)) << c->name();
  }
}

TEST(ZfpxAccuracyCodec, ShardBoundarySizesRoundTrip) {
  ZfpxAccuracyCodec c(1e-7);
  const std::size_t g = ZfpxAccuracyCodec::kShardElems;
  // Exactly at, one element either side of, and well past the shard
  // boundary: the frame directory and the shard-local tail replication
  // must all agree with the serial reconstruction.
  for (const std::size_t n : {g - 1, g, g + 1, 2 * g, 3 * g + 1}) {
    const auto in = uniform_data(n, 99 + n);
    const auto out = roundtrip(c, in);
    EXPECT_LE(max_abs_err(out, in), 1e-7 * (1 + 1e-12)) << n;
  }
}

// ------------------------------------------------------- SIMD identity
// Every vector kernel tier must emit the exact bytes of its scalar
// reference: the wire format is frozen (persistent plans, the fuzz
// corpus, and the tuner cache all assume the stream is a pure function of
// the data), so a vector path that is merely "close" is a wire-format
// break. Compress under every available level and compare streams
// byte-for-byte, then decode every (encode level, decode level) pair and
// compare reconstructions bitwise.

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(set_simd_level(level)) {}
  ~ScopedSimdLevel() { set_simd_level(prev_); }

 private:
  SimdLevel prev_;
};

// Every level the dispatcher can select on this build + host, scalar
// first. On an AVX-512 host this is {scalar, avx2, avx512}; a forced or
// non-x86 build collapses to {scalar}.
std::vector<SimdLevel> available_simd_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (detected_simd_level() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (detected_simd_level() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

// Codecs whose hot loops go through simd.hpp dispatch.
std::vector<std::shared_ptr<const Codec>> simd_dispatched_codecs() {
  return {std::make_shared<CastFp32Codec>(),
          std::make_shared<BitTrimCodec>(20),
          std::make_shared<BitTrimCodec>(9),
          std::make_shared<BitTrimCodec>(52),
          std::make_shared<Zfpx1dCodec>(20),
          std::make_shared<Zfpx1dCodec>(7),
          std::make_shared<ZfpxAccuracyCodec>(1e-6),
          std::make_shared<ZfpxAccuracyCodec>(1e-2),
          std::make_shared<SzqCodec>(1e-7)};
}

// Adversarial inputs for the bit-exactness property. `finite` variants go
// to every codec; the specials mix (inf/NaN payloads) only to codecs that
// accept non-finite input (zfpx rejects it by contract).
struct SimdInput {
  const char* label;
  bool finite;
  std::vector<double> data;
};

std::vector<SimdInput> simd_identity_inputs() {
  std::vector<SimdInput> inputs;
  inputs.push_back({"uniform", true, uniform_data(10007, 31337)});
  inputs.push_back({"zeros", true, std::vector<double>(5000, 0.0)});
  // Denormals: uniform magnitudes scaled into the subnormal range, where
  // a sloppy vector exponent path would flush or misround.
  {
    auto v = uniform_data(4097, 4242);
    for (double& x : v) x = std::ldexp(x, -1060);
    inputs.push_back({"denormal", true, std::move(v)});
  }
  // Single-bit planes: pure powers of two exercise the group-test coder's
  // one-significant-coefficient paths and the run-emission batching.
  {
    std::vector<double> v(4099);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::ldexp(i % 2 ? 1.0 : -1.0, -static_cast<int>(i % 40));
    }
    inputs.push_back({"single-bit-planes", true, std::move(v)});
  }
  // Mixed exponents: magnitudes spanning ~200 binades force deep
  // bit-plane recursion inside each zfpx block — many planes carrying
  // exactly one newly significant coefficient, the worst case for the
  // scan-then-fill decoder's plane directory and empty-plane batching.
  {
    auto v = uniform_data(4096 + 37, 909);
    Xoshiro256 exp_rng(910);
    for (double& x : v) {
      x = std::ldexp(x, -static_cast<int>(exp_rng.below(200)));
    }
    inputs.push_back({"mixed-exponent", true, std::move(v)});
  }
  // Non-finite payloads: trim keeps them bit-exact via the exponent
  // passthrough, szq stores them as verbatim outliers.
  {
    auto v = uniform_data(4001, 77);
    for (std::size_t i = 0; i < v.size(); i += 97) {
      v[i] = std::numeric_limits<double>::infinity();
      if (i + 13 < v.size()) v[i + 13] = -std::numeric_limits<double>::infinity();
      if (i + 31 < v.size()) v[i + 31] = std::numeric_limits<double>::quiet_NaN();
    }
    inputs.push_back({"specials", false, std::move(v)});
  }
  return inputs;
}

TEST(SimdIdentity, StreamsBitIdenticalAcrossLevels) {
  const std::vector<SimdLevel> levels = available_simd_levels();
  if (levels.size() < 2) {
    GTEST_SKIP() << "no SIMD level available in this build/host";
  }
  for (const auto& c : simd_dispatched_codecs()) {
    const bool finite_only =
        c->name().rfind("zfpx", 0) == 0;  // zfpx rejects non-finite input.
    for (const auto& input : simd_identity_inputs()) {
      if (finite_only && !input.finite) continue;
      const std::span<const double> in(input.data);

      // Encode under every level; every wire must match the scalar wire.
      std::vector<std::byte> scalar_wire(c->max_compressed_bytes(in.size()));
      std::size_t scalar_used = 0;
      {
        ScopedSimdLevel guard(SimdLevel::kScalar);
        scalar_used = c->compress(in, scalar_wire);
      }
      for (std::size_t li = 1; li < levels.size(); ++li) {
        std::vector<std::byte> wire(scalar_wire.size(), std::byte{0x5C});
        std::size_t used = 0;
        {
          ScopedSimdLevel guard(levels[li]);
          used = c->compress(in, wire);
        }
        ASSERT_EQ(used, scalar_used)
            << c->name() << " " << input.label << " enc="
            << simd_level_name(levels[li]);
        ASSERT_EQ(std::memcmp(wire.data(), scalar_wire.data(), used), 0)
            << c->name() << " " << input.label << " enc="
            << simd_level_name(levels[li]);
      }

      // Decode matrix: the (now proven common) wire must reconstruct to
      // the same bits under every level (NaN payloads included, hence
      // memcmp). With the wires identical, decoding the shared stream
      // under each level covers every (encode level, decode level) pair.
      const std::span<const std::byte> wire(scalar_wire.data(), scalar_used);
      std::vector<double> scalar_out(in.size());
      {
        ScopedSimdLevel guard(SimdLevel::kScalar);
        c->decompress(wire, scalar_out);
      }
      for (std::size_t li = 1; li < levels.size(); ++li) {
        std::vector<double> out(in.size(), -2.0);
        {
          ScopedSimdLevel guard(levels[li]);
          c->decompress(wire, out);
        }
        EXPECT_EQ(std::memcmp(out.data(), scalar_out.data(),
                              in.size() * sizeof(double)),
                  0)
            << c->name() << " " << input.label << " dec="
            << simd_level_name(levels[li]);
      }
    }
  }
}

// Bit patterns that stress the trim path at every width: ±0, rounding
// that carries into the exponent (all-ones mantissas, the largest
// subnormal, DBL_MAX rounding to inf), exact ties with an even and an odd
// kept LSB at each of the 52 mantissa positions, and NaN payloads in the
// kept and the dropped bits.
std::vector<double> bittrim_edge_values() {
  std::vector<std::uint64_t> bits = {
      0x0000000000000000ull, 0x8000000000000000ull,  // +0, -0
      0x3FFFFFFFFFFFFFFFull, 0xBFFFFFFFFFFFFFFFull,  // 2 - ulp: carries
      0x7FEFFFFFFFFFFFFFull, 0xFFEFFFFFFFFFFFFFull,  // ±DBL_MAX -> ±inf
      0x000FFFFFFFFFFFFFull, 0x800FFFFFFFFFFFFFull,  // largest subnormals
      0x7FF8000000000000ull, 0xFFF8000000000000ull,  // ±quiet NaN
      0x7FF0000000000001ull, 0x7FF4000000000000ull,  // signaling NaNs
      0x7FFFFFFFFFFFFFFFull, 0xFFF0F0F0F0F0F0F1ull,  // NaN payloads
      0x7FF0000000000000ull, 0xFFF0000000000000ull,  // ±inf
      0x0000000000000001ull, 0x43EFFFFFFFFFFFFFull,  // min subnormal, < 2^63
  };
  for (int k = 0; k < 52; ++k) {
    const std::uint64_t half = std::uint64_t{1} << k;
    bits.push_back(0x3FF0000000000000ull | half);        // Tie, even LSB.
    bits.push_back(0xC000000000000000ull | (3 * half));  // Tie, odd LSB.
  }
  std::vector<double> v;
  for (const std::uint64_t b : bits) v.push_back(std::bit_cast<double>(b));
  return v;
}

TEST(SimdIdentity, BitTrimEveryWidthLengthAndOffset) {
  // Every BitTrim width (m = 0..52, 12..64 packed bits) at lengths that
  // straddle the eight-value group and the 64-byte load guard of the
  // vector kernels. Byte streams sit 1-7 bytes past an allocation start
  // (exchange stage offsets are unaligned) and doubles 1-7 elements past
  // one, so no vector access is ever 64-byte aligned. Pack must write
  // exactly max_compressed_bytes: canary bytes before and after the
  // stream stay untouched. Decode reads from a heap buffer that ends at
  // the stream's last byte, so the asan build flags any over-read.
  const std::vector<SimdLevel> levels = available_simd_levels();
  std::vector<SimdInput> inputs = simd_identity_inputs();
  {
    // Edge values interleaved with uniform data, so even the one-value
    // prefix holds one.
    const auto edges = bittrim_edge_values();
    auto v = uniform_data(4099, 515);
    for (std::size_t i = 0; i < v.size(); i += 2) {
      v[i] = edges[(i / 2) % edges.size()];
    }
    inputs.push_back({"edge-mix", false, std::move(v)});
  }
  constexpr std::size_t kLengths[] = {0,  1,   7,   8,   9,   15,  16,  17,
                                      63, 64,  65,  127, 128, 129, 4099};
  constexpr std::size_t kCanary = 64;
  constexpr std::byte kFill{0xA5};
  const auto untouched = [&](auto first, auto last) {
    return std::all_of(first, last, [&](std::byte b) { return b == kFill; });
  };
  const auto same_bytes = [](const void* a, const void* b, std::size_t len) {
    return len == 0 || std::memcmp(a, b, len) == 0;
  };
  for (int m = 0; m <= 52; ++m) {
    const BitTrimCodec c(m);
    for (const auto& input : inputs) {
      for (const std::size_t n : kLengths) {
        const std::size_t off = 1 + (n + static_cast<std::size_t>(m)) % 7;
        const std::size_t bytes = c.max_compressed_bytes(n);
        const std::string where = "m=" + std::to_string(m) + " " +
                                  input.label + " n=" + std::to_string(n) +
                                  " off=" + std::to_string(off);
        std::vector<double> src(off + n);
        for (std::size_t i = 0; i < n; ++i) {
          src[off + i] = input.data[i % input.data.size()];
        }
        const std::span<const double> in(src.data() + off, n);

        // Encode at every level; levels[0] is scalar, the reference wire.
        std::vector<std::byte> wire;
        for (const SimdLevel level : levels) {
          std::vector<std::byte> buf(off + bytes + kCanary, kFill);
          {
            ScopedSimdLevel guard(level);
            ASSERT_EQ(c.compress(in, std::span<std::byte>(buf.data() + off,
                                                          bytes)),
                      bytes)
                << where;
          }
          const auto stream = buf.begin() + static_cast<std::ptrdiff_t>(off);
          const auto end = stream + static_cast<std::ptrdiff_t>(bytes);
          ASSERT_TRUE(untouched(buf.begin(), stream))
              << where << " enc=" << simd_level_name(level);
          ASSERT_TRUE(untouched(end, buf.end()))
              << where << " enc=" << simd_level_name(level);
          if (level == levels.front()) wire.assign(stream, end);
          ASSERT_TRUE(same_bytes(buf.data() + off, wire.data(), bytes))
              << where << " enc=" << simd_level_name(level);
        }

        // Every level wrote the scalar wire, so decode it once under each
        // level against the scalar reconstruction (NaN payloads included,
        // hence memcmp).
        std::vector<std::byte> stream(off + bytes);
        std::copy(wire.begin(), wire.end(),
                  stream.begin() + static_cast<std::ptrdiff_t>(off));
        std::vector<double> reference;
        for (const SimdLevel level : levels) {
          std::vector<double> dst(off + n, -2.0);
          {
            ScopedSimdLevel guard(level);
            c.decompress(
                std::span<const std::byte>(stream.data() + off, bytes),
                std::span<double>(dst.data() + off, n));
          }
          if (level == levels.front()) reference = dst;
          ASSERT_TRUE(same_bytes(dst.data() + off, reference.data() + off,
                                 n * sizeof(double)))
              << where << " dec=" << simd_level_name(level);
        }
      }
    }
  }
}

TEST(SimdIdentity, ShardedFrameDecodeMatchesSerialAtEveryLevel) {
  // The scan-then-fill decoder runs inside ParallelCodec's sharded frames
  // too: each worker decodes its shard range with its own BitReader
  // cursor. Fan the decode out over >= 4 workers at every dispatch level
  // and demand the serial scalar reconstruction, bit for bit.
  WorkerPool pool(4);
  ZfpxAccuracyCodec c(1e-6);
  const std::size_t g = c.parallel_granularity();
  const auto in = uniform_data(4 * g + g / 3, 6006);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  std::size_t used = 0;
  std::vector<double> serial(in.size());
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    used = c.compress(in, wire);
    c.decompress(std::span<const std::byte>(wire.data(), used), serial);
  }
  for (const SimdLevel level : available_simd_levels()) {
    ParallelCodec pc(std::make_shared<ZfpxAccuracyCodec>(1e-6), &pool,
                     /*shards=*/5, /*min_shard_bytes=*/1);
    std::vector<double> sharded(in.size(), -1.0);
    {
      ScopedSimdLevel guard(level);
      pc.decompress(std::span<const std::byte>(wire.data(), used), sharded);
    }
    EXPECT_EQ(std::memcmp(sharded.data(), serial.data(),
                          in.size() * sizeof(double)),
              0)
        << simd_level_name(level);
  }
}

TEST(SimdIdentity, TruncatedStreamFailsCleanlyAtEveryLevel) {
  // Chopping a zfpx stream anywhere must surface as a recoverable Error
  // (never an over-read) and must fail identically under the scan-then-
  // fill vector decoders and the scalar reference.
  ZfpxAccuracyCodec c(1e-6);
  const auto in = uniform_data(3000, 1234);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  std::vector<double> out(in.size());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{8}, used / 4, used / 2,
        used - 1}) {
    bool scalar_threw = false;
    {
      ScopedSimdLevel guard(SimdLevel::kScalar);
      try {
        c.decompress(std::span<const std::byte>(wire.data(), keep), out);
      } catch (const Error&) {
        scalar_threw = true;
      }
    }
    for (const SimdLevel level : available_simd_levels()) {
      if (level == SimdLevel::kScalar) continue;
      ScopedSimdLevel guard(level);
      bool threw = false;
      try {
        c.decompress(std::span<const std::byte>(wire.data(), keep), out);
      } catch (const Error&) {
        threw = true;
      }
      EXPECT_EQ(threw, scalar_threw)
          << "keep=" << keep << " level=" << simd_level_name(level);
    }
  }
}

TEST(SimdIdentity, FieldCodecsMatchAcrossLevels) {
  const std::vector<SimdLevel> levels = available_simd_levels();
  if (levels.size() < 2) {
    GTEST_SKIP() << "no SIMD level available in this build/host";
  }
  // The 2-D/3-D block interfaces run the same dispatched transform +
  // coder; odd extents exercise the padded edge blocks.
  Xoshiro256 rng(2026);
  const auto field = make_smooth_field3d(rng, 13, 10, 7, 3);
  Zfpx3d z3{13, 10, 7, 14};
  std::vector<std::byte> a(z3.compressed_bytes());
  std::vector<double> out_a(field.size());
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    z3.compress(field, a);
    z3.decompress(a, out_a);
  }
  for (std::size_t li = 1; li < levels.size(); ++li) {
    std::vector<std::byte> b(z3.compressed_bytes());
    std::vector<double> out_b(field.size());
    {
      ScopedSimdLevel guard(levels[li]);
      z3.compress(field, b);
      z3.decompress(a, out_b);  // Cross-decode the scalar stream.
    }
    EXPECT_EQ(a, b) << simd_level_name(levels[li]);
    EXPECT_EQ(std::memcmp(out_a.data(), out_b.data(),
                          field.size() * sizeof(double)),
              0)
        << simd_level_name(levels[li]);
  }
}

// ------------------------------------------------------------ bit I/O
// The byte-chunked fast paths must agree with the single-bit reference.

TEST(BitIo, ChunkedPutMatchesBitByBitReference) {
  Xoshiro256 rng(999);
  std::vector<std::pair<std::uint64_t, int>> fields;
  std::size_t total_bits = 0;
  for (int i = 0; i < 500; ++i) {
    const int nbits = static_cast<int>(rng.below(65));  // 0..64 inclusive.
    fields.emplace_back(rng(), nbits);
    total_bits += static_cast<std::size_t>(nbits);
  }
  std::vector<std::byte> fast((total_bits + 7) / 8);
  std::vector<std::byte> slow(fast.size());
  BitWriter fw(fast), sw(slow);
  for (const auto& [v, nbits] : fields) {
    fw.put(v, nbits);
    for (int b = 0; b < nbits; ++b) sw.put_bit(((v >> b) & 1u) != 0);
  }
  EXPECT_EQ(fw.bit_count(), sw.bit_count());
  EXPECT_EQ(fast, slow);

  BitReader fr(fast), sr(fast);
  for (const auto& [v, nbits] : fields) {
    const std::uint64_t mask =
        nbits == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << nbits) - 1);
    EXPECT_EQ(fr.get(nbits), v & mask);
    std::uint64_t bitwise = 0;
    for (int b = 0; b < nbits; ++b) {
      if (sr.get_bit()) bitwise |= std::uint64_t{1} << b;
    }
    EXPECT_EQ(bitwise, v & mask);
  }
}

TEST(BitIo, PeekUptoMatchesGetAndDoesNotConsume) {
  Xoshiro256 rng(999);
  std::vector<std::byte> buf(37);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xff);
  BitReader peeker(buf);
  BitReader getter(buf);
  std::size_t left = buf.size() * 8;
  while (left > 0) {
    const int want = static_cast<int>(rng.below(64)) + 1;
    const auto first = peeker.peek_upto(want);
    const auto second = peeker.peek_upto(want);
    EXPECT_EQ(first, second);  // Peeking consumes nothing.
    const int avail = first.second;
    ASSERT_EQ(avail, static_cast<int>(
                         std::min(static_cast<std::size_t>(want), left)));
    if (avail < 64) {
      EXPECT_EQ(first.first >> avail, 0u);  // Zero above avail.
    }
    // A short peek near the end still reports the remaining bits exactly.
    EXPECT_EQ(first.first, getter.get(avail));
    peeker.skip(avail);
    left -= static_cast<std::size_t>(avail);
  }
  // Fully consumed: nothing left to peek, and that is not an error.
  const auto end = peeker.peek_upto(64);
  EXPECT_EQ(end.first, 0u);
  EXPECT_EQ(end.second, 0);
}

TEST(BitIo, ReaderRejectsTruncatedStream) {
  std::vector<std::byte> buf(2, std::byte{0});
  BitReader r(buf);
  EXPECT_EQ(r.get(16), 0u);  // The whole stream reads fine...
  EXPECT_THROW(r.get(1), Error);  // ...and one more bit is an input error.
}

TEST(BitIo, SkipPastEndIsARecoverableError) {
  // skip() is fed by offset-directory accounting during scan-then-fill
  // decode; an adversarially short stream must fail the same way a
  // bit-by-bit get() would, not walk the cursor out of bounds.
  std::vector<std::byte> buf(3, std::byte{0xFF});
  BitReader r(buf);
  r.skip(20);
  EXPECT_THROW(r.skip(5), Error);  // 20 + 5 > 24.
  EXPECT_EQ(r.bit_count(), 20u);   // Cursor unchanged by the failed skip.
  r.skip(4);                       // Exactly to the end is fine.
  EXPECT_EQ(r.bits_left(), 0u);
  EXPECT_THROW(r.skip(1), Error);
}

TEST(BitIo, ReadAtMatchesSequentialGet) {
  // Random-access reads (the scan-then-fill fill phase) must see exactly
  // the bits a sequential reader sees, at every offset x width, including
  // the byte-assembly tail path within 8 bytes of the buffer end.
  Xoshiro256 rng(321);
  std::vector<std::byte> buf(41);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xff);
  const BitReader ra(buf);
  for (std::size_t pos = 0; pos < buf.size() * 8; ++pos) {
    const int max_bits =
        static_cast<int>(std::min<std::size_t>(64, buf.size() * 8 - pos));
    for (const int nbits : {0, 1, 7, 13, 33, 57, 64}) {
      if (nbits > max_bits) continue;
      BitReader seq(buf);
      seq.skip(static_cast<int>(pos));
      ASSERT_EQ(ra.read_at(pos, nbits), seq.get(nbits))
          << "pos=" << pos << " nbits=" << nbits;
    }
  }
  // Cursor untouched by random access, and out-of-range reads throw.
  BitReader r(buf);
  (void)r.read_at(100, 64);
  EXPECT_EQ(r.bit_count(), 0u);
  EXPECT_THROW((void)r.read_at(buf.size() * 8 - 3, 4), Error);
  EXPECT_THROW((void)r.read_at(buf.size() * 8 + 1, 0), Error);
}

}  // namespace
}  // namespace lossyfft
