// Exercise the C API end to end (from C++, but only through the C
// surface: opaque handles, interleaved doubles, error codes).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "capi/lossyfft.h"

namespace {

struct RoundTripCase {
  double e_tol;
  int backend;
  double observed_error;
  double ratio;
};

void roundtrip_rank_fn(lossyfft_comm* comm, void* user) {
  auto* c = static_cast<RoundTripCase*>(user);
  lossyfft_plan* plan =
      lossyfft_plan_c2c(comm, 16, 16, 16, c->e_tol, c->backend);
  ASSERT_NE(plan, nullptr);

  const long long count = lossyfft_local_count(plan);
  ASSERT_GT(count, 0);
  int lo[3], size[3];
  lossyfft_inbox(plan, lo, size);
  ASSERT_EQ(static_cast<long long>(size[0]) * size[1] * size[2], count);

  std::vector<double> in(static_cast<std::size_t>(2 * count));
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(0.01 * static_cast<double>(i) +
                     lossyfft_comm_rank(comm));
  }
  std::vector<double> spec(in.size()), back(in.size());
  ASSERT_EQ(lossyfft_forward(plan, in.data(), spec.data()), 0);
  ASSERT_EQ(lossyfft_backward(plan, spec.data(), back.data()), 0);

  double err = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    err = std::max(err, std::fabs(back[i] - in[i]));
  }
  if (lossyfft_comm_rank(comm) == 0) {
    c->observed_error = err;
    c->ratio = lossyfft_compression_ratio(plan);
  }
  lossyfft_plan_destroy(plan);
}

TEST(CApi, ExactRoundTrip) {
  RoundTripCase c{/*e_tol=*/1.0, LOSSYFFT_BACKEND_PAIRWISE, 1.0, 0.0};
  ASSERT_EQ(lossyfft_run_ranks(4, roundtrip_rank_fn, &c), 0);
  EXPECT_LT(c.observed_error, 1e-13);
  EXPECT_DOUBLE_EQ(c.ratio, 1.0);
}

TEST(CApi, LossyRoundTripMeetsTolerance) {
  RoundTripCase c{/*e_tol=*/1e-6, LOSSYFFT_BACKEND_OSC, 1.0, 0.0};
  ASSERT_EQ(lossyfft_run_ranks(4, roundtrip_rank_fn, &c), 0);
  EXPECT_LT(c.observed_error, 1e-4);  // Abs error on O(1) data, 2 passes.
  EXPECT_GT(c.ratio, 1.5);            // The wire really compressed.
}

TEST(CApi, RankAndSizeVisible) {
  static int seen_size = 0;
  ASSERT_EQ(lossyfft_run_ranks(
                3,
                [](lossyfft_comm* comm, void*) {
                  EXPECT_GE(lossyfft_comm_rank(comm), 0);
                  EXPECT_LT(lossyfft_comm_rank(comm), 3);
                  if (lossyfft_comm_rank(comm) == 0) {
                    seen_size = lossyfft_comm_size(comm);
                  }
                },
                nullptr),
            0);
  EXPECT_EQ(seen_size, 3);
}

TEST(CApi, SimdLevelIsVisibleAndStable) {
  const char* level = lossyfft_simd_level();
  ASSERT_NE(level, nullptr);
  EXPECT_TRUE(std::string(level) == "scalar" ||
              std::string(level) == "avx2" ||
              std::string(level) == "avx512")
      << level;
  // Static string: repeated calls return the same pointer.
  EXPECT_EQ(level, lossyfft_simd_level());
}

TEST(CApi, SimdRequestedDefaultsToAuto) {
  // The suite runs without a LOSSYFFT_SIMD override (the forced-scalar and
  // forced-avx2 presets force at build time, not via the env), so the
  // requested level reports "auto" and the effective level is whatever
  // detection picked.
  const char* requested = lossyfft_simd_requested();
  ASSERT_NE(requested, nullptr);
  EXPECT_STREQ(requested, "auto");
  EXPECT_EQ(requested, lossyfft_simd_requested());  // Static string.
}

TEST(CApi, InvalidArgumentsReportErrors) {
  EXPECT_EQ(lossyfft_run_ranks(0, roundtrip_rank_fn, nullptr), 1);
  EXPECT_EQ(lossyfft_run_ranks(2, nullptr, nullptr), 1);
  EXPECT_EQ(lossyfft_comm_rank(nullptr), -1);
  EXPECT_EQ(lossyfft_local_count(nullptr), -1);
  EXPECT_EQ(lossyfft_forward(nullptr, nullptr, nullptr), 1);
  lossyfft_plan_destroy(nullptr);  // Must be a safe no-op.

  // Bad grid / backend inside a world: constructor returns NULL.
  ASSERT_EQ(lossyfft_run_ranks(
                2,
                [](lossyfft_comm* comm, void*) {
                  EXPECT_EQ(lossyfft_plan_c2c(comm, 0, 4, 4, 1.0,
                                              LOSSYFFT_BACKEND_PAIRWISE),
                            nullptr);
                  EXPECT_EQ(lossyfft_plan_c2c(comm, 4, 4, 4, 1.0, 99),
                            nullptr);
                  // 1 was the retired linear backend.
                  EXPECT_EQ(lossyfft_plan_c2c(comm, 4, 4, 4, 1.0, 1),
                            nullptr);
                },
                nullptr),
            0);
}

}  // namespace
