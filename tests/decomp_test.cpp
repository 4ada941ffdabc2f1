#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "common/error.hpp"
#include "dfft/decomp.hpp"

namespace lossyfft {
namespace {

TEST(Box3, CountAndEmpty) {
  Box3 b{{0, 0, 0}, {4, 5, 6}};
  EXPECT_EQ(b.count(), 120);
  EXPECT_FALSE(b.empty());
  Box3 e{{1, 1, 1}, {0, 3, 3}};
  EXPECT_TRUE(e.empty());
}

TEST(Box3, Contains) {
  Box3 b{{2, 3, 4}, {2, 2, 2}};
  EXPECT_TRUE(b.contains(2, 3, 4));
  EXPECT_TRUE(b.contains(3, 4, 5));
  EXPECT_FALSE(b.contains(4, 4, 5));
  EXPECT_FALSE(b.contains(1, 3, 4));
}

TEST(Box3, IntersectBasic) {
  Box3 a{{0, 0, 0}, {4, 4, 4}};
  Box3 b{{2, 2, 2}, {4, 4, 4}};
  const Box3 i = Box3::intersect(a, b);
  EXPECT_EQ(i.lo, (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(i.size, (std::array<int, 3>{2, 2, 2}));
}

TEST(Box3, IntersectDisjointIsEmpty) {
  Box3 a{{0, 0, 0}, {2, 2, 2}};
  Box3 b{{5, 0, 0}, {2, 2, 2}};
  EXPECT_TRUE(Box3::intersect(a, b).empty());
  EXPECT_EQ(Box3::intersect(a, b).count(), 0);
}

TEST(ProcGrid3, ProductsAndShape) {
  for (const int p : {1, 2, 3, 4, 6, 8, 12, 24, 27, 64, 96, 100, 1536}) {
    const auto g = proc_grid3(p);
    EXPECT_EQ(g[0] * g[1] * g[2], p) << p;
  }
  EXPECT_EQ(proc_grid3(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(proc_grid3(27), (std::array<int, 3>{3, 3, 3}));
  EXPECT_EQ(proc_grid3(64), (std::array<int, 3>{4, 4, 4}));
}

TEST(ProcGrid2, NearSquare) {
  EXPECT_EQ(proc_grid2(16), (std::array<int, 2>{4, 4}));
  EXPECT_EQ(proc_grid2(12), (std::array<int, 2>{3, 4}));
  EXPECT_EQ(proc_grid2(7), (std::array<int, 2>{1, 7}));
  for (const int p : {1, 2, 6, 30, 96, 1536}) {
    const auto g = proc_grid2(p);
    EXPECT_EQ(g[0] * g[1], p);
    EXPECT_LE(g[0], g[1]);
  }
}

TEST(SplitInterval, BalancedAndExhaustive) {
  for (const auto& [n, parts] : std::vector<std::pair<int, int>>{
           {10, 3}, {7, 7}, {5, 8}, {100, 9}, {0, 4}}) {
    const auto s = split_interval(n, parts);
    ASSERT_EQ(static_cast<int>(s.size()), parts);
    int pos = 0;
    for (const auto& [lo, len] : s) {
      EXPECT_EQ(lo, pos);
      EXPECT_GE(len, 0);
      pos += len;
    }
    EXPECT_EQ(pos, n);
    // Max/min piece differ by at most one.
    int mn = n + 1, mx = -1;
    for (const auto& [lo, len] : s) {
      mn = std::min(mn, len);
      mx = std::max(mx, len);
    }
    EXPECT_LE(mx - mn, 1);
  }
}

// A decomposition must tile the grid exactly: disjoint and covering.
void expect_tiling(const std::vector<Box3>& boxes, std::array<int, 3> n) {
  std::int64_t total = 0;
  for (const auto& b : boxes) total += b.count();
  ASSERT_EQ(total, static_cast<std::int64_t>(n[0]) * n[1] * n[2]);
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      EXPECT_TRUE(Box3::intersect(boxes[i], boxes[j]).empty())
          << i << " vs " << j;
    }
  }
}

class BrickSweep
    : public ::testing::TestWithParam<std::tuple<std::array<int, 3>, int>> {};

TEST_P(BrickSweep, TilesTheGrid) {
  const auto [n, p] = GetParam();
  const auto boxes = split_brick(n, proc_grid3(p));
  ASSERT_EQ(static_cast<int>(boxes.size()), p);
  expect_tiling(boxes, n);
}

TEST_P(BrickSweep, PencilsTileInEveryDirection) {
  const auto [n, p] = GetParam();
  for (int dir = 0; dir < 3; ++dir) {
    const auto boxes = split_pencil(n, dir, p);
    ASSERT_EQ(static_cast<int>(boxes.size()), p);
    expect_tiling(boxes, n);
    for (const auto& b : boxes) {
      if (b.empty()) continue;
      EXPECT_EQ(b.lo[static_cast<std::size_t>(dir)], 0);
      EXPECT_EQ(b.size[static_cast<std::size_t>(dir)],
                n[static_cast<std::size_t>(dir)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsTimesRanks, BrickSweep,
    ::testing::Combine(::testing::Values(std::array<int, 3>{8, 8, 8},
                                         std::array<int, 3>{16, 8, 4},
                                         std::array<int, 3>{7, 9, 11},
                                         std::array<int, 3>{32, 32, 32},
                                         std::array<int, 3>{5, 5, 5}),
                       ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16)));

TEST(SplitPencil, UnevenRankCountGivesEmptyTailBoxes) {
  // More ranks than pencil slots: trailing boxes may be empty but the
  // tiling still holds.
  const auto boxes = split_pencil({4, 4, 4}, 0, 24);
  std::int64_t total = 0;
  for (const auto& b : boxes) total += b.count();
  EXPECT_EQ(total, 64);
}

TEST(Decomp, RejectsBadArguments) {
  EXPECT_THROW(proc_grid3(0), Error);
  EXPECT_THROW(proc_grid2(-1), Error);
  EXPECT_THROW(split_interval(5, 0), Error);
  EXPECT_THROW(split_pencil({4, 4, 4}, 3, 4), Error);
  EXPECT_THROW(split_pencil({4, 4, 4}, 0, std::array<int, 2>{0, 4}), Error);
}

TEST(AdmissibleGrids2, EnumeratesEveryOrderedFactorizationNearSquareFirst) {
  const auto g12 = admissible_grids2(12);
  // 12 = 1*12, 2*6, 3*4, 4*3, 6*2, 12*1 — near-square first, then by a.
  ASSERT_EQ(g12.size(), 6u);
  EXPECT_EQ(g12[0], (std::array<int, 2>{3, 4}));
  EXPECT_EQ(g12[1], (std::array<int, 2>{4, 3}));
  EXPECT_EQ(g12[2], (std::array<int, 2>{2, 6}));
  EXPECT_EQ(g12[3], (std::array<int, 2>{6, 2}));
  EXPECT_EQ(g12[4], (std::array<int, 2>{1, 12}));
  EXPECT_EQ(g12[5], (std::array<int, 2>{12, 1}));
  for (const int p : {1, 2, 7, 16, 24, 96}) {
    std::set<std::array<int, 2>> seen;
    for (const auto& g : admissible_grids2(p)) {
      EXPECT_EQ(g[0] * g[1], p);
      EXPECT_TRUE(seen.insert(g).second) << "duplicate grid for p=" << p;
    }
    // a ranges over every divisor exactly once.
    int divisors = 0;
    for (int a = 1; a <= p; ++a) {
      if (p % a == 0) ++divisors;
    }
    EXPECT_EQ(static_cast<int>(seen.size()), divisors) << p;
  }
}

TEST(ProcGrid2For, MatchesNearSquareWheneverItFits) {
  EXPECT_EQ(proc_grid2_for(16, 8, 8), proc_grid2(16));
  EXPECT_EQ(proc_grid2_for(12, 4, 4), proc_grid2(12));
  EXPECT_EQ(proc_grid2_for(6, 100, 100), proc_grid2(6));
}

TEST(ProcGrid2For, RebalancesPrimeRankCounts) {
  // proc_grid2(7) = {1, 7}: on a 8 x 4 split that leaves 3 of 7 ranks
  // empty (7 > 4). The extent-aware grid flips to {7, 1}: all 7 busy.
  EXPECT_EQ(proc_grid2(7), (std::array<int, 2>{1, 7}));
  const auto g = proc_grid2_for(7, 8, 4);
  EXPECT_EQ(g, (std::array<int, 2>{7, 1}));
  // And every rank owns a nonempty piece.
  const auto pieces = split_interval(8, g[0]);
  for (const auto& pc : pieces) EXPECT_GT(pc[1], 0);
}

TEST(ProcGrid2For, RebalancesOversubscribedExtents) {
  // 24 ranks on extents {4, 50}: the near-square {4, 6} fits, but on
  // {4, 4} no factorization keeps all ranks busy — maximize busy ranks.
  const auto g = proc_grid2_for(24, 4, 4);
  EXPECT_EQ(g[0] * g[1], 24);
  EXPECT_EQ(std::min(g[0], 4) * std::min(g[1], 4), 16);  // Best possible.
  // Every admissible grid is no better.
  for (const auto& h : admissible_grids2(24)) {
    EXPECT_LE(std::min(h[0], 4) * std::min(h[1], 4),
              std::min(g[0], 4) * std::min(g[1], 4));
  }
}

TEST(ProcGrid3For, MatchesNearCubicWheneverItFits) {
  EXPECT_EQ(proc_grid3_for(8, {8, 8, 8}), proc_grid3(8));
  EXPECT_EQ(proc_grid3_for(27, {16, 8, 4}), proc_grid3(27));
  EXPECT_EQ(proc_grid3_for(64, {32, 32, 32}), proc_grid3(64));
}

TEST(ProcGrid3For, RebalancesDegenerateFactorizations) {
  // Prime p on a thin grid: proc_grid3(13) = {1, 1, 13} leaves 9 of 13
  // ranks empty when n = {64, 64, 4}; the extent-aware triple keeps all
  // 13 busy by splitting a long dimension instead.
  const auto g = proc_grid3_for(13, {64, 64, 4});
  EXPECT_EQ(g[0] * g[1] * g[2], 13);
  const std::array<int, 3> n{64, 64, 4};
  long long busy = 1;
  for (int d = 0; d < 3; ++d) {
    busy *= std::min(g[static_cast<std::size_t>(d)],
                     n[static_cast<std::size_t>(d)]);
  }
  EXPECT_EQ(busy, 13);
  // Oversubscribed: p > n in every dimension — no triple keeps everyone
  // busy; the choice must still maximize the busy count over all triples.
  const auto h = proc_grid3_for(64, {2, 2, 2});
  EXPECT_EQ(h[0] * h[1] * h[2], 64);
  EXPECT_EQ(std::min(h[0], 2) * std::min(h[1], 2) * std::min(h[2], 2), 8);
  // The resulting bricks still tile the grid.
  expect_tiling(split_brick({2, 2, 2}, h), {2, 2, 2});
  expect_tiling(split_brick({64, 64, 4}, g), {64, 64, 4});
}

TEST(SubvolumeContiguous, ExactRunDetection) {
  const Box3 box{{4, 8, 0}, {6, 5, 4}};
  // Empty sub-volume: trivially contiguous.
  EXPECT_TRUE(subvolume_contiguous(box, Box3{{4, 8, 0}, {0, 0, 0}}));
  // The whole box.
  EXPECT_TRUE(subvolume_contiguous(box, box));
  // Full x/y cross-sections over a z range: one run.
  EXPECT_TRUE(subvolume_contiguous(box, Box3{{4, 8, 1}, {6, 5, 2}}));
  // Full x rows over a y range within one z plane: one run.
  EXPECT_TRUE(subvolume_contiguous(box, Box3{{4, 9, 2}, {6, 3, 1}}));
  // Partial x with a single row: one run.
  EXPECT_TRUE(subvolume_contiguous(box, Box3{{5, 9, 2}, {3, 1, 1}}));
  // Partial x with multiple rows: strided.
  EXPECT_FALSE(subvolume_contiguous(box, Box3{{5, 9, 2}, {3, 2, 1}}));
  // Full x but partial y across multiple z planes: strided.
  EXPECT_FALSE(subvolume_contiguous(box, Box3{{4, 9, 1}, {6, 3, 2}}));
}

}  // namespace
}  // namespace lossyfft
