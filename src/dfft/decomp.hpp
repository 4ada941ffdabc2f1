// Domain decompositions for the distributed 3-D FFT: near-cubic brick
// grids for input/output (Fig. 1 leftmost/rightmost states) and pencil
// grids with the full extent in the transform direction (the intermediate
// states). Every rank derives all boxes deterministically, so reshape
// planning needs no communication.
#pragma once

#include <array>
#include <vector>

#include "dfft/box.hpp"

namespace lossyfft {

/// Factor p into a near-cubic 3-D process grid (p0*p1*p2 == p, sorted so
/// the largest factor lands on the slowest dimension).
std::array<int, 3> proc_grid3(int p);

/// Factor p into a near-square 2-D process grid.
std::array<int, 2> proc_grid2(int p);

/// Every ordered factorization p = a*b with a, b >= 1, sorted by
/// |a - b| (near-square first) then by a — the admissible 2-D process
/// grids the decomposition tuner enumerates. The first entry that fits
/// the grid extents is what proc_grid2_for picks.
std::vector<std::array<int, 2>> admissible_grids2(int p);

/// Extent-aware near-square grid: among all factorizations of p, pick the
/// one maximizing the number of non-empty ranks when factor a splits an
/// extent-e1 dimension and b an extent-e2 one (ties broken near-square,
/// then by smaller a). Identical to proc_grid2 whenever that grid fits
/// both extents; rebalances the degenerate cases (prime p, p > extent)
/// where the near-square split would leave zero-extent local boxes.
std::array<int, 2> proc_grid2_for(int p, int e1, int e2);

/// Extent-aware near-cubic grid for split_brick over grid `n`: the
/// factor triple maximizing non-empty ranks, ties broken by surface
/// (most cubic) then lexicographically. Identical to proc_grid3 whenever
/// that triple fits all three extents.
std::array<int, 3> proc_grid3_for(int p, std::array<int, 3> n);

/// Balanced 1-D split of n points into parts pieces; piece i gets
/// n/parts + (i < n%parts ? 1 : 0) points.
std::vector<std::array<int, 2>> split_interval(int n, int parts);

/// Brick decomposition of grid `n` over process grid `pg`; result[r] is
/// rank r's box with rank = c0 + pg0*(c1 + pg1*c2).
std::vector<Box3> split_brick(std::array<int, 3> n, std::array<int, 3> pg);

/// Pencil decomposition with full extent in direction `dir`: the other two
/// dimensions are split over proc_grid2(p) (lower dimension index gets the
/// first factor).
std::vector<Box3> split_pencil(std::array<int, 3> n, int dir, int p);

/// Pencil decomposition with an explicit process grid {a, b}: the lower
/// of the two non-dir dimensions is split into a pieces, the higher into
/// b. split_pencil(n, dir, p) == split_pencil(n, dir, proc_grid2(p)).
std::vector<Box3> split_pencil(std::array<int, 3> n, int dir,
                               std::array<int, 2> grid);

/// Fft3dOptions::pencil_grid's rule: split_pencil over `grid` when both
/// factors are set, else over the extent-aware near-square grid of the
/// two split dimensions (proc_grid2_for).
std::vector<Box3> split_pencil_for(std::array<int, 3> n, int dir, int p,
                                   std::array<int, 2> grid);

/// True when `sub`'s elements occupy one contiguous run of `box`'s
/// x-fastest local storage — the geometry test that lets a reshape elide
/// its pack stage and exchange straight out of the field (sub must lie
/// inside box).
bool subvolume_contiguous(const Box3& box, const Box3& sub);

}  // namespace lossyfft
