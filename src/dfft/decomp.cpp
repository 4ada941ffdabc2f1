#include "dfft/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace lossyfft {

namespace {

// All ways of writing p = a*b with a <= b, scanned from sqrt(p) down.
std::array<int, 2> nearest_factor_pair(int p) {
  for (int a = static_cast<int>(std::sqrt(static_cast<double>(p))); a >= 1;
       --a) {
    if (p % a == 0) return {a, p / a};
  }
  return {1, p};
}

}  // namespace

std::array<int, 3> proc_grid3(int p) {
  LFFT_REQUIRE(p > 0, "proc_grid3: p must be positive");
  // Pick the divisor triple minimizing surface (closest to a cube).
  std::array<int, 3> best = {1, 1, p};
  long long best_score = -1;
  for (int a = 1; a * a * a <= p; ++a) {
    if (p % a != 0) continue;
    const int q = p / a;
    for (int b = a; b * b <= q; ++b) {
      if (q % b != 0) continue;
      const int c = q / b;
      // Surface of an (a, b, c) box; smaller is more cubic.
      const long long score = static_cast<long long>(a) * b +
                              static_cast<long long>(b) * c +
                              static_cast<long long>(a) * c;
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best = {a, b, c};
      }
    }
  }
  return best;
}

std::array<int, 2> proc_grid2(int p) {
  LFFT_REQUIRE(p > 0, "proc_grid2: p must be positive");
  return nearest_factor_pair(p);
}

std::vector<std::array<int, 2>> admissible_grids2(int p) {
  LFFT_REQUIRE(p > 0, "admissible_grids2: p must be positive");
  std::vector<std::array<int, 2>> grids;
  for (int a = 1; a <= p; ++a) {
    if (p % a == 0) grids.push_back({a, p / a});
  }
  std::sort(grids.begin(), grids.end(),
            [](const std::array<int, 2>& x, const std::array<int, 2>& y) {
              const int dx = std::abs(x[0] - x[1]);
              const int dy = std::abs(y[0] - y[1]);
              return dx != dy ? dx < dy : x[0] < y[0];
            });
  return grids;
}

std::array<int, 2> proc_grid2_for(int p, int e1, int e2) {
  LFFT_REQUIRE(p > 0 && e1 >= 1 && e2 >= 1, "proc_grid2_for: bad arguments");
  // Maximize the non-empty rank count: a balanced split_interval leaves
  // exactly max(0, parts - extent) ranks with zero-extent pieces, so a
  // grid {a, b} keeps min(a, e1) * min(b, e2) ranks busy. The admissible
  // list is near-square-first, so the first maximum is the tie-break.
  std::array<int, 2> best = proc_grid2(p);
  long long best_busy = -1;
  for (const auto& g : admissible_grids2(p)) {
    const long long busy = static_cast<long long>(std::min(g[0], e1)) *
                           static_cast<long long>(std::min(g[1], e2));
    if (busy > best_busy) {
      best_busy = busy;
      best = g;
    }
  }
  return best;
}

std::array<int, 3> proc_grid3_for(int p, std::array<int, 3> n) {
  LFFT_REQUIRE(p > 0 && n[0] >= 1 && n[1] >= 1 && n[2] >= 1,
               "proc_grid3_for: bad arguments");
  std::array<int, 3> best = proc_grid3(p);
  long long best_busy = -1;
  long long best_score = -1;
  for (int a = 1; a <= p; ++a) {
    if (p % a != 0) continue;
    const int q = p / a;
    for (int b = 1; b <= q; ++b) {
      if (q % b != 0) continue;
      const int c = q / b;
      const long long busy = static_cast<long long>(std::min(a, n[0])) *
                             static_cast<long long>(std::min(b, n[1])) *
                             static_cast<long long>(std::min(c, n[2]));
      const long long score = static_cast<long long>(a) * b +
                              static_cast<long long>(b) * c +
                              static_cast<long long>(a) * c;
      // Busiest grid wins; among those the most cubic; the ordered (a, b,
      // c) scan then makes the lexicographically smallest permutation the
      // final tie-break (which is proc_grid3's sorted triple).
      if (busy > best_busy || (busy == best_busy && score < best_score)) {
        best_busy = busy;
        best_score = score;
        best = {a, b, c};
      }
    }
  }
  return best;
}

std::vector<std::array<int, 2>> split_interval(int n, int parts) {
  LFFT_REQUIRE(n >= 0 && parts > 0, "split_interval: bad arguments");
  std::vector<std::array<int, 2>> out(static_cast<std::size_t>(parts));
  const int base = n / parts;
  const int extra = n % parts;
  int pos = 0;
  for (int i = 0; i < parts; ++i) {
    const int len = base + (i < extra ? 1 : 0);
    out[static_cast<std::size_t>(i)] = {pos, len};
    pos += len;
  }
  return out;
}

std::vector<Box3> split_brick(std::array<int, 3> n, std::array<int, 3> pg) {
  const auto sx = split_interval(n[0], pg[0]);
  const auto sy = split_interval(n[1], pg[1]);
  const auto sz = split_interval(n[2], pg[2]);
  std::vector<Box3> boxes;
  boxes.reserve(static_cast<std::size_t>(pg[0]) * pg[1] * pg[2]);
  for (int c2 = 0; c2 < pg[2]; ++c2) {
    for (int c1 = 0; c1 < pg[1]; ++c1) {
      for (int c0 = 0; c0 < pg[0]; ++c0) {
        Box3 b;
        b.lo = {sx[static_cast<std::size_t>(c0)][0],
                sy[static_cast<std::size_t>(c1)][0],
                sz[static_cast<std::size_t>(c2)][0]};
        b.size = {sx[static_cast<std::size_t>(c0)][1],
                  sy[static_cast<std::size_t>(c1)][1],
                  sz[static_cast<std::size_t>(c2)][1]};
        boxes.push_back(b);
      }
    }
  }
  return boxes;
}

std::vector<Box3> split_pencil(std::array<int, 3> n, int dir, int p) {
  return split_pencil(n, dir, proc_grid2(p));
}

std::vector<Box3> split_pencil(std::array<int, 3> n, int dir,
                               std::array<int, 2> grid) {
  LFFT_REQUIRE(dir >= 0 && dir < 3, "split_pencil: bad direction");
  LFFT_REQUIRE(grid[0] >= 1 && grid[1] >= 1, "split_pencil: bad grid");
  std::array<int, 3> pg{};
  // Full extent in `dir`; the remaining dimensions (in increasing index
  // order) get the two process-grid factors.
  const int d1 = dir == 0 ? 1 : 0;
  const int d2 = dir == 2 ? 1 : 2;
  pg[static_cast<std::size_t>(dir)] = 1;
  pg[static_cast<std::size_t>(d1)] = grid[0];
  pg[static_cast<std::size_t>(d2)] = grid[1];
  return split_brick(n, pg);
}

std::vector<Box3> split_pencil_for(std::array<int, 3> n, int dir, int p,
                                   std::array<int, 2> grid) {
  if (grid[0] >= 1 && grid[1] >= 1) return split_pencil(n, dir, grid);
  const int d1 = dir == 0 ? 1 : 0;
  const int d2 = dir == 2 ? 1 : 2;
  return split_pencil(n, dir,
                      proc_grid2_for(p, n[static_cast<std::size_t>(d1)],
                                     n[static_cast<std::size_t>(d2)]));
}

bool subvolume_contiguous(const Box3& box, const Box3& sub) {
  if (sub.empty()) return true;
  // x-fastest storage: a multi-plane sub needs full x and y rows of the
  // box; a single-plane multi-row sub needs full x rows; one row is
  // always a single run.
  if (sub.size[2] > 1) {
    return sub.size[0] == box.size[0] && sub.size[1] == box.size[1];
  }
  if (sub.size[1] > 1) return sub.size[0] == box.size[0];
  return true;
}

}  // namespace lossyfft
