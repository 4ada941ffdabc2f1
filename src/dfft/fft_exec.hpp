// Sharded execution of batched 1-D FFT stages — the compute-side twin of
// the reshape pack/unpack fan-out. One shared Fft1d plan runs every line
// of a pencil stage; the lines reach the plan as whole affine batches (so
// the lane kernel runs them B at a time), shards are contiguous line
// ranges, and every shard owns a private Fft1d Workspace, so the plan
// stays read-only and results are bitwise identical at every shard count.
//
// Internal to dfft (fft3d.cpp / fft3d_r2c.cpp).
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <vector>

#include "common/worker_pool.hpp"
#include "dfft/box.hpp"
#include "fft/fft1d.hpp"

namespace lossyfft::detail {

/// The lines of one stage: `planes` planes of `per_plane` lines; line i of
/// plane k starts at k*plane_stride + i*line_stride, its elements `stride`
/// apart (all in elements).
struct LineLayout {
  std::size_t planes = 1;
  std::size_t per_plane = 0;
  std::ptrdiff_t plane_stride = 0;
  std::ptrdiff_t line_stride = 0;
  std::ptrdiff_t stride = 1;
};

/// The lines along dimension `dir` of `box`, stored x fastest: x: sy*sz
/// lines sx apart; y: per z-plane, sx adjacent lines at stride sx; z: sx*sy
/// adjacent lines at stride sx*sy.
inline LineLayout pencil_lines(int dir, const Box3& box) {
  const auto sx = static_cast<std::size_t>(box.size[0]);
  const auto sy = static_cast<std::size_t>(box.size[1]);
  const auto sz = static_cast<std::size_t>(box.size[2]);
  const auto isx = static_cast<std::ptrdiff_t>(sx);
  const auto isy = static_cast<std::ptrdiff_t>(sy);
  switch (dir) {
    case 0: return {1, sy * sz, 0, isx, 1};
    case 1: return {sz, sx, isx * isy, 1, isx};
    default: return {1, sx * sy, 0, 1, isx * isy};
  }
}

/// Run every line of `lines` in `data` through `plan`. `shards` is the
/// resolved fan-out (see WorkerPool::effective_shards); <= 1 runs serially
/// on the caller with the plan's own workspace. `ws` caches one workspace
/// per shard, grown on demand and reused across calls so steady-state
/// stages allocate nothing. Lines are pure compute over disjoint elements —
/// safe on pool workers next to rank threads.
template <typename T>
void run_fft_lines(const Fft1d<T>& plan, const LineLayout& lines,
                   std::complex<T>* data, FftDirection dir, int shards,
                   std::vector<typename Fft1d<T>::Workspace>& ws) {
  const std::size_t total = lines.planes * lines.per_plane;
  if (total == 0) return;
  // Lines [l0, l1) as one transform_strided call per plane they touch.
  const auto run_range = [&](std::size_t l0, std::size_t l1,
                             typename Fft1d<T>::Workspace* w) {
    while (l0 < l1) {
      const std::size_t k = l0 / lines.per_plane;
      const std::size_t i = l0 % lines.per_plane;
      const std::size_t count = std::min(l1 - l0, lines.per_plane - i);
      std::complex<T>* base =
          data + static_cast<std::ptrdiff_t>(k) * lines.plane_stride +
          static_cast<std::ptrdiff_t>(i) * lines.line_stride;
      if (w != nullptr) {
        plan.transform_strided(base, lines.stride, count, lines.line_stride,
                               dir, *w);
      } else {
        plan.transform_strided(base, lines.stride, count, lines.line_stride,
                               dir);
      }
      l0 += count;
    }
  };
  const std::size_t nshards = std::min<std::size_t>(
      static_cast<std::size_t>(shards < 1 ? 1 : shards), total);
  if (nshards <= 1) {
    run_range(0, total, nullptr);
    return;
  }
  while (ws.size() < nshards) ws.push_back(plan.make_workspace());
  const std::size_t per = (total + nshards - 1) / nshards;
  WorkerPool::global().parallel_for(
      nshards, 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const std::size_t l0 = std::min(total, s * per);
          run_range(l0, std::min(total, l0 + per), &ws[s]);
        }
      },
      static_cast<int>(nshards));
}

}  // namespace lossyfft::detail
