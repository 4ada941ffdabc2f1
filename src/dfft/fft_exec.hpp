// The stage loop of the distributed 3-D FFTs, and the sharded batched 1-D
// FFT stages it drives — the compute-side twin of the reshape pack/unpack
// fan-out.
//
// A pipeline is a list of stages (Fig. 1's chain, planned the way
// P3DFFT++ plans a transform): each stage reshapes into a layout and runs
// the 1-D FFTs of its dimensions there. One shared Fft1d plan per
// dimension runs every line of a stage; the lines reach the plan as whole
// affine batches (so the lane kernel runs them B at a time), shards are
// contiguous line ranges, and every shard owns a private Fft1d Workspace,
// so the plan stays read-only and results are bitwise identical at every
// shard count.
//
// Internal to dfft: Fft3d and Fft3dR2c hold their pipelines in these types.
#pragma once

#include <algorithm>
#include <array>
#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/worker_pool.hpp"
#include "dfft/box.hpp"
#include "dfft/reshape.hpp"
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

/// One pipeline stage: a reshape into this rank's `box`, then the 1-D FFTs
/// along each of `dims`, in order. A stage with no dims only moves data.
template <typename T>
struct Stage {
  std::unique_ptr<Reshape<std::complex<T>>> reshape;
  Box3 box;
  std::vector<int> dims;
};

/// Plan the pipeline through `layouts`: stage i reshapes layouts[i] into
/// layouts[i + 1] and transforms dims[i] there. Collective, like every
/// Reshape: all ranks plan the same list in the same order.
template <typename T>
std::vector<Stage<T>> plan_stages(minimpi::Comm& comm,
                                  const std::vector<std::vector<Box3>>& layouts,
                                  const std::vector<std::vector<int>>& dims,
                                  const ReshapeOptions& ro) {
  const auto me = static_cast<std::size_t>(comm.rank());
  std::vector<Stage<T>> stages;
  for (std::size_t i = 0; i + 1 < layouts.size(); ++i) {
    stages.push_back({std::make_unique<Reshape<std::complex<T>>>(
                          comm, layouts[i], layouts[i + 1], ro),
                      layouts[i + 1][me], dims[i]});
  }
  return stages;
}

/// The 1-D side of a pipeline: one plan per grid dimension (null where no
/// stage transforms it), each plan's per-shard workspaces, and the
/// Fft3dOptions::fft_workers fan-out.
template <typename T>
struct LinePlans {
  std::array<std::unique_ptr<Fft1d<T>>, 3> plan;
  std::array<std::vector<typename Fft1d<T>::Workspace>, 3> ws;
  int workers = 1;
};

/// The stage loop: run `stages` over `fields` consecutive banks of `in`
/// (1 <= fields <= the reshapes' batch capacity). Stage i lands in
/// work[i % 2] and the last stage in `out`; a caller whose `in` already
/// sits in a work buffer passes that buffer as work[1], so every stage
/// lands in the buffer its input is not in. Each stage transforms field by
/// field, sharded by the size of one field's box. Inverse passes run the
/// same stages: 1-D FFT directions commute.
template <typename T>
void run_stages(const std::vector<Stage<T>>& stages, LinePlans<T>& ffts,
                std::span<const std::complex<T>> in,
                std::span<std::complex<T>> out,
                std::array<std::complex<T>*, 2> work, FftDirection dir,
                int fields) {
  const auto nf = static_cast<std::size_t>(fields);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage<T>& st = stages[i];
    const auto ext = static_cast<std::size_t>(st.box.count());
    const std::span<std::complex<T>> dst =
        i + 1 == stages.size()
            ? out
            : std::span<std::complex<T>>(work[i % 2], nf * ext);
    st.reshape->execute_batch(in, dst, fields);
    if (!st.dims.empty() && !st.box.empty()) {
      const int shards = WorkerPool::effective_shards(
          ffts.workers, ext * sizeof(std::complex<T>));
      for (std::size_t f = 0; f < nf; ++f) {
        for (const int d : st.dims) {
          const auto k = static_cast<std::size_t>(d);
          run_fft_lines(*ffts.plan[k], pencil_lines(d, st.box),
                        dst.data() + f * ext, dir, shards, ffts.ws[k]);
        }
      }
    }
    in = dst;
  }
}

}  // namespace lossyfft::detail
