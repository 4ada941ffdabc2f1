#include "dfft/fft3d_r2c.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/worker_pool.hpp"
#include "compress/planner.hpp"
#include "dfft/decomp.hpp"

namespace lossyfft {

namespace {

// The reduced-grid x-pencils reuse the y/z splits of the real x-pencils;
// only the x extent changes to nx/2+1 (empty boxes stay empty).
std::vector<Box3> reduce_xpencils(std::vector<Box3> pencils, int hx) {
  for (auto& b : pencils) {
    if (b.empty()) continue;
    b.lo[0] = 0;
    b.size[0] = hx;
  }
  return pencils;
}

// Shard `lines` independent r2c/c2r x-lines across the pool on per-shard
// FftR2c workspaces (the same shareable-plan split run_fft_lines gives the
// complex stages). Lines are disjoint, shard boundaries are static, so the
// result is bitwise identical to the serial loop. `line(l, ws)` runs one
// line; a null ws means "use the plan's default workspace" (serial path).
template <typename T, typename LineFn>
void run_r2c_lines(std::size_t lines, int shards, const FftR2c<T>& plan,
                   std::vector<typename FftR2c<T>::Workspace>& ws,
                   const LineFn& line) {
  if (lines == 0) return;
  const std::size_t ns =
      std::min<std::size_t>(shards < 1 ? 1 : static_cast<std::size_t>(shards),
                            lines);
  if (ns <= 1 || WorkerPool::global().workers() == 0) {
    for (std::size_t l = 0; l < lines; ++l) {
      line(l, static_cast<typename FftR2c<T>::Workspace*>(nullptr));
    }
    return;
  }
  while (ws.size() < ns) ws.push_back(plan.make_workspace());
  const std::size_t per = (lines + ns - 1) / ns;
  WorkerPool::global().parallel_for(
      ns, 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const std::size_t begin = s * per;
          const std::size_t end = std::min(lines, begin + per);
          for (std::size_t l = begin; l < end; ++l) line(l, &ws[s]);
        }
      },
      static_cast<int>(ns));
}

}  // namespace

template <typename T>
Fft3dR2c<T>::Fft3dR2c(minimpi::Comm& comm, std::array<int, 3> n,
                      Fft3dOptions options)
    : comm_(comm), n_(n), options_(options) {
  LFFT_REQUIRE(n[0] >= 1 && n[1] >= 1 && n[2] >= 1,
               "fft3d_r2c: grid extents must be >= 1");
  nr_ = {n_[0] / 2 + 1, n_[1], n_[2]};
  const int p = comm.size();
  const auto me = static_cast<std::size_t>(comm.rank());

  // The r2c pipeline is always pencil-shaped (the half-spectrum x stage
  // precludes a slab variant), so kAuto here resolves only the pencil
  // process grid of the spectral-grid pipeline; a slab verdict keeps the
  // near-square default.
  detail::resolve_decomp(comm_, nr_, sizeof(std::complex<T>), options_);
  options_.algorithm = FftAlgorithm::kPencil;
  const auto& grid = options_.pencil_grid;
  // Extent-aware grids: identical to proc_grid3/proc_grid2 whenever those
  // fit, rebalanced when they would leave zero-extent boxes.
  const auto real_bricks = split_brick(n_, proc_grid3_for(p, n_));
  const auto xp_real = split_pencil_for(n_, 0, p, grid);
  const auto xp_spec = reduce_xpencils(xp_real, nr_[0]);
  const auto yp = split_pencil_for(nr_, 1, p, grid);
  const auto zp = split_pencil_for(nr_, 2, p, grid);
  const auto spec_bricks = split_brick(nr_, proc_grid3_for(p, nr_));
  real_box_ = real_bricks[me];
  spec_box_ = spec_bricks[me];
  xp_real_ = xp_real[me];
  xp_spec_ = xp_spec[me];

  // No entry point batches an r2c transform, so no reshape pins banks
  // for more than one field.
  auto ropts = options_.reshape_options();
  ropts.batch = 1;
  to_xpencil_ =
      std::make_unique<Reshape<T>>(comm_, real_bricks, xp_real, ropts);
  from_xpencil_ =
      std::make_unique<Reshape<T>>(comm_, xp_real, real_bricks, ropts);
  fwd_ = detail::plan_stages<T>(comm_, {xp_spec, yp, zp, spec_bricks},
                                {{1}, {2}, {}}, ropts);
  bwd_ = detail::plan_stages<T>(comm_, {spec_bricks, zp, yp, xp_spec},
                                {{2}, {1}, {}}, ropts);

  r2c_ = std::make_unique<FftR2c<T>>(static_cast<std::size_t>(n_[0]));
  for (const std::size_t d : {1, 2}) {
    fft_.plan[d] =
        std::make_unique<Fft1d<T>>(static_cast<std::size_t>(n_[d]));
  }
  fft_.workers = options_.fft_workers;

  real_work_.resize(static_cast<std::size_t>(xp_real_.count()));
  work_a_.resize(std::max(static_cast<std::size_t>(xp_spec_.count()),
                          static_cast<std::size_t>(zp[me].count())));
  work_b_.resize(static_cast<std::size_t>(yp[me].count()));
}

template <typename T>
Fft3dR2c<T>::Fft3dR2c(minimpi::Comm& comm, std::array<int, 3> n, double e_tol,
                      Fft3dOptions options)
    : Fft3dR2c(comm, n, [&] {
        options.codec = plan_codec(e_tol, CodecFamily::kTruncation);
        return options;
      }()) {}

template <typename T>
void Fft3dR2c<T>::run_x(FftDirection dir) {
  // Line by line; both layouts are x-fastest.
  const auto lines = static_cast<std::size_t>(xp_real_.size[1]) *
                     static_cast<std::size_t>(xp_real_.size[2]);
  const auto nx = static_cast<std::size_t>(n_[0]);
  const auto hx = static_cast<std::size_t>(nr_[0]);
  const int shards = WorkerPool::effective_shards(options_.fft_workers,
                                                  lines * nx * sizeof(T));
  run_r2c_lines(lines, shards, *r2c_, r2c_ws_,
                [&](std::size_t l, typename FftR2c<T>::Workspace* ws) {
                  T* re = real_work_.data() + l * nx;
                  std::complex<T>* sp = work_a_.data() + l * hx;
                  const bool fwd = dir == FftDirection::kForward;
                  if (fwd && ws) {
                    r2c_->forward(re, sp, *ws);
                  } else if (fwd) {
                    r2c_->forward(re, sp);
                  } else if (ws) {
                    r2c_->inverse(sp, re, *ws);
                  } else {
                    r2c_->inverse(sp, re);
                  }
                });
}

template <typename T>
void Fft3dR2c<T>::forward(std::span<const T> in,
                          std::span<std::complex<T>> out) {
  LFFT_REQUIRE(in.size() == real_count(), "fft3d_r2c: input size mismatch");
  LFFT_REQUIRE(out.size() == spectral_count(),
               "fft3d_r2c: output size mismatch");
  to_xpencil_->execute(in, std::span<T>(real_work_));
  run_x(FftDirection::kForward);
  const std::span<const std::complex<T>> xp(
      work_a_.data(), static_cast<std::size_t>(xp_spec_.count()));
  detail::run_stages(fwd_, fft_, xp, out, {work_b_.data(), work_a_.data()},
                     FftDirection::kForward, 1);
  detail::apply_scaling<T>(out, options_.scaling, FftDirection::kForward,
                           static_cast<double>(n_[0]) * n_[1] * n_[2]);
}

template <typename T>
void Fft3dR2c<T>::backward(std::span<const std::complex<T>> in,
                           std::span<T> out) {
  LFFT_REQUIRE(in.size() == spectral_count(),
               "fft3d_r2c: input size mismatch");
  LFFT_REQUIRE(out.size() == real_count(), "fft3d_r2c: output size mismatch");
  const std::span<std::complex<T>> xp(
      work_a_.data(), static_cast<std::size_t>(xp_spec_.count()));
  detail::run_stages(bwd_, fft_, in, xp, {work_a_.data(), work_b_.data()},
                     FftDirection::kInverse, 1);
  run_x(FftDirection::kInverse);
  from_xpencil_->execute(std::span<const T>(real_work_), out);
  detail::apply_scaling<T>(out, options_.scaling, FftDirection::kInverse,
                           static_cast<double>(n_[0]) * n_[1] * n_[2]);
}

template <typename T>
osc::ExchangeStats Fft3dR2c<T>::stats() const {
  osc::ExchangeStats total;
  total.accumulate(to_xpencil_->stats());
  total.accumulate(from_xpencil_->stats());
  for (const auto& st : fwd_) total.accumulate(st.reshape->stats());
  for (const auto& st : bwd_) total.accumulate(st.reshape->stats());
  return total;
}

template class Fft3dR2c<float>;
template class Fft3dR2c<double>;

}  // namespace lossyfft
