#include "dfft/fft3d_r2c.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/worker_pool.hpp"
#include "compress/planner.hpp"
#include "dfft/decomp.hpp"
#include "dfft/fft_exec.hpp"
#include "tuner/tuner.hpp"

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

  if (options_.algorithm == FftAlgorithm::kAuto) {
    // The r2c pipeline is always pencil-shaped (the half-spectrum x stage
    // precludes a slab variant), so kAuto here resolves only the pencil
    // process grid: rank 0 prices the spectral-grid pipeline and
    // broadcasts; a slab verdict keeps the near-square default.
    tuner::DecompSignature sig;
    sig.n = nr_;
    sig.p = p;
    sig.gpn = options_.gpus_per_node > 0 ? options_.gpus_per_node : 1;
    sig.codec = options_.codec;
    sig.elem_bytes = sizeof(std::complex<T>);
    tuner::DecompDecision d;
    if (comm.rank() == 0) d = tuner::Tuner::global().decide_decomp(sig);
    comm.bcast(std::span<tuner::DecompDecision>(&d, 1), 0);
    options_.algorithm = FftAlgorithm::kPencil;
    if (d.algorithm == tuner::DecompAlgorithm::kPencil) {
      options_.pencil_grid = d.grid;
    }
  }
  // Extent-aware grids: identical to proc_grid3/proc_grid2 whenever those
  // fit, rebalanced when they would leave zero-extent boxes.
  const auto pgrid = [&](std::array<int, 3> gn, int dir) {
    if (options_.pencil_grid[0] >= 1 && options_.pencil_grid[1] >= 1) {
      return options_.pencil_grid;
    }
    const int d1 = dir == 0 ? 1 : 0;
    const int d2 = dir == 2 ? 1 : 2;
    return proc_grid2_for(p, gn[static_cast<std::size_t>(d1)],
                          gn[static_cast<std::size_t>(d2)]);
  };
  const auto real_bricks = split_brick(n_, proc_grid3_for(p, n_));
  const auto xp_real = split_pencil(n_, 0, pgrid(n_, 0));
  const auto xp_spec = reduce_xpencils(xp_real, nr_[0]);
  const auto yp = split_pencil(nr_, 1, pgrid(nr_, 1));
  const auto zp = split_pencil(nr_, 2, pgrid(nr_, 2));
  const auto spec_bricks = split_brick(nr_, proc_grid3_for(p, nr_));

  real_box_ = real_bricks[me];
  spec_box_ = spec_bricks[me];
  xp_real_ = xp_real[me];
  xp_spec_ = xp_spec[me];
  yp_ = yp[me];
  zp_ = zp[me];

  const auto ropts = options_.reshape_options();
  to_xpencil_ = std::make_unique<Reshape<T>>(comm_, real_bricks, xp_real, ropts);
  from_xpencil_ =
      std::make_unique<Reshape<T>>(comm_, xp_real, real_bricks, ropts);
  fwd_[0] = std::make_unique<Reshape<std::complex<T>>>(comm_, xp_spec, yp, ropts);
  fwd_[1] = std::make_unique<Reshape<std::complex<T>>>(comm_, yp, zp, ropts);
  fwd_[2] =
      std::make_unique<Reshape<std::complex<T>>>(comm_, zp, spec_bricks, ropts);
  bwd_[0] =
      std::make_unique<Reshape<std::complex<T>>>(comm_, spec_bricks, zp, ropts);
  bwd_[1] = std::make_unique<Reshape<std::complex<T>>>(comm_, zp, yp, ropts);
  bwd_[2] = std::make_unique<Reshape<std::complex<T>>>(comm_, yp, xp_spec, ropts);

  r2c_ = std::make_unique<FftR2c<T>>(static_cast<std::size_t>(n_[0]));
  fft_y_ = std::make_unique<Fft1d<T>>(static_cast<std::size_t>(n_[1]));
  fft_z_ = std::make_unique<Fft1d<T>>(static_cast<std::size_t>(n_[2]));

  real_work_.resize(static_cast<std::size_t>(xp_real_.count()));
  work_a_.resize(std::max(static_cast<std::size_t>(xp_spec_.count()),
                          static_cast<std::size_t>(zp_.count())));
  work_b_.resize(static_cast<std::size_t>(yp_.count()));
}

template <typename T>
Fft3dR2c<T>::Fft3dR2c(minimpi::Comm& comm, std::array<int, 3> n, double e_tol,
                      Fft3dOptions options)
    : Fft3dR2c(comm, n, [&] {
        options.codec = plan_codec(e_tol, CodecFamily::kTruncation);
        return options;
      }()) {}

template <typename T>
void Fft3dR2c<T>::scale_spectral(std::span<std::complex<T>> data,
                                 bool forward) const {
  const double N = static_cast<double>(n_[0]) * n_[1] * n_[2];
  double s = 1.0;
  switch (options_.scaling) {
    case Scaling::kBackward: s = 1.0; break;  // 1-D stages handle it.
    case Scaling::kForward: s = forward ? 1.0 / N : N; break;
    case Scaling::kNone: s = forward ? 1.0 : N; break;
    case Scaling::kSymmetric: s = forward ? 1.0 / std::sqrt(N) : std::sqrt(N);
      break;
  }
  if (s != 1.0) {
    const T st = static_cast<T>(s);
    for (auto& v : data) v *= st;
  }
}

template <typename T>
void Fft3dR2c<T>::forward(std::span<const T> in,
                          std::span<std::complex<T>> out) {
  LFFT_REQUIRE(in.size() == real_count(), "fft3d_r2c: input size mismatch");
  LFFT_REQUIRE(out.size() == spectral_count(),
               "fft3d_r2c: output size mismatch");

  // Real brick -> real x-pencils.
  to_xpencil_->execute(in, std::span<T>(real_work_));

  // r2c along x, line by line (both layouts are x-fastest).
  const auto lines = static_cast<std::size_t>(xp_real_.size[1]) *
                     static_cast<std::size_t>(xp_real_.size[2]);
  const auto nx = static_cast<std::size_t>(n_[0]);
  const auto hx = static_cast<std::size_t>(nr_[0]);
  std::span<std::complex<T>> xp(work_a_.data(),
                                static_cast<std::size_t>(xp_spec_.count()));
  {
    const int shards = WorkerPool::effective_shards(
        options_.fft_workers, lines * nx * sizeof(T));
    run_r2c_lines(lines, shards, *r2c_, r2c_ws_,
                  [&](std::size_t l, typename FftR2c<T>::Workspace* ws) {
                    const T* src = real_work_.data() + l * nx;
                    std::complex<T>* dst = xp.data() + l * hx;
                    if (ws) {
                      r2c_->forward(src, dst, *ws);
                    } else {
                      r2c_->forward(src, dst);
                    }
                  });
  }

  // Reduced-grid pencils: y then z, then out to the spectral bricks.
  std::span<std::complex<T>> ypv(work_b_.data(),
                                 static_cast<std::size_t>(yp_.count()));
  fwd_[0]->execute(xp, ypv);
  if (!yp_.empty()) {
    const int shards = WorkerPool::effective_shards(
        options_.fft_workers,
        static_cast<std::size_t>(yp_.count()) * sizeof(std::complex<T>));
    detail::run_fft_lines(*fft_y_, detail::pencil_lines(1, yp_), ypv.data(),
                          FftDirection::kForward, shards, fft_y_ws_);
  }
  std::span<std::complex<T>> zpv(work_a_.data(),
                                 static_cast<std::size_t>(zp_.count()));
  fwd_[1]->execute(ypv, zpv);
  if (!zp_.empty()) {
    const int shards = WorkerPool::effective_shards(
        options_.fft_workers,
        static_cast<std::size_t>(zp_.count()) * sizeof(std::complex<T>));
    detail::run_fft_lines(*fft_z_, detail::pencil_lines(2, zp_), zpv.data(),
                          FftDirection::kForward, shards, fft_z_ws_);
  }
  fwd_[2]->execute(zpv, out);
  scale_spectral(out, /*forward=*/true);
}

template <typename T>
void Fft3dR2c<T>::backward(std::span<const std::complex<T>> in,
                           std::span<T> out) {
  LFFT_REQUIRE(in.size() == spectral_count(),
               "fft3d_r2c: input size mismatch");
  LFFT_REQUIRE(out.size() == real_count(), "fft3d_r2c: output size mismatch");

  std::span<std::complex<T>> zpv(work_a_.data(),
                                 static_cast<std::size_t>(zp_.count()));
  bwd_[0]->execute(in, zpv);
  if (!zp_.empty()) {
    const int shards = WorkerPool::effective_shards(
        options_.fft_workers,
        static_cast<std::size_t>(zp_.count()) * sizeof(std::complex<T>));
    detail::run_fft_lines(*fft_z_, detail::pencil_lines(2, zp_), zpv.data(),
                          FftDirection::kInverse, shards, fft_z_ws_);
  }
  std::span<std::complex<T>> ypv(work_b_.data(),
                                 static_cast<std::size_t>(yp_.count()));
  bwd_[1]->execute(zpv, ypv);
  if (!yp_.empty()) {
    const int shards = WorkerPool::effective_shards(
        options_.fft_workers,
        static_cast<std::size_t>(yp_.count()) * sizeof(std::complex<T>));
    detail::run_fft_lines(*fft_y_, detail::pencil_lines(1, yp_), ypv.data(),
                          FftDirection::kInverse, shards, fft_y_ws_);
  }
  std::span<std::complex<T>> xp(work_a_.data(),
                                static_cast<std::size_t>(xp_spec_.count()));
  bwd_[2]->execute(ypv, xp);

  // c2r along x.
  const auto lines = static_cast<std::size_t>(xp_real_.size[1]) *
                     static_cast<std::size_t>(xp_real_.size[2]);
  const auto nx = static_cast<std::size_t>(n_[0]);
  const auto hx = static_cast<std::size_t>(nr_[0]);
  {
    const int shards = WorkerPool::effective_shards(
        options_.fft_workers, lines * nx * sizeof(T));
    run_r2c_lines(lines, shards, *r2c_, r2c_ws_,
                  [&](std::size_t l, typename FftR2c<T>::Workspace* ws) {
                    const std::complex<T>* src = xp.data() + l * hx;
                    T* dst = real_work_.data() + l * nx;
                    if (ws) {
                      r2c_->inverse(src, dst, *ws);
                    } else {
                      r2c_->inverse(src, dst);
                    }
                  });
  }
  from_xpencil_->execute(std::span<const T>(real_work_), out);

  // Undo the kBackward-style default applied by the 1-D stages if the
  // user selected a different scaling split.
  const double N = static_cast<double>(n_[0]) * n_[1] * n_[2];
  double s = 1.0;
  switch (options_.scaling) {
    case Scaling::kBackward: s = 1.0; break;
    case Scaling::kForward:
    case Scaling::kNone: s = N; break;
    case Scaling::kSymmetric: s = std::sqrt(N); break;
  }
  if (s != 1.0) {
    const T st = static_cast<T>(s);
    for (auto& v : out) v *= st;
  }
}

template <typename T>
osc::ExchangeStats Fft3dR2c<T>::stats() const {
  osc::ExchangeStats total;
  total.accumulate(to_xpencil_->stats());
  total.accumulate(from_xpencil_->stats());
  for (const auto& r : fwd_) total.accumulate(r->stats());
  for (const auto& r : bwd_) total.accumulate(r->stats());
  return total;
}

template class Fft3dR2c<float>;
template class Fft3dR2c<double>;

}  // namespace lossyfft
