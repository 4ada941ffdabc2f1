#include "dfft/fft3d.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/worker_pool.hpp"
#include "compress/planner.hpp"
#include "dfft/decomp.hpp"
#include "dfft/fft_exec.hpp"
#include "tuner/tuner.hpp"

namespace lossyfft {

namespace {

// Share of the 1/N normalization each direction applies on top of the
// unscaled forward / 1/N-total backward stages.
double forward_scale(Scaling s, double N) {
  switch (s) {
    case Scaling::kBackward:
    case Scaling::kNone: return 1.0;
    case Scaling::kForward: return 1.0 / N;
    case Scaling::kSymmetric: return 1.0 / std::sqrt(N);
  }
  return 1.0;
}

double backward_scale(Scaling s, double N) {
  switch (s) {
    case Scaling::kBackward: return 1.0;
    case Scaling::kForward:
    case Scaling::kNone: return N;
    case Scaling::kSymmetric: return std::sqrt(N);
  }
  return 1.0;
}

}  // namespace

template <typename T>
void Fft3d<T>::resolve_auto_decomp() {
  if (options_.algorithm != FftAlgorithm::kAuto) return;
  // The decision is deterministic in (signature, constants) but the
  // constants come from timing-based calibration, which would diverge
  // across ranks — rank 0 decides and broadcasts the POD decision, exactly
  // like the exchange-level kAuto path in Reshape.
  tuner::DecompSignature sig;
  sig.n = n_;
  sig.p = comm_.size();
  sig.gpn = options_.gpus_per_node > 0 ? options_.gpus_per_node : 1;
  sig.codec = options_.codec;
  sig.elem_bytes = sizeof(std::complex<T>);
  tuner::DecompDecision d;
  if (comm_.rank() == 0) d = tuner::Tuner::global().decide_decomp(sig);
  comm_.bcast(std::span<tuner::DecompDecision>(&d, 1), 0);
  options_.algorithm = d.algorithm == tuner::DecompAlgorithm::kSlab
                           ? FftAlgorithm::kSlab
                           : FftAlgorithm::kPencil;
  if (options_.algorithm == FftAlgorithm::kPencil) {
    options_.pencil_grid = d.grid;
  }
  decomp_ = d;
}

template <typename T>
void Fft3d<T>::init(const std::vector<Box3>& boxes_in,
                    const std::vector<Box3>& boxes_out) {
  resolve_auto_decomp();
  const int p = comm_.size();
  const auto me = static_cast<std::size_t>(comm_.rank());
  inbox_ = boxes_in[me];
  outbox_ = boxes_out[me];
  const auto ropts = options_.reshape_options();
  // Work buffers hold one bank per batched field (contiguous field
  // images, the layout Reshape::execute_batch exchanges).
  const auto batch = static_cast<std::size_t>(ropts.batch);

  for (int d = 0; d < 3; ++d) {
    fft_[static_cast<std::size_t>(d)] = std::make_unique<Fft1d<T>>(
        static_cast<std::size_t>(n_[static_cast<std::size_t>(d)]));
  }

  if (options_.algorithm == FftAlgorithm::kSlab) {
    // z-slabs (full x, y) for the local 2-D stage; x-slabs (full y, z)
    // for the remaining 1-D z stage.
    const auto zslabs = split_brick(n_, {1, 1, p});
    const auto xslabs = split_brick(n_, {p, 1, 1});
    pencil_[0] = zslabs[me];
    pencil_[1] = Box3{};  // Unused in the slab pipeline.
    pencil_[2] = xslabs[me];
    fwd_reshape_[0] = std::make_unique<Reshape<std::complex<T>>>(
        comm_, boxes_in, zslabs, ropts);
    fwd_reshape_[1] = std::make_unique<Reshape<std::complex<T>>>(
        comm_, zslabs, xslabs, ropts);
    fwd_reshape_[2] = std::make_unique<Reshape<std::complex<T>>>(
        comm_, xslabs, boxes_out, ropts);
    work_a_.resize(batch *
                   std::max(static_cast<std::size_t>(pencil_[0].count()),
                            static_cast<std::size_t>(pencil_[2].count())));
    work_b_.resize(work_a_.size());
    return;
  }

  // Pencil stages. An explicit (or tuner-chosen) grid applies to all three
  // orientations; the {0, 0} default picks the extent-aware near-square
  // grid per orientation — identical to the classic proc_grid2 split
  // whenever that fits, rebalanced when it would leave zero-extent boxes
  // (prime p, p > extent).
  const auto pencil_boxes = [&](int dir) {
    if (options_.pencil_grid[0] >= 1 && options_.pencil_grid[1] >= 1) {
      return split_pencil(n_, dir, options_.pencil_grid);
    }
    const int d1 = dir == 0 ? 1 : 0;
    const int d2 = dir == 2 ? 1 : 2;
    return split_pencil(
        n_, dir,
        proc_grid2_for(p, n_[static_cast<std::size_t>(d1)],
                       n_[static_cast<std::size_t>(d2)]));
  };
  std::array<std::vector<Box3>, 3> pencils = {pencil_boxes(0), pencil_boxes(1),
                                              pencil_boxes(2)};
  for (int d = 0; d < 3; ++d) {
    pencil_[static_cast<std::size_t>(d)] =
        pencils[static_cast<std::size_t>(d)][me];
  }
  fwd_reshape_[0] = std::make_unique<Reshape<std::complex<T>>>(
      comm_, boxes_in, pencils[0], ropts);
  fwd_reshape_[1] = std::make_unique<Reshape<std::complex<T>>>(
      comm_, pencils[0], pencils[1], ropts);
  fwd_reshape_[2] = std::make_unique<Reshape<std::complex<T>>>(
      comm_, pencils[1], pencils[2], ropts);
  fwd_reshape_[3] = std::make_unique<Reshape<std::complex<T>>>(
      comm_, pencils[2], boxes_out, ropts);

  work_a_.resize(batch *
                 std::max(static_cast<std::size_t>(pencil_[0].count()),
                          static_cast<std::size_t>(pencil_[2].count())));
  work_b_.resize(batch * static_cast<std::size_t>(pencil_[1].count()));
}

template <typename T>
Fft3d<T>::Fft3d(minimpi::Comm& comm, std::array<int, 3> n,
                Fft3dOptions options)
    : comm_(comm), n_(n), options_(options) {
  LFFT_REQUIRE(n[0] >= 1 && n[1] >= 1 && n[2] >= 1,
               "fft3d: grid extents must be >= 1");
  // Extent-aware near-cubic bricks: identical to proc_grid3 whenever that
  // triple fits the grid, rebalanced when it would leave zero-extent boxes.
  const auto bricks = split_brick(n_, proc_grid3_for(comm.size(), n_));
  init(bricks, bricks);
}

template <typename T>
Fft3d<T>::Fft3d(minimpi::Comm& comm, std::array<int, 3> n, double e_tol,
                Fft3dOptions options)
    : Fft3d(comm, n, [&] {
        options.codec = plan_codec(e_tol, CodecFamily::kTruncation);
        return options;
      }()) {}

template <typename T>
Fft3d<T>::Fft3d(minimpi::Comm& comm, std::array<int, 3> n, const Box3& inbox,
                const Box3& outbox, Fft3dOptions options)
    : comm_(comm), n_(n), options_(options) {
  LFFT_REQUIRE(n[0] >= 1 && n[1] >= 1 && n[2] >= 1,
               "fft3d: grid extents must be >= 1");
  // Allgather both box lists (6 ints per box). Tiling is validated by the
  // per-rank conservation checks inside the reshape planner.
  const auto p = static_cast<std::size_t>(comm.size());
  const std::int64_t mine[12] = {
      inbox.lo[0],  inbox.lo[1],  inbox.lo[2],  inbox.size[0],
      inbox.size[1],  inbox.size[2],  outbox.lo[0], outbox.lo[1],
      outbox.lo[2], outbox.size[0], outbox.size[1], outbox.size[2]};
  std::vector<std::int64_t> all(p * 12);
  comm.allgather(std::as_bytes(std::span<const std::int64_t>(mine, 12)),
                 std::as_writable_bytes(std::span<std::int64_t>(all)));
  std::vector<Box3> boxes_in(p), boxes_out(p);
  for (std::size_t r = 0; r < p; ++r) {
    const auto* rec = &all[r * 12];
    boxes_in[r] = Box3{{static_cast<int>(rec[0]), static_cast<int>(rec[1]),
                        static_cast<int>(rec[2])},
                       {static_cast<int>(rec[3]), static_cast<int>(rec[4]),
                        static_cast<int>(rec[5])}};
    boxes_out[r] = Box3{{static_cast<int>(rec[6]), static_cast<int>(rec[7]),
                         static_cast<int>(rec[8])},
                        {static_cast<int>(rec[9]), static_cast<int>(rec[10]),
                         static_cast<int>(rec[11])}};
  }
  // Both lists must tile the grid: full coverage by count and pairwise
  // disjointness (per-rank conservation alone cannot catch two ranks
  // claiming the same region).
  const auto validate = [&](const std::vector<Box3>& boxes, const char* side) {
    std::int64_t total = 0;
    for (const auto& b : boxes) total += b.count();
    LFFT_REQUIRE(total == global_count(),
                 std::string("fft3d: user ") + side +
                     " boxes do not cover the grid exactly");
    for (std::size_t a = 0; a < boxes.size(); ++a) {
      for (std::size_t b = a + 1; b < boxes.size(); ++b) {
        LFFT_REQUIRE(Box3::intersect(boxes[a], boxes[b]).empty(),
                     std::string("fft3d: user ") + side + " boxes overlap");
      }
    }
  };
  validate(boxes_in, "input");
  validate(boxes_out, "output");
  init(boxes_in, boxes_out);
}

template <typename T>
void Fft3d<T>::fft_pencil(int dir, FftDirection fdir, std::complex<T>* data) {
  const Box3& box = pencil_[static_cast<std::size_t>(dir)];
  if (box.empty()) return;
  const Fft1d<T>& plan = *fft_[static_cast<std::size_t>(dir)];
  // Shard the pencil lines across the pool (fft_workers), falling back to
  // serial when the whole stage is below the bytes-per-shard floor.
  const int shards = WorkerPool::effective_shards(
      options_.fft_workers,
      static_cast<std::size_t>(box.count()) * sizeof(std::complex<T>));
  detail::run_fft_lines(plan, detail::pencil_lines(dir, box), data, fdir,
                        shards, fft_ws_[static_cast<std::size_t>(dir)]);
}

template <typename T>
void Fft3d<T>::run_slab(std::span<const std::complex<T>> in,
                        std::span<std::complex<T>> out, FftDirection dir,
                        int fields) {
  // Slab pipeline: 2-D FFT (x then y) inside each z-slab, one internal
  // reshape, then the z-direction FFTs inside x-slabs. All `fields` banks
  // move through each reshape as one batched exchange.
  const Box3& zslab = pencil_[0];
  const Box3& xslab = pencil_[2];
  const auto nf = static_cast<std::size_t>(fields);
  const auto zext = static_cast<std::size_t>(zslab.count());
  const auto xext = static_cast<std::size_t>(xslab.count());
  std::span<std::complex<T>> zs(work_a_.data(), nf * zext);
  std::span<std::complex<T>> xs(work_b_.data(), nf * xext);
  fwd_reshape_[0]->execute_batch(in, zs, fields);
  if (!zslab.empty()) {
    const int shards = WorkerPool::effective_shards(
        options_.fft_workers, zext * sizeof(std::complex<T>));
    for (std::size_t f = 0; f < nf; ++f) {
      std::complex<T>* data = zs.data() + f * zext;
      detail::run_fft_lines(*fft_[0], detail::pencil_lines(0, zslab), data,
                            dir, shards, fft_ws_[0]);
      detail::run_fft_lines(*fft_[1], detail::pencil_lines(1, zslab), data,
                            dir, shards, fft_ws_[1]);
    }
  }
  fwd_reshape_[1]->execute_batch(zs, xs, fields);
  if (!xslab.empty()) {
    const int shards = WorkerPool::effective_shards(
        options_.fft_workers, xext * sizeof(std::complex<T>));
    for (std::size_t f = 0; f < nf; ++f) {
      detail::run_fft_lines(*fft_[2], detail::pencil_lines(2, xslab),
                            xs.data() + f * xext, dir, shards, fft_ws_[2]);
    }
  }
  fwd_reshape_[2]->execute_batch(xs, out, fields);
}

template <typename T>
void Fft3d<T>::run(std::span<const std::complex<T>> in,
                   std::span<std::complex<T>> out, FftDirection dir,
                   int fields) {
  if (options_.algorithm == FftAlgorithm::kSlab) {
    run_slab(in, out, dir, fields);
    return;
  }
  // The four-reshape pipeline of Fig. 1, advanced `fields` banks at a time.
  // Inverse transforms reuse the same pipeline (1-D FFT directions
  // commute); each inverse 1-D FFT scales by 1/n_d, so the full backward
  // pass carries the 1/N normalization.
  const auto nf = static_cast<std::size_t>(fields);
  auto a = [&](const Box3& b) {
    return std::span<std::complex<T>>(work_a_.data(),
                                      nf * static_cast<std::size_t>(b.count()));
  };
  auto b = [&](const Box3& bx) {
    return std::span<std::complex<T>>(
        work_b_.data(), nf * static_cast<std::size_t>(bx.count()));
  };
  const auto bank = [&](std::vector<std::complex<T>>& w, int d,
                        std::size_t f) {
    return w.data() + f * static_cast<std::size_t>(
                              pencil_[static_cast<std::size_t>(d)].count());
  };
  fwd_reshape_[0]->execute_batch(in, a(pencil_[0]), fields);
  for (std::size_t f = 0; f < nf; ++f) fft_pencil(0, dir, bank(work_a_, 0, f));
  fwd_reshape_[1]->execute_batch(a(pencil_[0]), b(pencil_[1]), fields);
  for (std::size_t f = 0; f < nf; ++f) fft_pencil(1, dir, bank(work_b_, 1, f));
  fwd_reshape_[2]->execute_batch(b(pencil_[1]), a(pencil_[2]), fields);
  for (std::size_t f = 0; f < nf; ++f) fft_pencil(2, dir, bank(work_a_, 2, f));
  fwd_reshape_[3]->execute_batch(a(pencil_[2]), out, fields);
}

template <typename T>
void Fft3d<T>::run_batched(std::span<const std::complex<T>> in,
                           std::span<std::complex<T>> out, FftDirection dir,
                           int fields) {
  // Advance the pipeline in capacity-sized chunks: each chunk's fields
  // share every reshape's synchronization epoch.
  const auto nf = static_cast<std::size_t>(fields);
  const std::size_t iext = in.size() / nf;
  const std::size_t oext = out.size() / nf;
  const int cap = options_.reshape_options().batch;
  for (int f0 = 0; f0 < fields; f0 += cap) {
    const int k = std::min(cap, fields - f0);
    const auto f = static_cast<std::size_t>(f0);
    const auto kk = static_cast<std::size_t>(k);
    run(in.subspan(f * iext, kk * iext), out.subspan(f * oext, kk * oext),
        dir, k);
  }
}

template <typename T>
void Fft3d<T>::forward(std::span<const std::complex<T>> in,
                       std::span<std::complex<T>> out) {
  run(in, out, FftDirection::kForward, 1);
  // The 1-D stages never scale forward; apply the requested share of 1/N.
  const double s =
      forward_scale(options_.scaling, static_cast<double>(global_count()));
  if (s != 1.0) {
    const T st = static_cast<T>(s);
    for (auto& v : out) v *= st;
  }
}

template <typename T>
void Fft3d<T>::backward(std::span<const std::complex<T>> in,
                        std::span<std::complex<T>> out) {
  run(in, out, FftDirection::kInverse, 1);
  // The 1-D inverse stages already applied 1/N in total; correct to the
  // requested backward share.
  const double s =
      backward_scale(options_.scaling, static_cast<double>(global_count()));
  if (s != 1.0) {
    const T st = static_cast<T>(s);
    for (auto& v : out) v *= st;
  }
}

template <typename T>
void Fft3d<T>::forward_batch(std::span<const std::complex<T>> in,
                             std::span<std::complex<T>> out, int fields) {
  LFFT_REQUIRE(fields >= 1, "fft3d: batch needs at least one field");
  LFFT_REQUIRE(in.size() == fields * local_count() &&
                   out.size() == fields * output_count(),
               "fft3d: batch span sizes mismatch");
  run_batched(in, out, FftDirection::kForward, fields);
  const double s =
      forward_scale(options_.scaling, static_cast<double>(global_count()));
  if (s != 1.0) {
    const T st = static_cast<T>(s);
    for (auto& v : out) v *= st;
  }
}

template <typename T>
void Fft3d<T>::backward_batch(std::span<const std::complex<T>> in,
                              std::span<std::complex<T>> out, int fields) {
  LFFT_REQUIRE(fields >= 1, "fft3d: batch needs at least one field");
  LFFT_REQUIRE(in.size() == fields * output_count() &&
                   out.size() == fields * local_count(),
               "fft3d: batch span sizes mismatch");
  run_batched(in, out, FftDirection::kInverse, fields);
  const double s =
      backward_scale(options_.scaling, static_cast<double>(global_count()));
  if (s != 1.0) {
    const T st = static_cast<T>(s);
    for (auto& v : out) v *= st;
  }
}

template <typename T>
osc::ExchangeStats Fft3d<T>::stats() const {
  osc::ExchangeStats total;
  for (const auto& r : fwd_reshape_) {
    if (r) total.accumulate(r->stats());
  }
  return total;
}

template <typename T>
std::vector<double> Fft3d<T>::source_lag_seconds() const {
  std::vector<double> lag(static_cast<std::size_t>(comm_.size()), 0.0);
  for (const auto& r : fwd_reshape_) {
    if (!r) continue;
    const std::span<const double> rl = r->source_lag_seconds();
    for (std::size_t s = 0; s < rl.size() && s < lag.size(); ++s) {
      lag[s] += rl[s];
    }
  }
  return lag;
}

template <typename T>
std::uint64_t Fft3d<T>::footprint_bytes() const {
  std::uint64_t b =
      (work_a_.capacity() + work_b_.capacity()) * sizeof(std::complex<T>);
  for (const auto& r : fwd_reshape_) {
    if (r) b += r->footprint_bytes();
  }
  return b;
}

template <typename T>
std::array<bool, 4> Fft3d<T>::reshape_pack_elided() const {
  std::array<bool, 4> out{false, false, false, false};
  for (std::size_t i = 0; i < fwd_reshape_.size(); ++i) {
    if (fwd_reshape_[i]) out[i] = fwd_reshape_[i]->pack_elided();
  }
  return out;
}

template <typename T>
double Fft3d<T>::model_flops() const {
  const double N = static_cast<double>(global_count());
  return 5.0 * N * std::log2(N);
}

template <typename T>
double rel_l2_error(minimpi::Comm& comm, std::span<const std::complex<T>> a,
                    std::span<const std::complex<T>> b) {
  LFFT_REQUIRE(a.size() == b.size(), "rel_l2_error: size mismatch");
  double sums[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double dr = static_cast<double>(a[i].real()) - b[i].real();
    const double di = static_cast<double>(a[i].imag()) - b[i].imag();
    sums[0] += dr * dr + di * di;
    const double br = b[i].real(), bi = b[i].imag();
    sums[1] += br * br + bi * bi;
  }
  comm.allreduce(std::span<double>(sums, 2), minimpi::ReduceOp::kSum);
  return sums[1] > 0.0 ? std::sqrt(sums[0] / sums[1]) : std::sqrt(sums[0]);
}

template class Fft3d<float>;
template class Fft3d<double>;
template double rel_l2_error<float>(minimpi::Comm&,
                                    std::span<const std::complex<float>>,
                                    std::span<const std::complex<float>>);
template double rel_l2_error<double>(minimpi::Comm&,
                                     std::span<const std::complex<double>>,
                                     std::span<const std::complex<double>>);

}  // namespace lossyfft
