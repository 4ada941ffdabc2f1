#include "dfft/fft3d.hpp"

#include <cmath>

#include "common/error.hpp"
#include "compress/planner.hpp"
#include "dfft/decomp.hpp"
#include "tuner/tuner.hpp"

namespace lossyfft {

namespace detail {

std::optional<tuner::DecompDecision> resolve_decomp(minimpi::Comm& comm,
                                                    std::array<int, 3> n,
                                                    std::size_t elem_bytes,
                                                    Fft3dOptions& options) {
  if (options.algorithm != FftAlgorithm::kAuto) return std::nullopt;
  tuner::DecompSignature sig;
  sig.n = n;
  sig.p = comm.size();
  sig.gpn = options.gpus_per_node > 0 ? options.gpus_per_node : 1;
  sig.codec = options.codec;
  sig.elem_bytes = elem_bytes;
  tuner::DecompDecision d;
  if (comm.rank() == 0) d = tuner::Tuner::global().decide_decomp(sig);
  comm.bcast(std::span<tuner::DecompDecision>(&d, 1), 0);
  options.algorithm = d.algorithm == tuner::DecompAlgorithm::kSlab
                          ? FftAlgorithm::kSlab
                          : FftAlgorithm::kPencil;
  if (options.algorithm == FftAlgorithm::kPencil) options.pencil_grid = d.grid;
  return d;
}

}  // namespace detail

template <typename T>
void Fft3d<T>::init(const std::vector<Box3>& boxes_in,
                    const std::vector<Box3>& boxes_out) {
  decomp_ = detail::resolve_decomp(comm_, n_, sizeof(std::complex<T>),
                                   options_);
  const int p = comm_.size();
  const auto me = static_cast<std::size_t>(comm_.rank());
  inbox_ = boxes_in[me];
  outbox_ = boxes_out[me];
  const auto ropts = options_.reshape_options();
  for (std::size_t d = 0; d < 3; ++d) {
    fft_.plan[d] =
        std::make_unique<Fft1d<T>>(static_cast<std::size_t>(n_[d]));
  }
  fft_.workers = options_.fft_workers;

  // Work buffers hold one bank per batched field (contiguous field
  // images, the layout Reshape::execute_batch exchanges).
  const auto batch = static_cast<std::size_t>(ropts.batch);
  const auto banks = [&](std::size_t stage) {
    return batch * static_cast<std::size_t>(stages_[stage].box.count());
  };
  if (options_.algorithm == FftAlgorithm::kSlab) {
    // z-slabs (full x, y) for the local 2-D stage; x-slabs (full y, z)
    // for the remaining 1-D z stage. Either work buffer fits either slab.
    stages_ = detail::plan_stages<T>(
        comm_,
        {boxes_in, split_brick(n_, {1, 1, p}), split_brick(n_, {p, 1, 1}),
         boxes_out},
        {{0, 1}, {2}, {}}, ropts);
    work_a_.resize(std::max(banks(0), banks(1)));
    work_b_.resize(work_a_.size());
  } else {
    // An explicit (or tuner-chosen) grid applies to all three
    // orientations; the {0, 0} default picks the extent-aware near-square
    // grid per orientation (split_pencil_for).
    const auto pencils = [&](int dir) {
      return split_pencil_for(n_, dir, p, options_.pencil_grid);
    };
    stages_ = detail::plan_stages<T>(
        comm_, {boxes_in, pencils(0), pencils(1), pencils(2), boxes_out},
        {{0}, {1}, {2}, {}}, ropts);
    work_a_.resize(std::max(banks(0), banks(2)));
    work_b_.resize(banks(1));
  }
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
void Fft3d<T>::run(std::span<const std::complex<T>> in,
                   std::span<std::complex<T>> out, FftDirection dir,
                   int fields) {
  LFFT_REQUIRE(fields >= 1, "fft3d: batch needs at least one field");
  const auto nf = static_cast<std::size_t>(fields);
  const std::size_t iext = local_count();
  const std::size_t oext = output_count();
  LFFT_REQUIRE(in.size() == nf * iext && out.size() == nf * oext,
               "fft3d: batch span sizes mismatch");
  // Advance the pipeline in capacity-sized chunks: each chunk's fields
  // share every reshape's synchronization epoch.
  const int cap = options_.reshape_options().batch;
  for (int f0 = 0; f0 < fields; f0 += cap) {
    const int k = std::min(cap, fields - f0);
    const auto f = static_cast<std::size_t>(f0);
    const auto kk = static_cast<std::size_t>(k);
    detail::run_stages(stages_, fft_, in.subspan(f * iext, kk * iext),
                       out.subspan(f * oext, kk * oext),
                       {work_a_.data(), work_b_.data()}, dir, k);
  }
  detail::apply_scaling<T>(out, options_.scaling, dir,
                           static_cast<double>(global_count()));
}

template <typename T>
osc::ExchangeStats Fft3d<T>::stats() const {
  osc::ExchangeStats total;
  for (const auto& st : stages_) total.accumulate(st.reshape->stats());
  return total;
}

template <typename T>
std::vector<double> Fft3d<T>::source_lag_seconds() const {
  std::vector<double> lag(static_cast<std::size_t>(comm_.size()), 0.0);
  for (const auto& st : stages_) {
    const std::span<const double> rl = st.reshape->source_lag_seconds();
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
  for (const auto& st : stages_) b += st.reshape->footprint_bytes();
  return b;
}

template <typename T>
std::array<bool, 4> Fft3d<T>::reshape_pack_elided() const {
  std::array<bool, 4> out{false, false, false, false};
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    out[i] = stages_[i].reshape->pack_elided();
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
