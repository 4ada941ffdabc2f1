// Fft3d: the distributed 3-D FFT with lossy-compressed reshapes — the
// paper's Algorithm 1 and this library's primary public API (the role
// heFFTe plays in the paper).
//
// The transform follows Fig. 1's general four-reshape pipeline:
//   brick -> x-pencils (1-D FFTs in x) -> y-pencils (FFTs in y)
//         -> z-pencils (FFTs in z) -> brick
// Computation is always performed in the field's own precision T; when a
// codec is configured (T = double), only the *communicated* bytes are
// lossy — the mixed-precision scheme whose accuracy Fig. 2 and Table II
// study.
#pragma once

#include <array>
#include <cmath>
#include <memory>
#include <optional>

#include "dfft/fft_exec.hpp"
#include "dfft/reshape.hpp"
#include "fft/fft1d.hpp"
#include "tuner/decomp_model.hpp"

namespace lossyfft {

/// Reshape strategy of the transform pipeline. kPencil/kSlab values match
/// tuner::DecompAlgorithm (the tuner layer cannot include this header).
enum class FftAlgorithm {
  /// Fig. 1's general pencil pipeline: 4 reshapes, scales to p <= n^2.
  kPencil = 0,
  /// Slab pipeline: z-slabs (2-D FFT in x,y locally) -> x-slabs (1-D FFT
  /// in z): 3 reshapes, but only p <= min(nx, nz) ranks stay busy.
  kSlab = 1,
  /// Tuner-chosen decomposition: rank 0 prices the slab pipeline and the
  /// pencil pipeline under every admissible process-grid factorization
  /// through the netsim cost model (Tuner::decide_decomp) and broadcasts
  /// the winner. Results are byte-identical to planning the chosen shape
  /// explicitly; only speed changes.
  kAuto = 2,
};

/// Where the 1/N normalization lands (heFFTe's scale options).
enum class Scaling {
  kBackward,   // forward unscaled, backward carries 1/N (default).
  kForward,    // forward carries 1/N, backward unscaled.
  kSymmetric,  // both carry 1/sqrt(N): the transform is unitary.
  kNone,       // neither scaled; backward(forward(x)) == N * x.
};

struct Fft3dOptions {
  ExchangeBackend backend = ExchangeBackend::kPairwise;
  /// Wire codec (double fields only); nullptr = exact communication.
  CodecPtr codec;
  int osc_chunks = 8;
  int gpus_per_node = 6;
  Scaling scaling = Scaling::kBackward;
  FftAlgorithm algorithm = FftAlgorithm::kPencil;
  /// Pencil process grid {a, b} for the intermediate pencil stages
  /// (split_pencil's convention: the lower non-transform dimension splits
  /// into a pieces, the higher into b). {0, 0} (default) picks the
  /// extent-aware near-square grid per orientation (proc_grid2_for);
  /// kAuto overwrites this with the tuner's choice. Must factor p.
  std::array<int, 2> pencil_grid = {0, 0};
  /// Every planned reshape's sync mode (ReshapeOptions::osc_sync). kAuto
  /// routes plan construction through the model-guided tuner, which also
  /// overrides reshape_workers and exchange_parity with its pick.
  osc::OscSync osc_sync = osc::OscSync::kFence;
  /// Codec/pack worker shards per reshape (see ReshapeOptions::workers):
  /// 1 = serial, 0 = full pool concurrency, k > 1 = k shards. Results are
  /// bitwise identical at every setting.
  int reshape_workers = 1;
  /// 1-D FFT stage shards: pencil-line batches fan out across the shared
  /// WorkerPool with one private Fft1d::Workspace per shard (the plan and
  /// its twiddle tables stay shared, read-only). Same convention: 1 =
  /// serial (default), 0 = full pool concurrency, k > 1 = k shards; small
  /// stages fall back to serial below the bytes-per-shard floor. Results
  /// are bitwise identical at every setting.
  int fft_workers = 1;
  /// Reshape batch capacity (>= 1): forward_batch / backward_batch runs
  /// up to `batch_fields` fields through each reshape as one batched
  /// exchange (ReshapeOptions::batch), paying the per-round fence / PSCW
  /// handshake once per batch instead of once per field. Larger batches
  /// than the capacity are processed in capacity-sized chunks. 1 (default)
  /// keeps the per-field pipeline and the single-field memory footprint.
  int batch_fields = 1;
  /// Coded-exchange parity per message group for every planned reshape
  /// (ReshapeOptions::exchange_parity): m > 0 ships m erasure-coded parity
  /// frames per round so targets reconstruct up to m missing / late /
  /// corrupt arrivals. Zero-fault coded runs stay byte-identical to
  /// uncoded; under osc_sync = kAuto the tuner's pick fills in a 0 here.
  int exchange_parity = 0;
  /// Deterministic fault-injection plan for every planned reshape (tests;
  /// ReshapeOptions::fault_plan). Must outlive the Fft3d.
  const minimpi::FaultPlan* fault_plan = nullptr;

  ReshapeOptions reshape_options() const {
    ReshapeOptions ro;
    ro.backend = backend;
    ro.codec = codec;
    ro.osc_chunks = osc_chunks;
    ro.gpus_per_node = gpus_per_node;
    ro.osc_sync = osc_sync;
    ro.workers = reshape_workers;
    ro.batch = batch_fields < 1 ? 1 : batch_fields;
    ro.exchange_parity = exchange_parity;
    ro.fault_plan = fault_plan;
    return ro;
  }
};

namespace detail {

/// Give `data`, the output of a transform over N points, the share of the
/// 1/N normalization that `s` assigns to direction `dir`. The 1-D stages
/// already split it as kBackward does (forward unscaled, inverse 1/N in
/// total); this multiplies in the correction for every other split.
template <typename T, typename V>
void apply_scaling(std::span<V> data, Scaling s, FftDirection dir, double N) {
  const bool fwd = dir == FftDirection::kForward;
  double f = 1.0;
  switch (s) {
    case Scaling::kBackward: break;
    case Scaling::kForward: f = fwd ? 1.0 / N : N; break;
    case Scaling::kSymmetric:
      f = fwd ? 1.0 / std::sqrt(N) : std::sqrt(N);
      break;
    case Scaling::kNone: f = fwd ? 1.0 : N; break;
  }
  if (f == 1.0) return;
  const T ft = static_cast<T>(f);
  for (auto& v : data) v *= ft;
}

/// Resolve FftAlgorithm::kAuto for a pipeline over grid `n` into
/// `options`: the algorithm, and the pencil grid on a pencil verdict. The
/// tuner's constants come from timing-based calibration, which would
/// diverge across ranks, so rank 0 decides and broadcasts the POD
/// decision, like the exchange-level kAuto path in Reshape. Collective;
/// returns the decision, or nothing (and changes nothing) for a fixed
/// algorithm.
std::optional<tuner::DecompDecision> resolve_decomp(minimpi::Comm& comm,
                                                    std::array<int, 3> n,
                                                    std::size_t elem_bytes,
                                                    Fft3dOptions& options);

}  // namespace detail

template <typename T>
class Fft3d {
 public:
  /// Plan a transform of the global grid `n` = {nx, ny, nz} distributed
  /// over `comm` in the default near-cubic brick decomposition (both for
  /// input and output).
  Fft3d(minimpi::Comm& comm, std::array<int, 3> n, Fft3dOptions options = {});

  /// Plan with a user tolerance: picks the cheapest truncation codec with
  /// communication roundoff below `e_tol` (Algorithm 1's interface).
  Fft3d(minimpi::Comm& comm, std::array<int, 3> n, double e_tol,
        Fft3dOptions options = {});

  /// Plan with user-owned boxes (heFFTe's general interface): this rank
  /// holds `inbox` on input and receives `outbox` on output. Collective —
  /// the box lists are allgathered and must tile the grid on both sides.
  Fft3d(minimpi::Comm& comm, std::array<int, 3> n, const Box3& inbox,
        const Box3& outbox, Fft3dOptions options = {});

  std::array<int, 3> grid() const { return n_; }
  /// This rank's input/output boxes (identical bricks unless the
  /// user-boxes constructor was used).
  const Box3& inbox() const { return inbox_; }
  const Box3& outbox() const { return outbox_; }
  std::size_t local_count() const {
    return static_cast<std::size_t>(inbox_.count());
  }
  std::size_t output_count() const {
    return static_cast<std::size_t>(outbox_.count());
  }
  std::int64_t global_count() const {
    return static_cast<std::int64_t>(n_[0]) * n_[1] * n_[2];
  }

  /// Forward transform (unnormalized by default; see Scaling). Collective.
  /// `in` holds local_count() elements of the inbox, `out` receives
  /// output_count() of the outbox, both x-fastest.
  void forward(std::span<const std::complex<T>> in,
               std::span<std::complex<T>> out) {
    forward_batch(in, out, 1);
  }

  /// Inverse transform, scaled by 1/(nx*ny*nz) by default, so
  /// backward(forward(x)) == x up to roundoff/compression error. Runs the
  /// same pipeline as forward: inbox in, outbox out.
  void backward(std::span<const std::complex<T>> in,
                std::span<std::complex<T>> out) {
    backward_batch(in, out, 1);
  }

  /// Batched transforms for multi-component fields (e.g. a velocity
  /// vector): `in` holds `fields` consecutive local_count()-element
  /// images, `out` receives `fields` output_count()-element images. With
  /// batch_fields > 1 the pipeline advances all fields of a capacity-sized
  /// chunk through each reshape as one batched exchange (synchronization
  /// cost per chunk, not per field); results are identical to per-field
  /// transforms. Collective.
  void forward_batch(std::span<const std::complex<T>> in,
                     std::span<std::complex<T>> out, int fields) {
    run(in, out, FftDirection::kForward, fields);
  }
  void backward_batch(std::span<const std::complex<T>> in,
                      std::span<std::complex<T>> out, int fields) {
    run(in, out, FftDirection::kInverse, fields);
  }

  /// Combined wire statistics of all reshapes so far (this rank).
  osc::ExchangeStats stats() const;

  /// Per-source arrival lag summed over every planned reshape (one slot
  /// per communicator rank; all zero when no reshape runs a per-source
  /// observability path). Normalize by stats().skew_epochs for a per-epoch
  /// figure. Local.
  std::vector<double> source_lag_seconds() const;

  /// Resident bytes of this transform's pinned state: work buffers plus
  /// every reshape's staging and plan footprint. What a byte-budgeted plan
  /// cache (serve::PlanCache) charges for one cached Fft3d.
  std::uint64_t footprint_bytes() const;

  /// The pipeline shape actually planned (kAuto resolves to kPencil or
  /// kSlab at construction).
  FftAlgorithm algorithm() const { return options_.algorithm; }
  /// The pencil process grid actually planned; {0, 0} when the pipeline is
  /// slab or uses the per-orientation near-square default.
  std::array<int, 2> pencil_grid() const { return options_.pencil_grid; }
  /// The tuner's decomposition decision when algorithm was kAuto; empty
  /// otherwise.
  const std::optional<tuner::DecompDecision>& decomp_decision() const {
    return decomp_;
  }
  /// Per-reshape pack-elision flags on this rank (slab pipelines use the
  /// first three entries; the unused slot reads false).
  std::array<bool, 4> reshape_pack_elided() const;

  /// Number of flops the Gflop/s metric charges one forward transform:
  /// 5 N log2(N) with N = nx*ny*nz (the standard FFT benchmark metric).
  double model_flops() const;

 private:
  /// The one transform body: the stage loop over capacity-sized chunks of
  /// `fields` images, then the scaling share of `dir`.
  void run(std::span<const std::complex<T>> in, std::span<std::complex<T>> out,
           FftDirection dir, int fields);
  void init(const std::vector<Box3>& boxes_in,
            const std::vector<Box3>& boxes_out);

  minimpi::Comm& comm_;
  std::array<int, 3> n_;
  Fft3dOptions options_;
  std::optional<tuner::DecompDecision> decomp_;
  Box3 inbox_, outbox_;

  // Pencil: brick -> x-pencils (FFTs in x) -> y-pencils (y) -> z-pencils
  // (z) -> brick. Slab: brick -> z-slabs (x, y) -> x-slabs (z) -> brick.
  std::vector<detail::Stage<T>> stages_;
  detail::LinePlans<T> fft_;
  std::vector<std::complex<T>> work_a_, work_b_;
};

/// Distributed relative L2 error ||a - b|| / ||b|| over a communicator.
template <typename T>
double rel_l2_error(minimpi::Comm& comm, std::span<const std::complex<T>> a,
                    std::span<const std::complex<T>> b);

extern template class Fft3d<float>;
extern template class Fft3d<double>;
extern template double rel_l2_error<float>(minimpi::Comm&,
                                           std::span<const std::complex<float>>,
                                           std::span<const std::complex<float>>);
extern template double rel_l2_error<double>(
    minimpi::Comm&, std::span<const std::complex<double>>,
    std::span<const std::complex<double>>);

}  // namespace lossyfft
