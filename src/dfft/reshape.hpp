// Reshape: redistribute a field from one box decomposition to another —
// the generalized all-to-all at the heart of the 3-D FFT (Fig. 1), and the
// operation the paper compresses.
//
// Planning is local: every rank derives the full source and destination box
// lists from the decomposition functions and intersects them. This rank's
// own overlap (its self-block, inbox ∩ outbox) never reaches a transport:
// execute() copies it straight from `in` to `out`, so it is exact under
// every codec, and the exchange, its codec and its ExchangeStats carry
// only off-rank bytes — what every MPI alltoallv does locally. Every
// off-rank overlap becomes a message laid out in the field
// (osc::RunLayout: one x-row per run, one z-plane per plane, merged where
// they abut), and a reshape with off-rank traffic runs one
// osc::ExchangePlan over those layouts, on one of two backends:
//   kPairwise — two-sided pairwise rounds (the classical MPI_Alltoallv
//               baseline), optionally compressed;
//   kOsc      — the paper's one-sided ring with pipelined compression
//               (Algorithm 3).
// The plan owns every touch of a message's elements — Algorithm 1's pack
// and unpack around Algorithm 3 — and skips both for a row-addressable
// codec (codec.hpp), which it encodes straight from `in` and decodes
// straight into `out`; raw wires and variable-rate codecs stage one pass
// per side inside the plan, as in the subarray datatypes of Dalcin et al.
// A reshape in which no rank sends anything off-rank (bricks whose process
// grid equals the pencil grid, any 1-rank world) builds no plan and runs
// no exchange at all.
//
// The element type E is any trivially-copyable cell: complex<double> for
// the c2c transform, double for the real stage of the r2c transform, and
// the float variants for the FP32 reference runs. Codecs and the coded
// wire apply only to double-based elements (the wire views them as a
// stream of doubles); float fields always travel raw.
#pragma once

#include <complex>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "compress/codec.hpp"
#include "dfft/box.hpp"
#include "minimpi/comm.hpp"
#include "osc/exchange_plan.hpp"
#include "osc/osc_alltoall.hpp"
#include "tuner/signature.hpp"

namespace lossyfft {

enum class ExchangeBackend { kPairwise, kOsc };

const char* to_string(ExchangeBackend b);

struct ReshapeOptions {
  ExchangeBackend backend = ExchangeBackend::kPairwise;
  /// Wire codec. Only meaningful for double-based fields; nullptr
  /// exchanges raw bytes. (The FP32 reference run computes *and*
  /// communicates in float with no codec, as in Section VI-B.)
  CodecPtr codec;
  int osc_chunks = 8;
  int gpus_per_node = 6;
  /// Per-round synchronization of the one-sided plan. kAuto routes plan
  /// construction through the model-guided tuner (src/tuner/): rank 0
  /// resolves the exchange signature against its calibrated cost model
  /// (or the LOSSYFFT_TUNE_CACHE persistent cache) and broadcasts the
  /// decision — sync mode, one- or two-sided path, parity and worker
  /// fan-out — so all ranks build the identical plan. Results are
  /// byte-identical to any fixed configuration; only speed changes.
  osc::OscSync osc_sync = osc::OscSync::kFence;
  /// Codec/pack worker shards: 1 = serial (default), 0 = the process-wide
  /// pool's full concurrency, k > 1 = fan out to k shards. Parallelism is
  /// an execution detail: packed bytes, wire bytes, and results are
  /// bitwise identical at every setting. The pool itself is created once
  /// per process and sized by LOSSYFFT_WORKERS (default: hardware
  /// concurrency); this knob only says how much of it a reshape uses.
  int workers = 1;
  /// Batch capacity (>= 1): how many same-layout fields one
  /// execute_batch() call may exchange per synchronization epoch. Staging
  /// buffers and the exchange window are sized for `batch` consecutive
  /// field banks, so a batch of k fields pays the
  /// fence / PSCW handshake cost once instead of k times. 1 (default)
  /// keeps the single-field footprint.
  int batch = 1;
  /// Coded-exchange parity chunks per message group (OscOptions::parity):
  /// m > 0 makes the exchange ship m erasure-coded parity frames
  /// alongside each round's data so targets reconstruct up to m missing /
  /// late / corrupt arrivals. Zero-fault coded runs are byte-identical to
  /// uncoded. Applies to double-based fields on both backends; float
  /// fields stay uncoded. Under kAuto the tuner's parity pick overrides a 0
  /// here.
  int exchange_parity = 0;
  /// Deterministic fault-injection plan threaded into the exchange's
  /// transport (tests; OscOptions::fault_plan). Must outlive the Reshape.
  /// Installing a plan forces the coded framed wire even at
  /// exchange_parity == 0; float fields ignore it, like exchange_parity.
  const minimpi::FaultPlan* fault_plan = nullptr;
};

template <typename E>
inline constexpr bool kReshapeDoubleBased =
    std::is_same_v<E, double> || std::is_same_v<E, std::complex<double>>;

template <typename E>
class Reshape {
 public:
  static_assert(std::is_trivially_copyable_v<E>);

  /// Redistribute from `all_in[r]` to `all_out[r]` over `comm`
  /// (r = comm rank). Box lists must cover disjointly; this rank's boxes
  /// are all_in[comm.rank()] / all_out[comm.rank()].
  ///
  /// Construction is *collective*: one allreduce decides whether any rank
  /// sends off-rank, and if one does, the constructor builds a persistent
  /// osc::ExchangePlan (cached window + hoisted offset exchange + pinned
  /// codec staging), whose construction and destruction are collective
  /// too. Every rank must create and destroy its Reshapes in the same
  /// order, which Fft3d's symmetric plan setup already does.
  Reshape(minimpi::Comm& comm, std::vector<Box3> all_in,
          std::vector<Box3> all_out, ReshapeOptions options);

  const Box3& inbox() const { return all_in_[static_cast<std::size_t>(rank_)]; }
  const Box3& outbox() const {
    return all_out_[static_cast<std::size_t>(rank_)];
  }

  /// Execute: `in` holds inbox().count() elements, `out` receives
  /// outbox().count(); the two must not overlap. execute_batch with one
  /// field.
  void execute(std::span<const E> in, std::span<E> out);

  /// Redistribute `fields` same-layout fields
  /// (1 <= fields <= options.batch) in one exchange epoch. `in` holds
  /// `fields` consecutive inbox().count()-element images; `out` receives
  /// the matching outbox().count()-element images. The plan exchanges all
  /// fields in one call (under a single fence / PSCW handshake sequence on
  /// the one-sided backend), reading each message from `in` and writing it
  /// into `out`. Each field's self-block is then copied from `in` to `out`
  /// (one memcpy when it is contiguous in both boxes, one per x-row
  /// otherwise). Results are identical to `fields` back-to-back execute()
  /// calls. Collective, except on a self-only reshape, whose execute is
  /// that copy alone: no fence, barrier or message.
  void execute_batch(std::span<const E> in, std::span<E> out, int fields);

  /// Exchange statistics accumulated over all execute() calls on this
  /// rank. Payload, wire bytes and messages count off-rank traffic only.
  const osc::ExchangeStats& stats() const { return stats_; }

  /// Accumulated per-source arrival lag from the underlying plan
  /// (ExchangePlan::source_lag_seconds); empty on a self-only reshape,
  /// which builds no plan.
  std::span<const double> source_lag_seconds() const {
    return plan_ ? plan_->source_lag_seconds() : std::span<const double>{};
  }

  /// Resident bytes of this reshape's plan — its window, codec slabs and
  /// the send and receive staging of the messages that stage (none on a
  /// row-addressable codec), all for options.batch fields — the
  /// per-reshape cost a byte-budgeted plan cache charges. Zero on a
  /// self-only reshape.
  std::uint64_t footprint_bytes() const {
    return plan_ ? plan_->footprint_bytes() : 0;
  }

  /// The tuner decision applied at construction when osc_sync was kAuto
  /// and the reshape has off-rank traffic; empty otherwise (fixed config,
  /// or nothing to tune).
  const std::optional<tuner::TuneDecision>& tuned_decision() const {
    return tuned_;
  }

  /// True when this rank's pack stage elided: every nonzero sub-volume it
  /// sends off-rank is one contiguous run of the source field, so sends go
  /// straight from the field on every wire (a row-addressable codec reads
  /// them from the field run by run either way). Rank-local and
  /// byte-identical to packing.
  bool pack_elided() const { return pack_elided_; }

 private:
  minimpi::Comm& comm_;
  int rank_;
  std::vector<Box3> all_in_;
  std::vector<Box3> all_out_;
  ReshapeOptions options_;

  // The self-block, copied locally by execute(); every other overlap is a
  // message of plan_.
  Box3 self_box_;

  /// Resolved shard count (>= 1) from ReshapeOptions::workers.
  int workers_ = 1;
  /// Resolved at construction: every send sub-volume is contiguous in the
  /// source field.
  bool pack_elided_ = false;
  /// The tuner's broadcast decision when osc_sync was kAuto (overrides
  /// backend / workers at plan construction).
  std::optional<tuner::TuneDecision> tuned_;

  /// Persistent exchange plan of every reshape with off-rank traffic (null
  /// on a self-only reshape).
  std::unique_ptr<osc::ExchangePlan> plan_;
  osc::ExchangeStats stats_;
};

extern template class Reshape<float>;
extern template class Reshape<double>;
extern template class Reshape<std::complex<float>>;
extern template class Reshape<std::complex<double>>;

}  // namespace lossyfft
