// The compressed all-to-all's shared vocabulary: sync modes, options,
// statistics and the pipeline chunk model. The exchange itself is
// osc::ExchangePlan (exchange_plan.hpp): Algorithm 3 of the paper as a
// node-aware ring of one-sided puts over an exposed window, with
// per-destination payloads compressed in chunks so compression and
// transfer pipeline (the CUDA stream + completion-counter construction of
// Section V-B; here the chunk loop is the pipeline and netsim prices its
// overlap), plus the two-sided ablation with the same codec.
//
// Codecs see payloads as spans of doubles (complex data is viewed as
// interleaved re/im); a raw plan moves any trivially-copyable element
// (ExchangePlan's element width).
#pragma once

#include <cstdint>
#include <span>

#include "compress/codec.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/fault.hpp"

namespace lossyfft::osc {

/// Per-round synchronization of the one-sided ring.
enum class OscSync {
  kFence,  // Global MPI_Win_fence after each round (Algorithm 3 as written).
  kPscw,   // Scoped post/start/complete/wait with just the round's node
           // pair: O(gpn) messages instead of an O(log p) barrier.
  kAuto,   // Resolve through the tuner at plan construction (src/tuner/):
           // the calibrated netsim cost model picks the sync mode, path,
           // and fan-out for the exchange signature. Callers below the
           // tuner layer (ExchangePlan itself) never see kAuto.
};

struct OscOptions {
  /// Codec for the wire representation; nullptr means no compression.
  CodecPtr codec;
  /// Pipeline chunk count per message (>= 1), or 0 to let the Section V-B
  /// pipeline model pick per message size (plan_pipeline_chunks).
  /// Variable-rate codecs always use one chunk (their stream is not
  /// independently splittable).
  int chunks = 8;
  /// Ranks per node for the node-aware ring.
  int gpus_per_node = 6;
  OscSync sync = OscSync::kFence;
  /// Codec/pack worker shards: 1 = serial on the calling rank (the
  /// paper's single-stream pipeline), 0 = the process pool's full
  /// concurrency, k > 1 = fan out to k shards. With more than one shard
  /// the chunk jobs of a round compress concurrently on the worker pool
  /// while earlier chunks are being put — the overlap of Section V-B
  /// executed for real instead of modeled. Wire bytes are identical at
  /// every setting.
  int workers = 1;
  /// Batch capacity of the plan (>= 1): how many same-layout fields one
  /// execute_batch() may exchange per synchronization epoch. Staging
  /// (and a one-run plan's pinned receive span) holds `batch` consecutive
  /// fields; the window is laid out in per-field banks, so a batch pays
  /// the fence / PSCW handshake cost once instead of once per field. 1
  /// (default) keeps the single-field footprint.
  int batch = 1;
  /// Erasure-coded exchange: number of parity chunks per (source → target)
  /// message group (0 = uncoded). With m > 0 every message's k pipeline
  /// chunks travel in checksummed frames plus m Reed–Solomon parity chunks
  /// (osc/coded_group.hpp), and the target reconstructs any ≤ m missing /
  /// late / corrupted chunks from any k clean arrivals before falling back
  /// to waiting. Zero-loss coded runs are byte-identical to the uncoded
  /// path; recovery is byte-identical to the clean run. Steady-state
  /// execute() stays zero-collective and zero-allocation with parity
  /// enabled (fault handling itself may allocate — faults are
  /// exceptional). m ∈ [0, coded::kMaxParity].
  int parity = 0;
  /// Deterministic fault injection (tests / soak): non-owning pointer to a
  /// plan consulted per put (one-sided) or per send (two-sided).
  /// Installing a plan forces the coded (framed + checksummed) wire even
  /// at parity == 0, so every injected fault is *detected* — with m = 0 a
  /// faulted chunk is an unrecoverable erasure and execute() throws a loud
  /// Error instead of decoding garbage. nullptr (default) costs nothing.
  const minimpi::FaultPlan* fault_plan = nullptr;
};

/// Model-driven chunk count: minimizes the compression/transfer pipeline
/// time for one message of `payload_bytes` compressed at `rate`, over
/// power-of-two candidates up to 64 (netsim::pipeline_time with default
/// machine constants). Deterministic, so sender and receiver agree.
int plan_pipeline_chunks(std::uint64_t payload_bytes, double rate);

// Through Reshape (and so Fft3d and the serving layer), payload_bytes,
// wire_bytes and messages cover off-rank traffic only: a reshape copies
// each rank's self-block locally and hands the exchange zero self counts.
// Direct ExchangePlan callers that pass self counts see them counted like
// any other destination.
struct ExchangeStats {
  std::uint64_t payload_bytes = 0;  // Uncompressed bytes this rank sent.
  std::uint64_t wire_bytes = 0;     // Bytes actually put on the wire.
  int rounds = 0;
  int messages = 0;
  int chunks_issued = 0;  // Coded mode counts parity frames too.
  double seconds = 0.0;  // Wall-clock spent in exchanges (this rank).
  // Resilience counters (coded mode; all zero otherwise).
  std::uint64_t parity_bytes = 0;  // Wire bytes spent on parity frames.
  std::uint64_t chunks_reconstructed = 0;  // Erasures recovered via parity.
  std::uint64_t straggler_waits = 0;  // Recoveries that had to flush
                                      // delayed puts before reconstructing.
  // Arrival-skew counters (per-source observability paths only: PSCW
  // one-sided and the two-sided pairwise loop, coded or not, where each
  // source's completion is individually visible; fence mode sees one global event
  // and records nothing). The measurement hook for feeding measured
  // straggler statistics back into the tuner's straggler constants.
  std::uint64_t skew_epochs = 0;   // Epochs that observed >= 2 arrivals.
  double skew_seconds = 0.0;       // Sum over epochs of (last - first).
  double max_skew_seconds = 0.0;   // Worst single-epoch delta.

  /// Fold another stats record into this one: counters add, rounds add,
  /// the worst-epoch skew takes the max. Every accumulation site (Reshape,
  /// Fft3d::stats, batch merges, the serving layer's per-tenant tallies)
  /// goes through here so new counters cannot be silently dropped.
  void accumulate(const ExchangeStats& o) {
    payload_bytes += o.payload_bytes;
    wire_bytes += o.wire_bytes;
    rounds += o.rounds;
    messages += o.messages;
    chunks_issued += o.chunks_issued;
    seconds += o.seconds;
    parity_bytes += o.parity_bytes;
    chunks_reconstructed += o.chunks_reconstructed;
    straggler_waits += o.straggler_waits;
    skew_epochs += o.skew_epochs;
    skew_seconds += o.skew_seconds;
    if (o.max_skew_seconds > max_skew_seconds) {
      max_skew_seconds = o.max_skew_seconds;
    }
  }

  double compression_ratio() const {
    return wire_bytes > 0 ? static_cast<double>(payload_bytes) /
                                static_cast<double>(wire_bytes)
                          : 1.0;
  }
};

/// Deterministic pipeline chunk partition of `count` elements into at most
/// `chunks` pieces (each a multiple of 4 except the last, so block codecs
/// split cleanly). Shared by compressor and decompressor.
std::vector<std::uint64_t> chunk_partition(std::uint64_t count, int chunks);

}  // namespace lossyfft::osc
