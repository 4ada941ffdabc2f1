// Persistent exchange plans: the compressed all-to-all of the paper's
// Algorithm 3 (one-sided) and its two-sided ablation, with every per-call
// setup step hoisted into plan construction, so a repeated exchange
// (Reshape::execute every FFT iteration) pays only the data movement —
// the persistent-collective model of Dalcin et al.'s advanced MPI FFT. A
// one-off exchange is a plan built, executed once and dropped.
//
// A plan pins everything derivable from the counts at construction time:
//
//  * the RMA Window (one-sided), created once and fence-reused per execute
//    instead of create/destroy (two barriers) per call;
//  * the slot-offset u64 all-to-all, run once at plan time. Slots are laid
//    out at chunk capacities, so the layout is count-derived for every
//    codec class;
//  * every ring round's chunk jobs, one round staging slab, the unpack
//    jobs, the ring schedule and the PSCW source lists.
//
// Each transport has one codec loop. The one-sided ring (Algorithm 3)
// encodes each destination's message chunk by chunk into the round slab
// and puts it: a fixed-rate message is its Section V-B pipeline chunks, a
// variable-rate message (szq, zfpx accuracy mode, byteplane RLE) one chunk
// at max_compressed_bytes capacity. Every slot decodes through the same
// unpack jobs.
//
// Wire format of a codec-mode window slot: one 8-aligned u64 header word
// followed by the message's chunks at their capacities. The header packs
// (epoch sequence << 48 | encoded message bytes) and is release-stored
// after the message's last chunk lands (put-with-notify). That word does
// two jobs:
//
//  * it carries a variable-rate message's data-dependent size, so executes
//    run *zero* collectives in steady state for every codec class;
//  * it is the per-source completion flag behind target-side pipelined
//    decode: under kPscw epochs, once round j's exposure closes the
//    receiver verifies each source slot's header and dispatches that
//    slot's decode+unpack while later ring rounds are still putting —
//    overlap the decode-after-final-fence schedule (the paper's, and the
//    fence mode's) cannot offer.
//
// Steady-state execute() therefore performs no window create/destroy, no
// offset exchange, no size collectives, and (workers == 1) no heap
// allocation for every codec class — asserted by counters in
// tests/exchange_plan_test.cpp. (With workers > 1 the pipelined compress /
// decode jobs allocate their task control blocks on submission.)
//
// The two-sided path is one pairwise loop with the codec fused into the
// transport (Comm::isend_produce / recv_consume): the sender encodes
// straight into the eager slab or its pinned staging, and the receiver
// decodes straight out of the sender's published buffer, collapsing
// encode+copy+decode to a single pass — the same copy count as the
// one-sided raw path. Raw messages publish the send span itself; the coded
// wire frames each message and sends its parity replicas on their own tags.
//
// Layouts: the caller describes every message as a RunLayout, a subarray
// of its field image (Dalcin et al.'s MPI subarray datatype): `planes`
// planes of `runs` runs of `run` consecutive elements. The plan, not its
// caller, touches every element of a message, through one run walker that
// serves pack, unpack, direct encode and direct decode. A row-addressable
// codec (codec.hpp) goes direct on every path: each chunk is encoded run
// by run straight from the send field and decoded run by run straight
// into the receive field. Runs shorter than 64 values, and every codec
// group that straddles two runs, pass through a 256-value gather block on
// the stack, so short runs do not pay a codec call each. Every other
// message stages one pass per side through the same walker:
//
//  * a raw wire packs a message whose send layout is more than one run,
//    and a raw one-sided plan lands every message in its receive staging
//    (the RMA window) and unpacks it from there; the uncoded raw
//    two-sided wire unpacks straight from the transport's buffer;
//  * a variable-rate codec (and scaled fp16) packs a multi-run send
//    layout before its encode, and decodes a multi-run receive layout into
//    staging before the unpack.
//
// So a plan pins send and receive staging only for the messages that
// stage. The (counts, displs) constructors are one-run sugar; their
// pinned `recv` span is the raw one-sided window, so execute(send, recv)
// with that span lands messages in place.
//
// Elements: layouts (and counts and displacements) are in elements of the
// caller's width. A raw wire moves any trivially-copyable element as
// bytes; codec and coded wires view the elements as doubles, so their
// width must be a multiple of sizeof(double).
//
// Construction, execution, and destruction of a one-sided plan are
// collective over the communicator (window lifecycle + offset exchange):
// every rank must create, execute, and destroy its plans in the same order.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/window.hpp"
#include "osc/osc_alltoall.hpp"

namespace lossyfft::osc {

/// Which transport the plan drives.
enum class PlanBackend {
  kOneSided,  // Algorithm 3: node-aware ring of puts over the cached window.
  kTwoSided,  // Pairwise two-sided exchange, codec fused into the transport.
};

/// Where one message's elements sit in a field image: `planes` planes,
/// `plane_stride` elements apart, of `runs` runs, `run_stride` elements
/// apart, of `run` consecutive elements each, the first run starting at
/// element `first`. Elements are taken run by run, plane by plane. A
/// (displacement, count) message is one run.
struct RunLayout {
  std::uint64_t first = 0;
  std::uint64_t run = 0;
  std::uint64_t runs = 1;
  std::uint64_t run_stride = 0;
  std::uint64_t planes = 1;
  std::uint64_t plane_stride = 0;

  static RunLayout one_run(std::uint64_t displ, std::uint64_t count) {
    return {displ, count, 1, count, 1, count};
  }

  std::uint64_t count() const { return run * runs * planes; }
  /// One past the last element the layout touches (0 when empty).
  std::uint64_t extent() const {
    return count() == 0 ? 0
                        : first + (planes - 1) * plane_stride +
                              (runs - 1) * run_stride + run;
  }
  /// The same elements with abutting runs merged: rows whose stride is
  /// the run length become one run, then planes that abut become one
  /// plane. A layout whose elements are consecutive ends as one run.
  RunLayout merged() const;
  /// True when the layout is one run (or empty); a merged() layout is
  /// one run exactly when its elements are consecutive.
  bool contiguous() const { return count() == 0 || runs * planes == 1; }
};

class ExchangePlan {
 public:
  /// Collective for kOneSided (offset all-to-all + window creation).
  /// `send[d]` places the message for rank d in a send field image,
  /// `recv[s]` the message from rank s in a receive field image, both in
  /// elements of `elem_bytes` bytes; the layouts are copied. The plan pins
  /// staging only for the messages that stage (see the header comment),
  /// each for options.batch field banks.
  ExchangePlan(minimpi::Comm& comm, PlanBackend backend,
               std::span<const RunLayout> send,
               std::span<const RunLayout> recv, std::size_t elem_bytes,
               const OscOptions& options);

  /// One-run sugar: message d is senddispls[d], sendcounts[d] of the send
  /// image, message s recvdispls[s], recvcounts[s] of the receive image.
  /// `recv` is pinned for the plan's lifetime and holds options.batch
  /// field images; a raw one-sided plan exposes it as the RMA window, so
  /// its puts land in place. Every other plan leaves it alone, and it may
  /// be empty.
  ExchangePlan(minimpi::Comm& comm, PlanBackend backend,
               std::span<const std::uint64_t> sendcounts,
               std::span<const std::uint64_t> senddispls,
               std::span<const std::uint64_t> recvcounts,
               std::span<const std::uint64_t> recvdispls,
               std::span<std::byte> recv, std::size_t elem_bytes,
               const OscOptions& options);

  /// Double elements: the constructor above at sizeof(double).
  ExchangePlan(minimpi::Comm& comm, PlanBackend backend,
               std::span<const std::uint64_t> sendcounts,
               std::span<const std::uint64_t> senddispls,
               std::span<const std::uint64_t> recvcounts,
               std::span<const std::uint64_t> recvdispls,
               std::span<double> recv, const OscOptions& options)
      : ExchangePlan(comm, backend, sendcounts, senddispls, recvcounts,
                     recvdispls, std::as_writable_bytes(recv),
                     sizeof(double), options) {}

  /// Collective for kOneSided (window destruction).
  ~ExchangePlan();

  ExchangePlan(const ExchangePlan&) = delete;
  ExchangePlan& operator=(const ExchangePlan&) = delete;

  /// Run the exchange: execute_batch() with one field. Collective.
  ExchangeStats execute(std::span<const double> send, std::span<double> recv);

  /// execute_batch() over double fields.
  ExchangeStats execute_batch(std::span<const double> send,
                              std::span<double> recv, int fields);

  /// Exchange `fields` same-layout fields (1 <= fields <= options.batch)
  /// in one synchronization epoch: the one-sided path opens the epoch
  /// once, issues every field's puts per ring round, and closes each round
  /// once — fences and PSCW handshakes are paid per *batch*, not per
  /// field. `send` and `recv` hold `fields` consecutive field images each,
  /// every image large enough for its layouts; only the layouts' elements
  /// of `recv` are written. Collective; the result is identical to
  /// `fields` back-to-back single-field calls.
  ExchangeStats execute_batch(std::span<const std::byte> send,
                              std::span<std::byte> recv, int fields);

  PlanBackend backend() const { return backend_; }
  const OscOptions& options() const { return options_; }

  /// Accumulated per-source arrival lag (seconds behind the epoch's first
  /// arrival, summed over epochs), one slot per communicator rank. Only the
  /// per-source observability paths record it — PSCW one-sided (a source is
  /// stamped when its round's exposure closes) and the two-sided wire
  /// (stamped per partner, coded or not); fence epochs end in one
  /// global event and contribute nothing. Normalize by
  /// ExchangeStats::skew_epochs for a per-epoch figure. Local, not
  /// collective; the span stays valid for the plan's lifetime.
  std::span<const double> source_lag_seconds() const { return source_lag_; }

  /// Resident bytes of this plan's pinned buffers (window, send and
  /// receive staging, codec slabs, reconstruction scratch). The honest
  /// per-plan cost a byte-budgeted plan cache (serve::PlanCache) charges
  /// its LRU accounting with. A pinned span passed by the caller is the
  /// caller's and is not counted.
  std::uint64_t footprint_bytes() const;

 private:
  // One unit of codec work pinned at plan time: chunk
  // [elem_off, elem_off+elem_cnt) of the message to/from peer `peer`,
  // at most `wire_bytes` (its capacity) staged at `stage_off` (round slab
  // for sends, absolute payload offset in the window for unpacks), put at
  // `target_off` on the peer.
  struct PlanChunk {
    int peer = 0;
    std::uint64_t elem_off = 0;
    std::uint64_t elem_cnt = 0;
    std::uint64_t stage_off = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t target_off = 0;
    // Coded mode: parity row index of this job (-1 = data chunk). Parity
    // jobs follow their group's data jobs and encode over the staged
    // payloads, so they run serially on the rank thread after the group's
    // compresses are reaped. A one-chunk group's parity jobs are replicas:
    // their stage_off is the data frame's, which they put again.
    int prow = -1;
  };

  // Sentinel staging offset: the message does not stage on this side.
  static constexpr std::uint64_t kNoStage = ~std::uint64_t{0};

  // The constructors' body; `pinned` is the sugar's receive span.
  ExchangePlan(minimpi::Comm& comm, PlanBackend backend,
               std::span<const RunLayout> send,
               std::span<const RunLayout> recv, std::span<std::byte> pinned,
               std::size_t elem_bytes, const OscOptions& options);

  ExchangeStats execute_one_sided(std::span<const std::byte> send,
                                  int fields);
  ExchangeStats execute_two_sided(std::span<const std::byte> send,
                                  std::size_t f);

  /// Pack every staged (field, destination) send message of the batch,
  /// fanned out over the pool.
  void pack(std::span<const std::byte> send, std::size_t fields);
  /// Destination d's message of field image `fsend` as consecutive bytes:
  /// its packed staging bank `f`, or the one run of `fsend` it occupies.
  std::span<const std::byte> send_message(std::span<const std::byte> fsend,
                                          std::size_t d, std::size_t f) const;
  /// Encode elements [off, off + cnt) of destination d's message into
  /// `out` (a chunk's capacity); returns the encoded size.
  std::size_t encode_chunk(std::span<const std::byte> fsend, std::size_t d,
                           std::size_t f, std::uint64_t off,
                           std::uint64_t cnt, std::span<std::byte> out) const;

  /// Field f's receive image of the current execute.
  std::byte* recv_field(std::size_t f) const {
    return recv_cur_ + f * recv_cur_ext_;
  }
  /// Where source s's message of field f lands as consecutive bytes: its
  /// receive staging, or the one run of the receive image it occupies.
  std::byte* recv_target(std::size_t s, std::size_t f) const;
  /// Decode elements [off, off + cnt) of source s's message of field f
  /// from `in` (the chunk's stream).
  void decode_chunk(std::size_t s, std::size_t f, std::uint64_t off,
                    std::uint64_t cnt, std::span<const std::byte> in) const;
  /// Unpack source s's message of field f from the consecutive bytes at
  /// `msg` into the receive image (nothing when it already sits there).
  void unpack(std::size_t s, std::size_t f, const std::byte* msg) const;
  /// Finish source s's message of field f: unpack it from receive staging
  /// when it staged.
  void finish_source(std::size_t s, std::size_t f) const;

  /// Deliver source `s`'s slot in field bank `f`: a raw slot as it landed,
  /// a codec slot after verifying its header's epoch sequence (the
  /// put-with-notify flag) matches `seq` and decoding it. Runs on the rank
  /// thread or a pool worker; (source, field) pairs touch disjoint window,
  /// staging and receive regions, so deliveries need no coordination.
  void decode_source(std::size_t s, std::uint16_t seq, std::size_t f);

  /// Coded decode of source `s`: scan the slot's data+parity frame
  /// headers and checksums, reconstruct ≤ m erasures from any k clean
  /// arrivals (Window::flush_delayed as the waiting fallback), re-validate
  /// the recovered chunk against the parity headers, decode. An
  /// unrecoverable group (> m erasures) raises a loud Error — captured
  /// into `decode_error_` by decode_source so the collective protocol
  /// finishes before execute rethrows it.
  void decode_source_coded(std::size_t s, std::uint16_t seq, std::size_t f);

  /// Rethrow (and clear) a decode error deferred by decode_source. Called
  /// once per execute after every decode has been reaped.
  void rethrow_decode_error();

  minimpi::Comm& comm_;
  OscOptions options_;
  PlanBackend backend_;
  bool raw_ = false;     // No codec: direct byte exchange.
  bool fixed_ = false;   // Codec wire sizes are count-derived.
  bool direct_ = false;  // Row-addressable codec: no pack, no unpack.
  bool coded_ = false;   // Framed + checksummed wire, parity_ RS chunks.
  int parity_ = 0;       // m parity frames per (source → target) group.
  CodecPtr codec_;
  std::size_t granularity_ = 0;  // codec_->parallel_granularity().
  int p_ = 0;
  int workers_ = 1;
  int pack_shards_ = 1;  // Pack fan-out (WorkerPool::effective_shards).
  int batch_ = 1;        // Field capacity (options.batch).
  // Bytes per counted unit: the caller's element on a raw wire, a double
  // on codec and coded wires (layouts are scaled to doubles there).
  std::size_t unit_ = sizeof(double);

  // Message layouts in units, and their element counts.
  std::vector<RunLayout> send_layout_, recv_layout_;
  std::vector<std::uint64_t> sendcounts_, recvcounts_;
  // Bytes one field image must span to hold every layout.
  std::uint64_t send_need_ = 0, recv_need_ = 0;
  // The current execute's receive images (field f at f * recv_cur_ext_).
  std::byte* recv_cur_ = nullptr;
  std::size_t recv_cur_ext_ = 0;

  // Send staging: staged message d of field f sits at
  // f * sbank_ + sstage_off_[d] (kNoStage = sent from the field).
  std::vector<std::byte> sstage_;
  std::vector<std::uint64_t> sstage_off_;
  std::uint64_t sbank_ = 0;
  // Receive staging: staged message s of field f sits at
  // f * rbank_ + rstage_off_[s] of rstage_span_, which is the caller's
  // pinned span (one-run sugar, raw one-sided) or rstage_.
  std::vector<std::byte> rstage_;
  std::span<std::byte> rstage_span_;
  std::vector<std::uint64_t> rstage_off_;
  std::uint64_t rbank_ = 0;

  // Wire capacities: the sum of each message's chunk capacities (exact
  // when fixed_).
  std::vector<std::uint64_t> send_wire_cap_, recv_wire_cap_;
  // Two-sided: capacity-prefix byte offsets into the staging slab.
  std::vector<std::uint64_t> stage_off_;

  // One-sided state. Codec-mode slot_offset_[i] points at source i's header
  // word; the payload follows at +kHeaderWordBytes (raw mode exposes the
  // receive staging itself — no headers, slots are its offsets).
  // All offsets are field-bank-0 values: field f adds f * bank_stride_
  // locally and f * target_bank_stride_[peer] on the target.
  std::vector<std::uint64_t> slot_offset_, target_offset_;
  std::uint64_t bank_stride_ = 0;  // Local per-field window bytes.
  std::vector<std::uint64_t> target_bank_stride_;  // Peers' bank strides.
  std::vector<std::byte> window_store_;  // Codec modes; raw exposes staging.
  std::unique_ptr<minimpi::Window> win_;
  std::uint64_t epoch_seq_ = 0;  // Stamped into slot headers each execute.
  std::vector<std::vector<int>> rounds_;        // ring_targets schedule.
  std::vector<std::vector<int>> pscw_sources_;  // ring_sources exposure.
  std::vector<std::vector<PlanChunk>> round_jobs_;  // Codec sends.
  std::vector<PlanChunk> unpack_jobs_;              // Codec unpacks.
  // Per-source [begin, end) into unpack_jobs_.
  std::vector<std::pair<std::size_t, std::size_t>> unpack_range_;
  // Encoded size of each data job of the round being put, indexed like
  // round_jobs_[j]; pool jobs write their own slot.
  std::vector<std::uint64_t> job_bytes_;
  std::vector<std::future<void>> inflight_;
  std::vector<std::future<void>> decode_inflight_;  // PSCW pipelined decode.

  // Codec staging: one-sided = the round slab, every codec class's chunks
  // of the largest round, reused each round and each field of a batch;
  // two-sided = all destinations at capacity offsets.
  std::vector<std::byte> stage_;

  // Arrival-skew scratch, pre-sized to p at construction so steady-state
  // stamping allocates nothing: arrival_time_[s] is source s's completion
  // stamp this epoch (negative = unseen), source_lag_ the lifetime lag
  // accumulation behind source_lag_seconds().
  std::vector<double> arrival_time_;
  std::vector<double> source_lag_;
  /// Reduce this epoch's arrival_time_ stamps into `stats` + source_lag_.
  void finish_skew_epoch(ExchangeStats& stats);

  // --- Coded mode (parity / fault injection) ------------------------------
  // Receive frame directory (one-sided): data frame i of source s has its
  // payload at unpack_jobs_[unpack_range_[s].first + i].stage_off (header
  // word at -16, checksum at -8); its parity frames sit at bank-0 window
  // byte coded_poff_[s * parity_ + j] with payload capacity coded_L_[s]
  // (the group cap L = the largest data chunk's capacity).
  std::vector<std::uint64_t> coded_poff_, coded_L_;
  // Pinned reconstruction scratch: (source s, field f) owns the disjoint
  // region [rec_off_[s] + f * rec_stride_, + parity_ * coded_L_[s]), so
  // concurrent decodes never share scratch.
  std::vector<std::byte> rec_scratch_;
  std::vector<std::uint64_t> rec_off_;
  std::uint64_t rec_stride_ = 0;
  // Two-sided coded: parity replica staging — clean copies of the data
  // frame taken *before* the data isend may be faulted (one slab, reused
  // per pairwise partner).
  std::vector<std::byte> pstage_;
  std::uint64_t pstage_stride_ = 0;
  // Resilience counters for the current execute (decodes may run on pool
  // workers) and the deferred decode error (first failure wins; the
  // collective protocol finishes before execute rethrows it).
  std::atomic<std::uint64_t> reconstructed_{0};
  std::atomic<std::uint64_t> straggler_waits_{0};
  std::mutex decode_error_mu_;
  std::exception_ptr decode_error_;
};

}  // namespace lossyfft::osc
