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
// Delivery: every transport hands each finished (source, field) message to
// one caller-supplied sink, exactly once, as the message's bytes in the
// caller's element layout. A one-sided slot, raw or codec, fence or PSCW,
// is delivered by decode_source from the pinned receive span (raw slots
// land there directly; codec slots are decoded there first); a two-sided
// message by the pairwise loop's receive, straight from the transport's
// buffer when the wire is raw and uncoded, from the pinned span after the
// decode otherwise. So every plan but the uncoded raw two-sided one lands
// its messages in the pinned span (needs_recv()). Reshape's sink unpacks
// the rows into the destination field; execute(send, recv)'s default sink
// copies a message into `recv` only when it is not already there.
//
// Elements: counts and displacements are in elements of the caller's
// width. A raw wire moves any trivially-copyable element as bytes; codec
// and coded wires view the elements as doubles, so their width must be a
// multiple of sizeof(double).
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
#include <type_traits>
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

class ExchangePlan {
 public:
  /// The delivery sink: receives source `source`'s message of field
  /// `field`, recvcounts[source] elements in the caller's layout. Called
  /// once per non-empty (source, field) message, on the rank thread or a
  /// pool worker; distinct messages may be delivered concurrently.
  using Sink = void (*)(void* ctx, std::size_t source, std::size_t field,
                        std::span<const std::byte> message);

  /// Collective for kOneSided (offset all-to-all + window creation).
  /// Counts/displs are in elements of `elem_bytes` bytes and are copied;
  /// `recv` is pinned for the plan's lifetime and holds options.batch
  /// field banks (raw one-sided mode exposes it as the RMA window). A plan
  /// for which needs_recv() is false never touches it, so it may be empty.
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

  /// Whether a plan of this backend and options lands its messages in the
  /// pinned receive span: every plan but the uncoded raw two-sided one,
  /// which delivers straight from the transport's buffer.
  static bool needs_recv(PlanBackend backend, const OscOptions& options);

  /// Run the exchange: execute_batch() with one field. Collective; `recv`
  /// must be the first pinned field (the whole pinned span when
  /// options.batch == 1).
  ExchangeStats execute(std::span<const double> send, std::span<double> recv);

  /// execute_batch() with the default sink, which copies each message into
  /// `recv` unless it already sits there. `recv` must be the pinned
  /// span's leading `fields` banks. Collective.
  ExchangeStats execute_batch(std::span<const double> send,
                              std::span<double> recv, int fields);

  /// Exchange `fields` same-layout fields (1 <= fields <= options.batch)
  /// in one synchronization epoch, handing every finished message to
  /// `sink`: the one-sided path opens the epoch once, issues every field's
  /// puts per ring round, and closes each round once — fences and PSCW
  /// handshakes are paid per *batch*, not per field. `send` holds `fields`
  /// consecutive field images. Collective; delivered bytes are identical
  /// to `fields` back-to-back single-field calls.
  ExchangeStats execute_batch(std::span<const std::byte> send, int fields,
                              Sink sink, void* ctx);
  template <typename F>
  ExchangeStats execute_batch(std::span<const std::byte> send, int fields,
                              F&& sink) {
    return execute_batch(
        send, fields,
        [](void* c, std::size_t source, std::size_t field,
           std::span<const std::byte> message) {
          (*static_cast<std::remove_reference_t<F>*>(c))(source, field,
                                                         message);
        },
        static_cast<void*>(std::addressof(sink)));
  }

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

  /// Resident bytes of this plan's pinned buffers (window, staging slabs,
  /// reconstruction scratch). The honest per-plan cost a byte-budgeted
  /// plan cache (serve::PlanCache) charges its LRU accounting with.
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

  ExchangeStats execute_one_sided(std::span<const std::byte> send,
                                  int fields);
  ExchangeStats execute_two_sided(std::span<const std::byte> send,
                                  std::size_t f);

  /// Source `s`'s message of field `f` in the pinned receive span.
  std::span<std::byte> recv_message(std::size_t s, std::size_t f) const;

  /// Deliver source `s`'s slot in field bank `f`: a raw slot as it landed,
  /// a codec slot after verifying its header's epoch sequence (the
  /// put-with-notify flag) matches `seq` and decoding it into the pinned
  /// receive span. Runs on the rank thread or a pool worker; (source,
  /// field) pairs touch disjoint window and recv regions, so deliveries
  /// need no coordination.
  void decode_source(std::size_t s, std::uint16_t seq, std::size_t f);

  /// Coded decode of source `s` into `out`: scan the slot's data+parity
  /// frame headers and checksums, reconstruct ≤ m erasures from any k
  /// clean arrivals (Window::flush_delayed as the waiting fallback),
  /// re-validate the recovered chunk against the parity headers, decode.
  /// An unrecoverable group (> m erasures) raises a loud Error — captured
  /// into `decode_error_` by decode_source so the collective protocol
  /// finishes before execute rethrows it.
  void decode_source_coded(std::size_t s, std::uint16_t seq, std::size_t f,
                           std::span<double> out);

  /// Rethrow (and clear) a decode error deferred by decode_source. Called
  /// once per execute after every decode has been reaped.
  void rethrow_decode_error();

  minimpi::Comm& comm_;
  OscOptions options_;
  PlanBackend backend_;
  bool raw_ = false;    // No codec: direct byte exchange.
  bool fixed_ = false;  // Codec wire sizes are count-derived.
  bool coded_ = false;  // Framed + checksummed wire, parity_ RS chunks.
  int parity_ = 0;      // m parity frames per (source → target) group.
  CodecPtr codec_;
  int p_ = 0;
  int workers_ = 1;
  int batch_ = 1;  // Field capacity (options.batch).
  // Bytes per counted unit: the caller's element on a raw wire, a double
  // on codec and coded wires (counts are scaled to doubles there).
  std::size_t unit_ = sizeof(double);
  // The current execute's delivery sink.
  Sink sink_ = nullptr;
  void* sink_ctx_ = nullptr;

  std::span<std::byte> recv_pinned_;
  // Per-field extent of the pinned receive span, in bytes
  // (recv_pinned_.size() / batch_): bank f of recv starts at
  // f * recv_extent_.
  std::uint64_t recv_extent_ = 0;
  std::vector<std::uint64_t> sendcounts_, senddispls_;
  std::vector<std::uint64_t> recvcounts_, recvdispls_;
  // Wire capacities: the sum of each message's chunk capacities (exact
  // when fixed_).
  std::vector<std::uint64_t> send_wire_cap_, recv_wire_cap_;
  // Two-sided: capacity-prefix byte offsets into the staging slab.
  std::vector<std::uint64_t> stage_off_;

  // One-sided state. Codec-mode slot_offset_[i] points at source i's header
  // word; the payload follows at +kHeaderWordBytes (raw mode exposes the
  // receive buffer itself — no headers, slots are the final recvdispls).
  // All offsets are field-bank-0 values: field f adds f * bank_stride_
  // locally and f * target_bank_stride_[peer] on the target.
  std::vector<std::uint64_t> slot_offset_, target_offset_;
  std::uint64_t bank_stride_ = 0;  // Local per-field window bytes.
  std::vector<std::uint64_t> target_bank_stride_;  // Peers' bank strides.
  std::vector<std::byte> window_store_;  // Codec modes; raw exposes recv.
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
  // collective protocol finishes before execute rethrows).
  std::atomic<std::uint64_t> reconstructed_{0};
  std::atomic<std::uint64_t> straggler_waits_{0};
  std::mutex decode_error_mu_;
  std::exception_ptr decode_error_;
};

}  // namespace lossyfft::osc
