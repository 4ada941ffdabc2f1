#include "osc/exchange_plan.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/worker_pool.hpp"
#include "compress/checksum.hpp"
#include "compress/truncate.hpp"
#include "minimpi/alltoall.hpp"
#include "osc/coded_group.hpp"
#include "osc/schedule.hpp"

namespace lossyfft::osc {

namespace {

// Two-sided exchange tag, in the collective tag space clear of both
// user tags and the alltoallv pairwise/Bruck tags at (1 << 27).
constexpr int kFusedTag = (1 << 28) + 72;

// Coded two-sided parity replica tags: replica j travels on
// kFusedParityTag + j, so the receiver can drain data and parity frames of
// one pairwise partner independently (j < coded::kMaxParity).
constexpr int kFusedParityTag = (1 << 28) + 80;

// Frame and slot offsets keep every u64 header word 8-aligned.
constexpr std::uint64_t align8(std::uint64_t b) { return (b + 7) / 8 * 8; }

// Slot header word: (epoch sequence << 48) | compressed payload bytes.
// 48 bits bound a single slot's payload at 256 TiB — far beyond any
// max_compressed_bytes this library produces (see the Codec contract).
constexpr std::uint64_t kHeaderBytesMask = (std::uint64_t{1} << 48) - 1;

std::uint64_t make_slot_header(std::uint16_t seq, std::uint64_t bytes) {
  LFFT_ASSERT(bytes <= kHeaderBytesMask);
  return (std::uint64_t{seq} << 48) | bytes;
}

// A two-sided coded frame is clean when its header carries this epoch's
// sequence and its own payload length — at most `cap`, since whole-message
// fixed-rate encodes may undershoot the cap on tail packing — and the
// checksum over the payload matches.
bool clean_frame(std::span<const std::byte> frame, std::uint16_t seq,
                 std::uint64_t cap) {
  if (frame.size() < coded::kFrameBytes) return false;
  std::uint64_t h = 0;
  std::uint64_t csum = 0;
  std::memcpy(&h, frame.data(), sizeof(h));
  std::memcpy(&csum, frame.data() + minimpi::kHeaderWordBytes, sizeof(csum));
  const std::uint64_t b = h & kHeaderBytesMask;
  return static_cast<std::uint16_t>(h >> 48) == seq &&
         b == frame.size() - coded::kFrameBytes && b <= cap &&
         fnv1a64(frame.subspan(coded::kFrameBytes)) == csum;
}

// Codec and coded wires view the caller's elements as doubles.
std::span<const double> as_doubles(std::span<const std::byte> b) {
  return {reinterpret_cast<const double*>(b.data()),
          b.size() / sizeof(double)};
}

// The direct path's gather block: runs shorter than kShortRun values pass
// through it instead of paying a codec call each, and so does every codec
// group that straddles two runs. It holds kBlock values (a whole number
// of groups), so codecs with granularity above kBlock stage instead.
constexpr std::uint64_t kShortRun = 64;
constexpr std::size_t kBlock = 256;

std::vector<RunLayout> one_runs(std::span<const std::uint64_t> counts,
                                std::span<const std::uint64_t> displs) {
  LFFT_REQUIRE(counts.size() == displs.size(),
               "alltoallv: counts/displs must have comm.size() entries");
  std::vector<RunLayout> v(counts.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = RunLayout::one_run(displs[i], counts[i]);
  }
  return v;
}

// The run walker: call f(element, length) for each stretch of consecutive
// elements that message elements [off, off + cnt) of layout `l` occupy,
// in message order. Pack, unpack, direct encode and direct decode all go
// through here.
template <typename F>
void walk_runs(const RunLayout& l, std::uint64_t off, std::uint64_t cnt,
               F&& f) {
  if (cnt == 0) return;
  const std::uint64_t plane_elems = l.run * l.runs;
  std::uint64_t plane = off / plane_elems;
  std::uint64_t row = off % plane_elems / l.run;
  std::uint64_t skip = off % l.run;
  while (cnt > 0) {
    const std::uint64_t len = std::min(l.run - skip, cnt);
    f(l.first + plane * l.plane_stride + row * l.run_stride + skip, len);
    cnt -= len;
    skip = 0;
    if (++row == l.runs) {
      row = 0;
      ++plane;
    }
  }
}

// Direct encode of a row-addressable codec (granularity g): elements
// [off, off + cnt) of the message laid out as `l` in `field` become the
// chunk's stream at `out`, exactly the bytes compressing them consecutively
// writes. A long, group-aligned stretch encodes in place at byte
// max_compressed_bytes(pos) of the stream; short runs and the group that
// straddles into the next run gather in the block first. The chunk's tail
// may be a short group.
std::size_t encode_runs(const Codec& c, std::size_t g, const double* field,
                        const RunLayout& l, std::uint64_t off,
                        std::uint64_t cnt, std::byte* out) {
  std::array<double, kBlock> block;
  const std::uint64_t cap = kBlock / g * g;
  const std::uint64_t longest = std::max<std::uint64_t>(kShortRun, g);
  std::uint64_t pos = 0;   // Chunk elements encoded; a group start.
  std::uint64_t have = 0;  // Values gathered in the block.
  const auto put = [&](const double* v, std::uint64_t n) {
    const std::size_t at = c.max_compressed_bytes(pos);
    c.compress(std::span<const double>(v, n),
               std::span<std::byte>(out + at,
                                    c.max_compressed_bytes(pos + n) - at));
    pos += n;
  };
  walk_runs(l, off, cnt, [&](std::uint64_t at, std::uint64_t len) {
    const double* src = field + at;
    while (len > 0) {
      if (have == 0 && len >= longest) {
        const std::uint64_t n = pos + len == cnt ? len : len / g * g;
        put(src, n);
        src += n;
        len -= n;
        continue;
      }
      const std::uint64_t take = std::min(len, cap - have);
      std::copy_n(src, take, block.data() + have);
      have += take;
      src += take;
      len -= take;
      if (have == cap) {
        put(block.data(), cap);
        have = 0;
      }
    }
  });
  if (have > 0) put(block.data(), have);
  return c.max_compressed_bytes(cnt);
}

// Direct decode, the inverse of encode_runs: the chunk's stream `in`
// becomes elements [off, off + cnt) of the message laid out as `l` in
// `field`. Each decode is handed the rest of the chunk's bytes (vector
// unpacks read ahead within them); a short run, or one that starts a
// group straddling into the next run, decodes a block of values ahead
// from its group's offset and copies them out run by run.
void decode_runs(const Codec& c, std::size_t g, std::span<const std::byte> in,
                 const RunLayout& l, std::uint64_t off, std::uint64_t cnt,
                 double* field) {
  std::array<double, kBlock> block;
  const std::uint64_t cap = kBlock / g * g;
  const std::uint64_t longest = std::max<std::uint64_t>(kShortRun, g);
  std::uint64_t pos = 0;   // Chunk elements placed.
  std::uint64_t bbeg = 0;  // The block holds elements [bbeg, bend).
  std::uint64_t bend = 0;
  const auto get = [&](double* v, std::uint64_t n) {
    c.decompress(in.subspan(c.max_compressed_bytes(pos)),
                 std::span<double>(v, n));
  };
  walk_runs(l, off, cnt, [&](std::uint64_t at, std::uint64_t len) {
    double* dst = field + at;
    while (len > 0) {
      std::uint64_t n = 0;
      if (pos < bend) {
        n = std::min(len, bend - pos);
        std::copy_n(block.data() + (pos - bbeg), n, dst);
      } else if (len >= longest) {
        n = pos + len == cnt ? len : len / g * g;
        get(dst, n);
      } else {
        bbeg = pos;
        bend = std::min(pos + cap, cnt);
        get(block.data(), bend - bbeg);
        continue;
      }
      pos += n;
      dst += n;
      len -= n;
    }
  });
}

// Monotonic stamp for the arrival-skew counters. Only differences within
// one epoch are ever consumed, so the epoch base is irrelevant.
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RunLayout RunLayout::merged() const {
  RunLayout l = *this;
  if (l.count() == 0) return l;
  if (l.runs == 1 || l.run_stride == l.run) {
    l.run *= l.runs;
    l.runs = 1;
    l.run_stride = l.run;
  }
  if (l.runs > 1 && l.planes > 1 && l.plane_stride == l.runs * l.run_stride) {
    l.runs *= l.planes;
    l.planes = 1;
    l.plane_stride = l.runs * l.run_stride;
  }
  if (l.runs == 1 && (l.planes == 1 || l.plane_stride == l.run)) {
    l.run *= l.planes;
    l.planes = 1;
    l.run_stride = l.plane_stride = l.run;
  }
  return l;
}

ExchangePlan::ExchangePlan(minimpi::Comm& comm, PlanBackend backend,
                           std::span<const RunLayout> send,
                           std::span<const RunLayout> recv,
                           std::size_t elem_bytes, const OscOptions& options)
    : ExchangePlan(comm, backend, send, recv, {}, elem_bytes, options) {}

ExchangePlan::ExchangePlan(minimpi::Comm& comm, PlanBackend backend,
                           std::span<const std::uint64_t> sendcounts,
                           std::span<const std::uint64_t> senddispls,
                           std::span<const std::uint64_t> recvcounts,
                           std::span<const std::uint64_t> recvdispls,
                           std::span<std::byte> recv, std::size_t elem_bytes,
                           const OscOptions& options)
    : ExchangePlan(comm, backend, one_runs(sendcounts, senddispls),
                   one_runs(recvcounts, recvdispls), recv, elem_bytes,
                   options) {}

ExchangePlan::ExchangePlan(minimpi::Comm& comm, PlanBackend backend,
                           std::span<const RunLayout> send,
                           std::span<const RunLayout> recv,
                           std::span<std::byte> pinned, std::size_t elem_bytes,
                           const OscOptions& options)
    : comm_(comm),
      options_(options),
      backend_(backend),
      raw_(options.codec == nullptr),
      codec_(options.codec ? options.codec
                           : std::make_shared<const IdentityCodec>()),
      p_(comm.size()) {
  LFFT_REQUIRE(options_.sync != OscSync::kAuto,
               "ExchangePlan: OscSync::kAuto must be resolved (tuner) "
               "before plan construction");
  const auto p = static_cast<std::size_t>(p_);
  LFFT_REQUIRE(send.size() == p && recv.size() == p,
               "alltoallv: counts/displs must have comm.size() entries");
  fixed_ = codec_->fixed_size();
  // Coded mode: parity frames and/or a fault plan force the framed,
  // checksummed wire — even `raw` exchanges route through the (exact)
  // IdentityCodec so every chunk carries a header + checksum frame and
  // faults are detectable. Received values stay bitwise identical to the
  // uncoded path in fault-free runs: frames change the wire, not the
  // payload bytes.
  coded_ = options_.parity > 0 || options_.fault_plan != nullptr;
  if (coded_) {
    LFFT_REQUIRE(options_.parity >= 0 && options_.parity <= coded::kMaxParity,
                 "ExchangePlan: parity must be in [0, coded::kMaxParity]");
    parity_ = options_.parity;
    raw_ = false;
  }
  // A coded one-sided group holds at most kMaxDataChunks data chunks, and
  // only an explicit fixed-rate chunk count can exceed that (the pipeline
  // model picks at most 64; the two-sided wire sends one chunk per
  // message). Every rank shares the options, so every rank gives the same
  // verdict here, before the first collective: a throw on one rank alone
  // would strand its peers in the offset exchange.
  LFFT_REQUIRE(!coded_ || backend_ != PlanBackend::kOneSided || !fixed_ ||
                   options_.chunks <= coded::kMaxDataChunks,
               "ExchangePlan: coded exchange supports at most "
               "kMaxDataChunks pipeline chunks per message");
  batch_ = options_.batch;
  LFFT_REQUIRE(batch_ >= 1, "ExchangePlan: batch capacity must be >= 1");
  LFFT_REQUIRE(pinned.size() % static_cast<std::size_t>(batch_) == 0,
               "ExchangePlan: pinned recv must hold `batch` equal fields");

  // Count in wire units: a raw wire moves the caller's elements whole,
  // codec and coded wires see them as doubles.
  LFFT_REQUIRE(elem_bytes > 0 && (raw_ || elem_bytes % sizeof(double) == 0),
               "ExchangePlan: codec and coded wires carry double-based "
               "elements");
  unit_ = raw_ ? elem_bytes : sizeof(double);
  const std::uint64_t per = elem_bytes / unit_;
  granularity_ = codec_->parallel_granularity();
  direct_ = !raw_ && row_addressable(*codec_) && granularity_ <= kBlock;
  const auto in_units = [per](RunLayout l) {
    l.first *= per;
    l.run *= per;
    l.run_stride *= per;
    l.plane_stride *= per;
    return l.merged();
  };
  send_layout_.resize(p);
  recv_layout_.resize(p);
  sendcounts_.resize(p);
  recvcounts_.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    send_layout_[i] = in_units(send[i]);
    recv_layout_[i] = in_units(recv[i]);
    sendcounts_[i] = send_layout_[i].count();
    recvcounts_[i] = recv_layout_[i].count();
    send_need_ = std::max(send_need_, send_layout_[i].extent() * unit_);
    recv_need_ = std::max(recv_need_, recv_layout_[i].extent() * unit_);
  }

  // Staging, one bank per field, for the messages that stage: a raw or
  // staged-codec send of more than one run is packed; a raw one-sided
  // receive lands in the window, a staged-codec receive of more than one
  // run decodes into staging. The sugar's pinned span is the raw window.
  sstage_off_.assign(p, kNoStage);
  rstage_off_.assign(p, kNoStage);
  const bool raw_window = raw_ && backend_ == PlanBackend::kOneSided;
  for (std::size_t i = 0; i < p; ++i) {
    if (!direct_ && !send_layout_[i].contiguous()) {
      sstage_off_[i] = sbank_;
      sbank_ += sendcounts_[i] * unit_;
    }
  }
  sstage_.resize(sbank_ * static_cast<std::size_t>(batch_));
  if (raw_window && !pinned.empty()) {
    rbank_ = pinned.size() / static_cast<std::size_t>(batch_);
    LFFT_REQUIRE(recv_need_ <= rbank_,
                 "ExchangePlan: pinned recv too small for its layouts");
    for (std::size_t i = 0; i < p; ++i) {
      rstage_off_[i] = recv_layout_[i].first * unit_;
    }
    rstage_span_ = pinned;
  } else {
    for (std::size_t i = 0; i < p; ++i) {
      if (raw_window ||
          (!raw_ && !direct_ && !recv_layout_[i].contiguous())) {
        rstage_off_[i] = rbank_;
        rbank_ += recvcounts_[i] * unit_;
      }
    }
    rstage_.resize(rbank_ * static_cast<std::size_t>(batch_));
    rstage_span_ = rstage_;
  }

  // Arrival-skew scratch (pre-sized: stamping allocates nothing).
  arrival_time_.assign(p, -1.0);
  source_lag_.assign(p, 0.0);

  std::uint64_t payload = 0;
  for (const std::uint64_t c : sendcounts_) payload += c;
  workers_ = WorkerPool::effective_shards(
      options_.workers, static_cast<std::size_t>(payload) * unit_);
  // Pack fan-out clamps against the staged volume: below the
  // bytes-per-shard floor the copies run serially on the rank thread.
  pack_shards_ = WorkerPool::effective_shards(options_.workers, sbank_);

  // Per-message chunk count: user value, or the Section V-B pipeline
  // model's pick for that message size. A variable-rate message is one
  // chunk (its stream is not independently splittable). Deterministic from
  // counts, so sender and receiver always agree.
  const auto chunks_for = [&](std::uint64_t count) {
    if (!fixed_) return 1;
    if (options_.chunks > 0) return options_.chunks;
    return plan_pipeline_chunks(count * sizeof(double),
                                codec_->nominal_rate());
  };

  // --- Wire capacities ----------------------------------------------------
  // The sum of a message's chunk capacities: exact for fixed-rate codecs
  // (the property Section V-B relies on), a bound for variable-rate ones.
  const auto wire_cap = [&](std::uint64_t count) {
    if (raw_) return count * unit_;
    std::uint64_t cap = 0;
    for (const std::uint64_t c : chunk_partition(count, chunks_for(count))) {
      cap += codec_->max_compressed_bytes(c);
    }
    return cap;
  };
  send_wire_cap_.resize(p);
  recv_wire_cap_.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    send_wire_cap_[i] = wire_cap(sendcounts_[i]);
    recv_wire_cap_[i] = wire_cap(recvcounts_[i]);
  }

  if (backend_ == PlanBackend::kTwoSided) {
    // Raw messages go out straight from the send span: no staging. Codec
    // messages stage every destination at capacity-prefix offsets; coded
    // frames carry [header][checksum] ahead of the payload, kept 8-aligned
    // so the u64 words can be stored directly.
    if (raw_) return;
    const std::uint64_t spad = coded_ ? coded::kFrameBytes : 0;
    stage_off_.resize(p);
    std::uint64_t total = 0;
    std::uint64_t fmax = 0;
    for (std::size_t i = 0; i < p; ++i) {
      stage_off_[i] = total;
      total += send_wire_cap_[i] + spad;
      if (coded_) total = align8(total);
      fmax = std::max(fmax, send_wire_cap_[i]);
    }
    stage_.resize(total);
    // Parity replica slab, reused per pairwise partner: m clean copies of
    // the largest data frame can be in flight at once.
    pstage_stride_ = align8(coded::kFrameBytes + fmax);
    pstage_.resize(pstage_stride_ * static_cast<std::size_t>(parity_));
    return;
  }

  // --- One-sided plan: window layout, offsets, schedule -------------------
  // The window holds one slot per source at capacity offsets, so the whole
  // layout is count-derived and survives every epoch; raw mode exposes the
  // receive staging itself and slots are its offsets. Codec
  // slots carry an 8-aligned u64 header word ahead of the payload — the
  // size + completion word put_with_header/put_header release-store.
  slot_offset_.resize(p);
  unpack_range_.resize(p);
  std::uint64_t window_bytes = 0;
  for (std::size_t i = 0; i < p; ++i) {
    if (raw_) {
      slot_offset_[i] = rstage_off_[i];
      continue;
    }
    // Codec slot: the header word, then the message's chunks at their
    // capacities, each chunk an unpack job. Coded slot: one
    // [header][checksum][payload @ cap] frame per chunk, then parity_
    // parity frames at the group capacity L (the largest data chunk's cap —
    // chunk_partition's tail); every frame self-notifies through its own
    // header word.
    slot_offset_[i] = window_bytes;
    const std::size_t begin = unpack_jobs_.size();
    if (!coded_) window_bytes += minimpi::kHeaderWordBytes;
    std::uint64_t elem = 0;
    std::uint64_t L = 0;
    for (const std::uint64_t c :
         chunk_partition(recvcounts_[i], chunks_for(recvcounts_[i]))) {
      const std::uint64_t cap = codec_->max_compressed_bytes(c);
      if (coded_) window_bytes += coded::kFrameBytes;
      unpack_jobs_.push_back(
          PlanChunk{static_cast<int>(i), elem, c, window_bytes, cap, 0});
      window_bytes += cap;
      if (coded_) window_bytes = align8(window_bytes);
      elem += c;
      L = std::max(L, cap);
    }
    unpack_range_[i] = {begin, unpack_jobs_.size()};
    window_bytes = align8(window_bytes);  // Next slot's header word.
    if (!coded_) continue;
    coded_L_.push_back(L);
    for (int j = 0; j < parity_; ++j) {
      coded_poff_.push_back(window_bytes);
      window_bytes = align8(window_bytes + coded::kFrameBytes + L);
    }
  }
  // The one-time offset exchange: each receiver tells every source where to
  // put.
  target_offset_.resize(p);
  minimpi::alltoall(
      comm_, std::as_bytes(std::span<const std::uint64_t>(slot_offset_)),
      std::as_writable_bytes(std::span<std::uint64_t>(target_offset_)),
      sizeof(std::uint64_t));

  // Batched plans replicate the window in per-field banks: field f's slots
  // sit at +f * bank_stride_ locally. Receivers have rank-specific strides
  // (their own capacities), so senders learn each target's stride with one
  // more construction-time u64 all-to-all — steady state stays
  // collective-free.
  bank_stride_ = raw_ ? rbank_ : window_bytes;
  if (batch_ > 1) {
    const std::vector<std::uint64_t> mine(p, bank_stride_);
    target_bank_stride_.resize(p);
    minimpi::alltoall(
        comm_, std::as_bytes(std::span<const std::uint64_t>(mine)),
        std::as_writable_bytes(std::span<std::uint64_t>(target_bank_stride_)),
        sizeof(std::uint64_t));
  }

  window_store_.resize(window_bytes * static_cast<std::size_t>(batch_));
  win_ = std::make_unique<minimpi::Window>(
      comm_, raw_ ? rstage_span_ : std::span<std::byte>(window_store_));
  if (coded_) win_->set_fault_plan(options_.fault_plan);

  rounds_ = ring_targets(p_, options_.gpus_per_node, comm_.rank());
  const int nodes = static_cast<int>(rounds_.size());
  if (options_.sync == OscSync::kPscw) {
    pscw_sources_ = ring_sources(p_, options_.gpus_per_node, comm_.rank());
    decode_inflight_.reserve(p * static_cast<std::size_t>(batch_));
  }

  round_jobs_.resize(static_cast<std::size_t>(nodes));
  if (raw_) return;

  // Pin every round's chunk jobs, for both rate classes: a fixed-rate
  // message is its pipeline chunks, a variable-rate message one chunk at
  // max_compressed_bytes capacity. The round slab is reused each round and
  // each field (sized for the largest round). Coded plans stage
  // [checksum][payload] per frame (the header word rides the put) and
  // append the group's parity jobs after its data jobs; target offsets
  // walk the receiver's frame layout, which both sides derive from the
  // same counts.
  std::uint64_t slab = 0;
  std::size_t max_jobs = 0;
  for (int j = 0; j < nodes; ++j) {
    auto& jobs = round_jobs_[static_cast<std::size_t>(j)];
    std::uint64_t round_off = 0;
    for (const int dst : rounds_[static_cast<std::size_t>(j)]) {
      const auto d = static_cast<std::size_t>(dst);
      const std::uint64_t count = sendcounts_[d];
      if (count == 0) continue;
      const std::uint64_t data_off = round_off;
      std::uint64_t elem = 0;
      std::uint64_t wire_off = 0;
      std::uint64_t L = 0;
      std::size_t k = 0;
      for (const std::uint64_t c : chunk_partition(count, chunks_for(count))) {
        const std::uint64_t cap = codec_->max_compressed_bytes(c);
        if (coded_) {
          jobs.push_back(PlanChunk{dst, elem, c, round_off, cap,
                                   target_offset_[d] + wire_off, -1});
          round_off = align8(round_off + minimpi::kHeaderWordBytes + cap);
          wire_off = align8(wire_off + coded::kFrameBytes + cap);
          L = std::max(L, cap);
        } else {
          jobs.push_back(PlanChunk{
              dst, elem, c, round_off, cap,
              target_offset_[d] + minimpi::kHeaderWordBytes + wire_off});
          round_off += cap;
          wire_off += cap;
        }
        elem += c;
        ++k;
      }
      // RS over one data chunk is the identity (α_1^j = 1): a one-chunk
      // group's parity jobs re-put its staged data frame as replicas.
      for (int jj = 0; jj < parity_; ++jj) {
        jobs.push_back(PlanChunk{dst, 0, 0, k == 1 ? data_off : round_off, L,
                                 target_offset_[d] + wire_off, jj});
        if (k > 1) {
          round_off = align8(round_off + minimpi::kHeaderWordBytes + L);
        }
        wire_off = align8(wire_off + coded::kFrameBytes + L);
      }
    }
    slab = std::max(slab, round_off);
    max_jobs = std::max(max_jobs, jobs.size());
  }
  stage_.resize(slab);
  job_bytes_.resize(max_jobs);
  inflight_.reserve(max_jobs);

  if (coded_) {
    // Pinned reconstruction scratch: disjoint per (source, field), so the
    // erasure solves of concurrent decodes never coordinate — and steady
    // state recovery allocates nothing.
    rec_off_.resize(p);
    std::uint64_t off = 0;
    for (std::size_t s = 0; s < p; ++s) {
      rec_off_[s] = off;
      off += static_cast<std::uint64_t>(parity_) * coded_L_[s];
    }
    rec_stride_ = off;
    rec_scratch_.resize(off * static_cast<std::size_t>(batch_));
  }
}

ExchangePlan::~ExchangePlan() = default;

ExchangeStats ExchangePlan::execute(std::span<const double> send,
                                    std::span<double> recv) {
  return execute_batch(send, recv, 1);
}

ExchangeStats ExchangePlan::execute_batch(std::span<const double> send,
                                          std::span<double> recv, int fields) {
  return execute_batch(std::as_bytes(send), std::as_writable_bytes(recv),
                       fields);
}

ExchangeStats ExchangePlan::execute_batch(std::span<const std::byte> send,
                                          std::span<std::byte> recv,
                                          int fields) {
  LFFT_REQUIRE(fields >= 1 && fields <= batch_,
               "ExchangePlan::execute_batch: fields must be in [1, batch]");
  const auto nf = static_cast<std::size_t>(fields);
  LFFT_REQUIRE(send.size() % nf == 0 && recv.size() % nf == 0,
               "ExchangePlan::execute_batch: send and recv must hold "
               "`fields` equal field images");
  LFFT_REQUIRE(send.size() / nf >= send_need_ && recv.size() / nf >= recv_need_,
               "ExchangePlan::execute_batch: a field image is too small for "
               "its layouts");
  recv_cur_ = recv.data();
  recv_cur_ext_ = recv.size() / nf;
  pack(send, nf);
  if (backend_ == PlanBackend::kOneSided) {
    return execute_one_sided(send, fields);
  }
  // Two-sided transports are message-paced (no epoch to amortize), so the
  // batch is a plain per-field loop sharing this plan's staging.
  const std::size_t sext = send.size() / nf;
  ExchangeStats stats;
  for (std::size_t f = 0; f < nf; ++f) {
    const ExchangeStats one =
        execute_two_sided(send.subspan(f * sext, sext), f);
    const int schedule_rounds = one.rounds;
    stats.accumulate(one);
    // Pairwise rounds describe the schedule, not work done: a batch
    // reports one pass's round count.
    stats.rounds = schedule_rounds;
  }
  return stats;
}

void ExchangePlan::pack(std::span<const std::byte> send, std::size_t nf) {
  if (sbank_ == 0) return;
  const auto p = static_cast<std::size_t>(p_);
  const std::size_t sext = send.size() / nf;
  // (field, destination) items write disjoint staging, so the whole batch
  // fans out at once.
  const auto item = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t f = k / p;
      const std::size_t d = k % p;
      if (sstage_off_[d] == kNoStage) continue;
      const std::byte* const fsend = send.data() + f * sext;
      std::byte* to = sstage_.data() + f * sbank_ + sstage_off_[d];
      walk_runs(send_layout_[d], 0, sendcounts_[d],
                [&](std::uint64_t at, std::uint64_t len) {
                  std::memcpy(to, fsend + at * unit_, len * unit_);
                  to += len * unit_;
                });
    }
  };
  if (pack_shards_ > 1) {
    WorkerPool::global().parallel_for(nf * p, 1, item, pack_shards_);
  } else {
    item(0, nf * p);
  }
}

std::span<const std::byte> ExchangePlan::send_message(
    std::span<const std::byte> fsend, std::size_t d, std::size_t f) const {
  const std::uint64_t bytes = sendcounts_[d] * unit_;
  if (sstage_off_[d] != kNoStage) {
    return {sstage_.data() + f * sbank_ + sstage_off_[d], bytes};
  }
  return fsend.subspan(send_layout_[d].first * unit_, bytes);
}

std::size_t ExchangePlan::encode_chunk(std::span<const std::byte> fsend,
                                       std::size_t d, std::size_t f,
                                       std::uint64_t off, std::uint64_t cnt,
                                       std::span<std::byte> out) const {
  if (!direct_) {
    return codec_->compress(
        as_doubles(send_message(fsend, d, f)).subspan(off, cnt), out);
  }
  LFFT_ASSERT(out.size() >= codec_->max_compressed_bytes(cnt));
  return encode_runs(*codec_, granularity_,
                     reinterpret_cast<const double*>(fsend.data()),
                     send_layout_[d], off, cnt, out.data());
}

std::byte* ExchangePlan::recv_target(std::size_t s, std::size_t f) const {
  if (rstage_off_[s] != kNoStage) {
    return rstage_span_.data() + f * rbank_ + rstage_off_[s];
  }
  return recv_field(f) + recv_layout_[s].first * unit_;
}

void ExchangePlan::decode_chunk(std::size_t s, std::size_t f,
                                std::uint64_t off, std::uint64_t cnt,
                                std::span<const std::byte> in) const {
  if (direct_) {
    decode_runs(*codec_, granularity_, in, recv_layout_[s], off, cnt,
                reinterpret_cast<double*>(recv_field(f)));
    return;
  }
  codec_->decompress(
      in, std::span<double>(reinterpret_cast<double*>(recv_target(s, f)) + off,
                            cnt));
}

void ExchangePlan::unpack(std::size_t s, std::size_t f,
                          const std::byte* msg) const {
  std::byte* const frecv = recv_field(f);
  const RunLayout& l = recv_layout_[s];
  if (l.contiguous() && msg == frecv + l.first * unit_) return;
  walk_runs(l, 0, recvcounts_[s], [&](std::uint64_t at, std::uint64_t len) {
    std::memcpy(frecv + at * unit_, msg, len * unit_);
    msg += len * unit_;
  });
}

void ExchangePlan::finish_source(std::size_t s, std::size_t f) const {
  if (rstage_off_[s] != kNoStage) unpack(s, f, recv_target(s, f));
}

ExchangeStats ExchangePlan::execute_one_sided(std::span<const std::byte> send,
                                              int fields) {
  const auto nf = static_cast<std::size_t>(fields);
  const std::size_t sext = send.size() / nf;  // Per-field send extent.
  const auto field_send = [&](std::size_t f) {
    return send.subspan(f * sext, sext);
  };
  // Field f's bank displacement on peer d's window (0 for field 0, so the
  // single-field path never touches target_bank_stride_, which batch == 1
  // plans do not exchange).
  const auto bank_off = [&](std::size_t d, std::size_t f) {
    return f == 0 ? std::uint64_t{0} : f * target_bank_stride_[d];
  };
  ExchangeStats stats;
  stats.rounds = static_cast<int>(rounds_.size());
  // Epoch sequence stamped into every slot header this execute (all fields
  // of a batch share one epoch). Execution is collective and plans run in
  // lockstep, so sender and receiver always agree on the expected value; a
  // stale header (sync bug) trips the decode-side assert instead of
  // decoding garbage.
  const auto seq = static_cast<std::uint16_t>(++epoch_seq_);
  if (coded_) {
    // New fault epoch: deterministic per-(src, dst) put indices restart
    // and stale parked puts for this rank are purged.
    win_->set_fault_epoch(epoch_seq_);
    reconstructed_.store(0, std::memory_order_relaxed);
    straggler_waits_.store(0, std::memory_order_relaxed);
  }

  // --- Epoch open ---------------------------------------------------------
  // The opening fence keeps this epoch's puts out of buffers the target is
  // still reading or writing locally: a slower rank draining epoch N-1's
  // decode or unpack, or — raw mode over the sugar's pinned span — the
  // caller initializing recv between plan construction and execute. The
  // first epoch needs it as much as any other (the constructor's window
  // barrier does not cover caller-side writes issued after it). PSCW needs
  // none: a put blocks on the target's post, which the target only issues
  // once it enters execute.
  if (options_.sync == OscSync::kFence) win_->fence();

  // --- Ring of puts (Algorithm 3) -----------------------------------------
  const bool pscw = options_.sync == OscSync::kPscw;
  const bool pool = !raw_ && workers_ > 1 && WorkerPool::global().workers() > 0;
  // Target-side pipelined decode (kPscw codec modes): once round j's
  // exposure epoch closes, each source slot of that round is complete and
  // its decode+unpack runs while rounds j+1..n are still putting. With
  // workers the jobs go to the pool (reaped before return); serially they
  // run inline between rounds — either way ahead of the final
  // synchronization the fence mode has to wait for. Variable codecs that
  // shard (parallel_granularity > 0) decode inline instead: a pool task
  // would run its inner fan-out sequentially (nested-submit guard), while
  // the rank thread can spread one big slot across the whole pool.
  const bool decode_async =
      pscw && pool && (fixed_ || codec_->parallel_granularity() == 0);
  // Coded stage frames put the checksum word ahead of the payload.
  const std::uint64_t job_pay = coded_ ? minimpi::kHeaderWordBytes : 0;
  // Encode one data chunk into its staging; returns the encoded size.
  const auto compress_job = [&](const PlanChunk& job,
                                std::span<const std::byte> fsend,
                                std::size_t f) {
    const std::size_t used = encode_chunk(
        fsend, static_cast<std::size_t>(job.peer), f, job.elem_off,
        job.elem_cnt,
        std::span<std::byte>(stage_.data() + job.stage_off + job_pay,
                             job.wire_bytes));
    // Fixed-size codecs are exact.
    LFFT_ASSERT(fixed_ ? used == job.wire_bytes : used <= job.wire_bytes);
    return std::uint64_t{used};
  };

  const int nodes = static_cast<int>(rounds_.size());
  for (int j = 0; j < nodes; ++j) {
    const auto& round = rounds_[static_cast<std::size_t>(j)];
    if (pscw) {
      win_->post(pscw_sources_[static_cast<std::size_t>(j)]);
      win_->start(round);
    }
    const auto& jobs = round_jobs_[static_cast<std::size_t>(j)];
    // All fields of the batch put inside this one exposure epoch; fields
    // run sequentially so the round slab can be recycled (puts are
    // synchronous copies, so reuse after put is safe).
    for (std::size_t f = 0; f < nf; ++f) {
      const std::span<const std::byte> fsend = field_send(f);
      if (pool) {
        // Hand the whole round to the pool: chunk k+1 compresses while
        // chunk k is being put — Section V-B's stream overlap executed for
        // real. Each job's encoded size lands in its job_bytes_ slot.
        // Parity jobs stay off the pool: they encode over the group's
        // staged payloads, serially, after those are reaped.
        inflight_.clear();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          if (jobs[i].prow >= 0) continue;
          inflight_.push_back(WorkerPool::global().submit(
              [&compress_job, &job = jobs[i], out = &job_bytes_[i], fsend,
               f] { *out = compress_job(job, fsend, f); }));
        }
      }
      std::size_t next_job = 0;
      std::size_t next_inflight = 0;
      // Coded: the group's staged payload spans, collected while its data
      // chunks are put, consumed by the parity jobs that follow.
      std::array<std::span<const std::byte>, coded::kMaxDataChunks> gspans;
      std::size_t gk = 0;
      for (const int dst : round) {
        const auto d = static_cast<std::size_t>(dst);
        const std::uint64_t count = sendcounts_[d];
        stats.payload_bytes += count * unit_;
        if (count == 0) continue;
        ++stats.messages;
        if (raw_) {
          // One direct store from the send payload (the field, or its
          // packed staging) into the peer's receive staging.
          win_->put(send_message(fsend, d, f), dst,
                    target_offset_[d] + bank_off(d, f));
          stats.wire_bytes += count * unit_;
          ++stats.chunks_issued;
          continue;
        }
        gk = 0;
        std::uint64_t msg_bytes = 0;
        for (; next_job < jobs.size() && jobs[next_job].peer == dst;
             ++next_job) {
          const PlanChunk& job = jobs[next_job];
          std::byte* const fr = stage_.data() + job.stage_off;
          std::uint64_t bytes = job.wire_bytes;
          if (job.prow < 0) {
            if (pool) {
              inflight_[next_inflight++].get();  // Rethrows a failed
                                                 // chunk's error.
            } else {
              job_bytes_[next_job] = compress_job(job, fsend, f);
            }
            bytes = job_bytes_[next_job];
          }
          if (!coded_) {
            win_->put(std::span<const std::byte>(fr, bytes), dst,
                      job.target_off + bank_off(d, f));
            msg_bytes += bytes;
            stats.wire_bytes += bytes;
            ++stats.chunks_issued;
            continue;
          }
          // Coded: each chunk travels as its own self-notifying
          // [header][checksum][payload] frame; parity jobs (prow >= 0)
          // encode RS row prow over the group's staged payloads, or re-put
          // a one-chunk group's data frame (job.stage_off points at it) —
          // each put an independent fault-injection target.
          if (job.prow >= 0 && gk == 1) {
            bytes = gspans[0].size();
          } else {
            const std::span<std::byte> payload(
                fr + minimpi::kHeaderWordBytes, bytes);
            if (job.prow < 0) {
              gspans[gk++] = payload;
            } else {
              coded::rs_encode(
                  job.prow,
                  std::span<const std::span<const std::byte>>(gspans.data(),
                                                              gk),
                  payload);
            }
            const std::uint64_t csum = fnv1a64(payload);
            std::memcpy(fr, &csum, sizeof(csum));
          }
          win_->put_with_header(
              std::span<const std::byte>(fr, minimpi::kHeaderWordBytes + bytes),
              dst, job.target_off + bank_off(d, f),
              make_slot_header(seq, bytes));
          stats.wire_bytes += coded::kFrameBytes + bytes;
          if (job.prow >= 0) stats.parity_bytes += coded::kFrameBytes + bytes;
          ++stats.chunks_issued;
        }
        // All of dst's chunks are delivered: raise the notify flag with the
        // message's encoded size (coded frames each carried their own).
        if (!coded_) {
          win_->put_header(dst, target_offset_[d] + bank_off(d, f),
                           make_slot_header(seq, msg_bytes));
        }
      }
    }
    // End of round: wait for this round's data movement (Algorithm 3 line
    // 10) — once per batch, not once per field. Raw fence mode needs no
    // per-round fence: puts target disjoint final recv regions and no
    // staging is recycled between rounds.
    if (pscw) {
      win_->complete();
      win_->wait_posted();
      // Round j's exposure just closed: stamp its sources' arrivals for the
      // skew counters (the finest per-source completion event PSCW offers;
      // fence mode ends in one global event and records nothing).
      const double t_round = now_seconds();
      for (const int src : pscw_sources_[static_cast<std::size_t>(j)]) {
        if (recvcounts_[static_cast<std::size_t>(src)] > 0) {
          arrival_time_[static_cast<std::size_t>(src)] = t_round;
        }
      }
      // Round j's exposure is closed: every (source, field) slot of this
      // round is complete, so its delivery can overlap the remaining
      // rounds' puts.
      for (const int src : pscw_sources_[static_cast<std::size_t>(j)]) {
        const auto s = static_cast<std::size_t>(src);
        if (recvcounts_[s] == 0) continue;
        for (std::size_t f = 0; f < nf; ++f) {
          if (decode_async) {
            decode_inflight_.push_back(WorkerPool::global().submit(
                [this, s, seq, f] { decode_source(s, seq, f); }));
          } else {
            decode_source(s, seq, f);
          }
        }
      }
    } else if (!raw_) {
      win_->fence();
    }
  }

  if (pscw) {
    // Every source was delivered (or dispatched) as its round completed;
    // reap the pool jobs before the next epoch may repost their slots.
    for (auto& f : decode_inflight_) f.get();
    decode_inflight_.clear();
    finish_skew_epoch(stats);
  } else {
    // --- Fence mode: deliver the whole received window --------------------
    // Raw mode closes its epoch with one global completion fence (codec
    // fence mode already closed the last round's epoch above). As the
    // paper does, decode starts only after the final synchronization;
    // sizes come from the slot headers, never from a collective. Work
    // items cover every (field, source) pair of the batch.
    if (raw_) win_->fence();
    const auto deliver = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t f = k / static_cast<std::size_t>(p_);
        const std::size_t s = k % static_cast<std::size_t>(p_);
        if (recvcounts_[s] == 0) continue;
        decode_source(s, seq, f);
      }
    };
    const std::size_t work = static_cast<std::size_t>(p_) * nf;
    if (workers_ > 1) {
      WorkerPool::global().parallel_for(work, 1, deliver, workers_);
    } else {
      deliver(0, work);
    }
  }
  if (coded_) {
    stats.chunks_reconstructed =
        reconstructed_.load(std::memory_order_relaxed);
    stats.straggler_waits = straggler_waits_.load(std::memory_order_relaxed);
    rethrow_decode_error();
  }
  return stats;
}

void ExchangePlan::decode_source(std::size_t s, std::uint16_t seq,
                                 std::size_t f) {
  if (coded_) {
    // Coded failures are real runtime conditions (lost beyond the parity
    // budget), not sync bugs: capture the Error and let the collective
    // protocol finish — aborting mid-ring would deadlock the peers —
    // then execute rethrows it.
    try {
      decode_source_coded(s, seq, f);
    } catch (...) {
      std::lock_guard lk(decode_error_mu_);
      if (!decode_error_) decode_error_ = std::current_exception();
      return;
    }
  } else if (!raw_) {
    const std::uint64_t bank = f * bank_stride_;
    const std::uint64_t header =
        win_->read_local_header(slot_offset_[s] + bank);
    // The notify flag: a mismatched sequence means the source's put for
    // this epoch has not landed (or a stale epoch leaked through) — a
    // synchronization bug, caught here instead of decoding garbage.
    LFFT_ASSERT(static_cast<std::uint16_t>(header >> 48) == seq);
    const std::uint64_t wire = header & kHeaderBytesMask;
    LFFT_ASSERT(fixed_ ? wire == recv_wire_cap_[s]
                       : wire <= recv_wire_cap_[s]);
    // A one-chunk message decodes the header's byte count (a variable-rate
    // stream's encoded size); the chunks of a longer, fixed-rate message
    // decode at their exact capacities.
    const auto [begin, end] = unpack_range_[s];
    for (std::size_t i = begin; i < end; ++i) {
      const PlanChunk& job = unpack_jobs_[i];
      decode_chunk(s, f, job.elem_off, job.elem_cnt,
                   std::span<const std::byte>(
                       window_store_.data() + bank + job.stage_off,
                       end - begin == 1 ? wire : job.wire_bytes));
    }
  }
  // A raw slot is the message itself, as the puts landed it.
  finish_source(s, f);
}

void ExchangePlan::decode_source_coded(std::size_t s, std::uint16_t seq,
                                       std::size_t f) {
  const std::uint64_t bank = f * bank_stride_;
  const auto [begin, end] = unpack_range_[s];
  const std::size_t k = end - begin;
  if (k == 0) return;
  const std::uint64_t L = coded_L_[s];
  const std::byte* const w = window_store_.data() + bank;

  // A frame is clean when its header word carries this epoch's sequence
  // and a plausible byte count, and the FNV-1a checksum over the payload
  // matches the frame's checksum word. Anything else — a dropped put's
  // stale header, a parked delayed put, a flipped payload or header bit —
  // is an erasure. The header load is the acquire side of the put's
  // release-store, so a fresh header guarantees checksum and payload.
  const auto frame_bytes = [&](std::uint64_t off, std::uint64_t cap,
                               std::uint64_t* out) {
    const std::uint64_t h = win_->read_local_header(off + bank);
    if (static_cast<std::uint16_t>(h >> 48) != seq) return false;
    const std::uint64_t b = h & kHeaderBytesMask;
    if (fixed_ ? b != cap : b > cap) return false;
    std::uint64_t csum = 0;
    std::memcpy(&csum, w + off + minimpi::kHeaderWordBytes, sizeof(csum));
    if (fnv1a64(std::span<const std::byte>(w + off + coded::kFrameBytes,
                                           b)) != csum) {
      return false;
    }
    *out = b;
    return true;
  };

  std::array<bool, coded::kMaxDataChunks> clean{};
  std::array<std::uint64_t, coded::kMaxDataChunks> nbytes{};
  std::array<int, coded::kMaxDataChunks> erased{};
  std::array<int, coded::kMaxParity> prows{};
  std::array<std::span<const std::byte>, coded::kMaxParity> pspans{};
  std::array<std::uint64_t, coded::kMaxParity> pbytes{};
  std::size_t e = 0;
  std::size_t np = 0;
  const auto scan = [&, begin] {
    e = 0;
    np = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const PlanChunk& job = unpack_jobs_[begin + i];
      clean[i] = frame_bytes(job.stage_off - coded::kFrameBytes,
                             job.wire_bytes, &nbytes[i]);
      if (!clean[i]) erased[e++] = static_cast<int>(i);
    }
    if (e == 0) return;
    for (int j = 0; j < parity_; ++j) {
      const std::uint64_t off =
          coded_poff_[s * static_cast<std::size_t>(parity_) +
                      static_cast<std::size_t>(j)];
      std::uint64_t b = 0;
      if (!frame_bytes(off, L, &b)) continue;
      prows[np] = j;
      pspans[np] =
          std::span<const std::byte>(w + off + coded::kFrameBytes, b);
      pbytes[np] = b;
      ++np;
    }
  };

  scan();
  std::array<std::span<const std::byte>, coded::kMaxDataChunks> solved_for{};
  if (e > 0 && np < e) {
    // Fewer clean arrivals than the solve needs: only now fall back to
    // waiting — apply any parked delayed puts addressed to this rank and
    // rescan (a flush can resolve every erasure, dropping e to zero).
    // Past that the group is unrecoverable and the Error fires.
    win_->flush_delayed();
    straggler_waits_.fetch_add(1, std::memory_order_relaxed);
    scan();
  }
  if (e > 0) {
    LFFT_REQUIRE(e <= static_cast<std::size_t>(parity_) && np >= e,
                 "coded exchange: erasures exceed the parity budget "
                 "(unrecoverable chunk loss)");
    // Re-validate the reconstruction's metadata against the parity headers
    // before any decode touches recovered bytes: every clean parity frame
    // of the group must agree on the payload byte count (variable rate,
    // k = 1: that count *is* the erased chunk's size; fixed rate: the
    // group capacity L). A header word corrupted in flight cannot pass
    // both this and its frame checksum.
    for (std::size_t j = 1; j < np; ++j) {
      LFFT_REQUIRE(pbytes[j] == pbytes[0],
                   "coded exchange: parity headers disagree on payload "
                   "size (corrupt metadata survived reconstruction)");
    }
    const std::uint64_t eff = fixed_ ? L : pbytes[0];
    std::array<std::span<const std::byte>, coded::kMaxDataChunks> dspans{};
    for (std::size_t i = 0; i < k; ++i) {
      if (clean[i]) {
        dspans[i] = std::span<const std::byte>(
            w + unpack_jobs_[begin + i].stage_off, nbytes[i]);
      }
    }
    std::array<std::span<std::byte>, coded::kMaxParity> scratch{};
    std::array<std::span<const std::byte>, coded::kMaxParity> solved{};
    std::byte* const scr =
        rec_scratch_.data() + rec_off_[s] + f * rec_stride_;
    for (std::size_t t = 0; t < e; ++t) {
      scratch[t] = std::span<std::byte>(scr + t * L, eff);
    }
    coded::rs_reconstruct(
        std::span<const std::span<const std::byte>>(dspans.data(), k),
        std::span<const int>(prows.data(), np),
        std::span<const std::span<const std::byte>>(pspans.data(), np),
        std::span<const int>(erased.data(), e),
        std::span<std::span<std::byte>>(scratch.data(), e),
        std::span<std::span<const std::byte>>(solved.data(), e));
    for (std::size_t t = 0; t < e; ++t) {
      solved_for[static_cast<std::size_t>(erased[t])] = solved[t];
    }
    reconstructed_.fetch_add(e, std::memory_order_relaxed);
  }

  // Decode: present chunks straight from the window, reconstructed ones
  // from their (zero-padded) solve images — byte-identical to a clean run.
  for (std::size_t i = 0; i < k; ++i) {
    const PlanChunk& job = unpack_jobs_[begin + i];
    const std::uint64_t b =
        clean[i] ? nbytes[i] : (fixed_ ? job.wire_bytes : pbytes[0]);
    const std::byte* const src =
        clean[i] ? w + job.stage_off : solved_for[i].data();
    decode_chunk(s, f, job.elem_off, job.elem_cnt,
                 std::span<const std::byte>(src, b));
  }
}

void ExchangePlan::rethrow_decode_error() {
  if (decode_error_) {
    std::exception_ptr err = decode_error_;
    decode_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

ExchangeStats ExchangePlan::execute_two_sided(std::span<const std::byte> send,
                                              std::size_t f) {
  // Pairwise exchange with the codec fused into the transport: encode runs
  // inside isend_produce (straight into the eager slab, or into this
  // plan's pinned staging published zero-copy), decode runs inside
  // recv_consume (straight out of the sender's buffer). One codec pass per
  // direction, no intermediate wire buffers — the two-sided compressed
  // path at the one-sided raw path's copy count. A raw message is an isend
  // of its consecutive send bytes, unpacked inside recv_consume, so at
  // rendezvous sizes its only copy is the unpack. Peers agree on which
  // pairs exchange because count knowledge is symmetric.
  //
  // On the coded wire every message travels as one
  // [header][checksum][payload] frame plus parity_ replica frames on their
  // own tags (one chunk per message, so RS parity degenerates to replicas
  // — α_1^j = 1). The transport is reliable and ordered, so drops degrade
  // to corruption (Comm::send_fault) and the frame scan detects every
  // fault; a corrupt data frame recovers from the first clean replica —
  // byte-identical to a clean run.
  const auto p = static_cast<std::size_t>(p_);
  const int me = comm_.rank();
  const auto seq = static_cast<std::uint16_t>(++epoch_seq_);
  ExchangeStats stats;
  stats.rounds = p_;
  for (std::size_t i = 0; i < p; ++i) {
    stats.payload_bytes += sendcounts_[i] * unit_;
    if (sendcounts_[i] > 0) ++stats.messages;
  }

  // Fault injection brackets only this plan's own coded sends — cleared on
  // every exit path so no unrelated traffic is ever faulted.
  struct FaultScope {
    minimpi::Comm* c;
    ~FaultScope() {
      if (c != nullptr) c->set_fault(nullptr, 0);
    }
  } scope{coded_ ? &comm_ : nullptr};
  if (coded_) comm_.set_fault(options_.fault_plan, epoch_seq_);
  const std::uint64_t spad = coded_ ? coded::kFrameBytes : 0;

  // Self message: a local codec round trip with no transport and no faults
  // (kept — the exchange must stay byte-identical to the one-sided paths,
  // lossiness included); raw mode unpacks the send bytes themselves. It
  // counts as one chunk and stamps its arrival on every wire.
  const auto m = static_cast<std::size_t>(me);
  if (sendcounts_[m] > 0) {
    std::uint64_t wire = sendcounts_[m] * unit_;
    if (raw_) {
      unpack(m, f, send_message(send, m, f).data());
    } else {
      std::byte* const staging = stage_.data() + stage_off_[m] + spad;
      wire = encode_chunk(send, m, f, 0, sendcounts_[m],
                          std::span<std::byte>(staging, send_wire_cap_[m]));
      decode_chunk(m, f, 0, recvcounts_[m],
                   std::span<const std::byte>(staging, wire));
      finish_source(m, f);
    }
    stats.wire_bytes += wire;
    ++stats.chunks_issued;
    if (recvcounts_[m] > 0) arrival_time_[m] = now_seconds();
  }

  std::uint64_t reconstructed = 0;
  for (int j = 1; j < p_; ++j) {
    const auto dst = static_cast<std::size_t>((me + j) % p_);
    const auto src = static_cast<std::size_t>((me - j + p_) % p_);
    minimpi::Comm::Request req;
    std::array<minimpi::Comm::Request, coded::kMaxParity> preq;
    bool sent = false;
    if (sendcounts_[dst] > 0) {
      if (raw_) {
        const std::span<const std::byte> block = send_message(send, dst, f);
        req = comm_.isend(block, static_cast<int>(dst), kFusedTag);
        stats.wire_bytes += block.size();
      } else if (fixed_ && !coded_) {
        // Size is count-derived: the transport can place the encode.
        req = comm_.isend_produce(
            send_wire_cap_[dst],
            std::span<std::byte>(stage_.data() + stage_off_[dst],
                                 send_wire_cap_[dst]),
            static_cast<int>(dst), kFusedTag, [&](std::span<std::byte> out) {
              // Whole-message encodes may undershoot the cap on tail
              // packing; the message still travels at cap size (decoders
              // read only what they need).
              const std::size_t used =
                  encode_chunk(send, dst, f, 0, sendcounts_[dst], out);
              LFFT_ASSERT(used <= out.size());
            });
        stats.wire_bytes += send_wire_cap_[dst];
      } else {
        // The encoded size is known only after the encode: stage first,
        // then publish (still zero intermediate copies at rendezvous
        // sizes). Coded replicas are copied *before* the data isend: a
        // rendezvous corrupt flips the staged frame itself, and the
        // replicas must not inherit it. Each replica send is an
        // independent fault-injection target.
        std::byte* const fr = stage_.data() + stage_off_[dst];
        const std::size_t used = encode_chunk(
            send, dst, f, 0, sendcounts_[dst],
            std::span<std::byte>(fr + spad, send_wire_cap_[dst]));
        const std::span<const std::byte> frame(fr, spad + used);
        if (coded_) {
          const std::uint64_t h = make_slot_header(seq, used);
          std::memcpy(fr, &h, sizeof(h));
          const std::uint64_t csum = fnv1a64(frame.subspan(spad));
          std::memcpy(fr + minimpi::kHeaderWordBytes, &csum, sizeof(csum));
        }
        for (int jj = 0; jj < parity_; ++jj) {
          std::memcpy(pstage_.data() +
                          static_cast<std::size_t>(jj) * pstage_stride_,
                      fr, frame.size());
        }
        req = comm_.isend(frame, static_cast<int>(dst), kFusedTag);
        for (int jj = 0; jj < parity_; ++jj) {
          preq[static_cast<std::size_t>(jj)] = comm_.isend(
              std::span<const std::byte>(
                  pstage_.data() +
                      static_cast<std::size_t>(jj) * pstage_stride_,
                  frame.size()),
              static_cast<int>(dst), kFusedParityTag + jj);
        }
        stats.wire_bytes +=
            static_cast<std::uint64_t>(1 + parity_) * frame.size();
        stats.parity_bytes +=
            static_cast<std::uint64_t>(parity_) * frame.size();
      }
      stats.chunks_issued += 1 + parity_;
      sent = true;
    }
    if (recvcounts_[src] > 0) {
      // The first clean frame of the message is delivered (an uncoded
      // message is its one frame): a raw one unpacked straight from the
      // transport's buffer, a codec one decoded from it. Later frames are
      // drained and discarded — the pairwise protocol consumes them
      // regardless.
      bool done = false;
      auto consume = [&](std::span<const std::byte> wire) {
        if (done) return;
        if (coded_) {
          if (!clean_frame(wire, seq, recv_wire_cap_[src])) return;
          wire = wire.subspan(coded::kFrameBytes);
        }
        if (raw_) {
          LFFT_REQUIRE(wire.size() == recvcounts_[src] * unit_,
                       "ExchangePlan: raw payload size mismatch");
          unpack(src, f, wire.data());
        } else {
          decode_chunk(src, f, 0, recvcounts_[src], wire);
          finish_source(src, f);
        }
        done = true;
      };
      comm_.recv_consume(static_cast<int>(src), kFusedTag, consume);
      const bool data_clean = done;
      for (int jj = 0; jj < parity_; ++jj) {
        comm_.recv_consume(static_cast<int>(src), kFusedParityTag + jj,
                           consume);
      }
      // Per-partner completion: the pairwise loop's arrival event.
      arrival_time_[src] = now_seconds();
      if (!data_clean && done) ++reconstructed;
      if (!done) {
        // Every frame of the group failed validation: unrecoverable. The
        // pairwise protocol must keep draining, so the Error is deferred
        // to the end of the exchange.
        std::lock_guard lk(decode_error_mu_);
        if (!decode_error_) {
          decode_error_ = std::make_exception_ptr(
              Error("coded exchange: two-sided message unrecoverable "
                    "(data and all parity replicas faulted)"));
        }
      }
    }
    if (sent) {
      comm_.wait(req);
      for (int jj = 0; jj < parity_; ++jj) {
        comm_.wait(preq[static_cast<std::size_t>(jj)]);
      }
    }
  }
  finish_skew_epoch(stats);
  stats.chunks_reconstructed = reconstructed;
  rethrow_decode_error();
  return stats;
}

void ExchangePlan::finish_skew_epoch(ExchangeStats& stats) {
  double first = 0.0;
  double last = 0.0;
  int seen = 0;
  for (const double t : arrival_time_) {
    if (t < 0.0) continue;
    if (seen == 0 || t < first) first = t;
    if (seen == 0 || t > last) last = t;
    ++seen;
  }
  // One arrival has no skew to measure; the self round trip alone (p == 1
  // or a one-partner round) records nothing.
  if (seen >= 2) {
    const double delta = last - first;
    ++stats.skew_epochs;
    stats.skew_seconds += delta;
    if (delta > stats.max_skew_seconds) stats.max_skew_seconds = delta;
    for (std::size_t s = 0; s < arrival_time_.size(); ++s) {
      if (arrival_time_[s] >= 0.0) source_lag_[s] += arrival_time_[s] - first;
    }
  }
  std::fill(arrival_time_.begin(), arrival_time_.end(), -1.0);
}

std::uint64_t ExchangePlan::footprint_bytes() const {
  std::uint64_t b = 0;
  b += window_store_.capacity();
  b += sstage_.capacity();
  b += rstage_.capacity();
  b += stage_.capacity();
  b += rec_scratch_.capacity();
  b += pstage_.capacity();
  b += (sendcounts_.capacity() + sstage_off_.capacity() +
        recvcounts_.capacity() + rstage_off_.capacity() +
        send_wire_cap_.capacity() + recv_wire_cap_.capacity() +
        job_bytes_.capacity() + stage_off_.capacity() +
        slot_offset_.capacity() + target_offset_.capacity() +
        target_bank_stride_.capacity() + coded_poff_.capacity() +
        coded_L_.capacity() + rec_off_.capacity()) *
       sizeof(std::uint64_t);
  b += (arrival_time_.capacity() + source_lag_.capacity()) * sizeof(double);
  b += (send_layout_.capacity() + recv_layout_.capacity()) *
       sizeof(RunLayout);
  b += unpack_jobs_.capacity() * sizeof(PlanChunk);
  for (const auto& jobs : round_jobs_) b += jobs.capacity() * sizeof(PlanChunk);
  return b;
}

}  // namespace lossyfft::osc
