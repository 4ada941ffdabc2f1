#include "dfft/reshape.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/worker_pool.hpp"
#include "compress/parallel_codec.hpp"
#include "dfft/decomp.hpp"
#include "tuner/tuner.hpp"

namespace lossyfft {

namespace {

// Copy the sub-volume `sub` of `box`-owned data between the box-local
// buffer and a contiguous staging area (x-fastest within `sub`). Two
// const-correct directions instead of one template over a cast.
template <typename E>
std::size_t subvolume_row_base(const Box3& box, const Box3& sub, int y,
                               int z) {
  return static_cast<std::size_t>(sub.lo[0] - box.lo[0]) +
         static_cast<std::size_t>(box.size[0]) *
             (static_cast<std::size_t>(y - box.lo[1]) +
              static_cast<std::size_t>(box.size[1]) *
                  static_cast<std::size_t>(z - box.lo[2]));
}

template <typename E>
void pack_subvolume(const Box3& box, const Box3& sub, const E* box_data,
                    E* staged) {
  const std::size_t row = static_cast<std::size_t>(sub.size[0]);
  std::size_t s = 0;
  for (int z = sub.lo[2]; z < sub.hi(2); ++z) {
    for (int y = sub.lo[1]; y < sub.hi(1); ++y) {
      std::memcpy(staged + s,
                  box_data + subvolume_row_base<E>(box, sub, y, z),
                  row * sizeof(E));
      s += row;
    }
  }
}

// The inverse of pack_subvolume, reading from raw bytes of unknown
// alignment (an eager envelope, a peer's published staging, or the plan's
// pinned receive span): row copies addressed in bytes.
template <typename E>
void unpack_subvolume(const Box3& box, const Box3& sub, E* box_data,
                      const std::byte* staged) {
  const std::size_t row_bytes =
      static_cast<std::size_t>(sub.size[0]) * sizeof(E);
  std::size_t s = 0;
  for (int z = sub.lo[2]; z < sub.hi(2); ++z) {
    for (int y = sub.lo[1]; y < sub.hi(1); ++y) {
      std::memcpy(box_data + subvolume_row_base<E>(box, sub, y, z), staged + s,
                  row_bytes);
      s += row_bytes;
    }
  }
}

// Copy the sub-volume `sub` straight from one box-local field to another:
// the self-block path, which never stages or touches the wire. One memcpy
// when `sub` is a single run in both boxes, one per x-row otherwise.
template <typename E>
void copy_subvolume(const Box3& from_box, const Box3& to_box, const Box3& sub,
                    const E* from, E* to) {
  if (sub.empty()) return;
  if (subvolume_contiguous(from_box, sub) &&
      subvolume_contiguous(to_box, sub)) {
    std::memcpy(to + subvolume_row_base<E>(to_box, sub, sub.lo[1], sub.lo[2]),
                from + subvolume_row_base<E>(from_box, sub, sub.lo[1],
                                             sub.lo[2]),
                static_cast<std::size_t>(sub.count()) * sizeof(E));
    return;
  }
  const std::size_t row_bytes =
      static_cast<std::size_t>(sub.size[0]) * sizeof(E);
  for (int z = sub.lo[2]; z < sub.hi(2); ++z) {
    for (int y = sub.lo[1]; y < sub.hi(1); ++y) {
      std::memcpy(to + subvolume_row_base<E>(to_box, sub, y, z),
                  from + subvolume_row_base<E>(from_box, sub, y, z),
                  row_bytes);
    }
  }
}

int resolve_workers(int requested) {
  if (requested == 0) return WorkerPool::global().concurrency();
  return requested > 1 ? requested : 1;
}

}  // namespace

const char* to_string(ExchangeBackend b) {
  switch (b) {
    case ExchangeBackend::kPairwise: return "pairwise";
    case ExchangeBackend::kOsc: return "osc";
  }
  return "?";
}

template <typename E>
Reshape<E>::Reshape(minimpi::Comm& comm, std::vector<Box3> all_in,
                    std::vector<Box3> all_out, ReshapeOptions options)
    : comm_(comm), rank_(comm.rank()), all_in_(std::move(all_in)),
      all_out_(std::move(all_out)), options_(options) {
  const auto p = static_cast<std::size_t>(comm.size());
  LFFT_REQUIRE(all_in_.size() == p && all_out_.size() == p,
               "reshape: box lists must have comm.size() entries");
  if constexpr (!kReshapeDoubleBased<E>) {
    LFFT_REQUIRE(options_.codec == nullptr,
                 "reshape: codecs only apply to double-based fields");
  }
  workers_ = resolve_workers(options_.workers);
  LFFT_REQUIRE(options_.batch >= 1, "reshape: batch capacity must be >= 1");

  send_boxes_.resize(p);
  recv_boxes_.resize(p);
  send_counts_.resize(p);
  send_displs_.resize(p);
  recv_counts_.resize(p);
  recv_displs_.resize(p);

  const Box3& my_in = all_in_[static_cast<std::size_t>(rank_)];
  const Box3& my_out = all_out_[static_cast<std::size_t>(rank_)];
  // The self-block is copied straight from `in` to `out` by execute(), so
  // its counts stay zero: transports, codecs and stats only ever see the
  // bytes that leave this rank.
  self_box_ = Box3::intersect(my_in, my_out);
  for (std::size_t r = 0; r < p; ++r) {
    send_boxes_[r] = Box3::intersect(my_in, all_out_[r]);
    recv_boxes_[r] = Box3::intersect(all_in_[r], my_out);
    if (static_cast<int>(r) != rank_) {
      send_counts_[r] = static_cast<std::uint64_t>(send_boxes_[r].count());
      recv_counts_[r] = static_cast<std::uint64_t>(recv_boxes_[r].count());
    }
    send_displs_[r] = send_total_;
    recv_displs_[r] = recv_total_;
    send_total_ += send_counts_[r];
    recv_total_ += recv_counts_[r];
  }
  const auto self_count = static_cast<std::uint64_t>(self_box_.count());
  LFFT_REQUIRE(
      send_total_ + self_count == static_cast<std::uint64_t>(my_in.count()),
      "reshape: output boxes do not tile this rank's inbox");
  LFFT_REQUIRE(
      recv_total_ + self_count == static_cast<std::uint64_t>(my_out.count()),
      "reshape: input boxes do not tile this rank's outbox");
  // Pack elision: when every nonzero sub-volume this rank sends off-rank
  // occupies one contiguous run of the source field, packing is an
  // identity copy. Rewrite the send displacements to field-linear element
  // offsets and exchange straight out of `in` — the plan addresses send
  // data exclusively through (displacement, count) subspans and peers only
  // learn counts, so the decision is rank-local and results are
  // byte-identical. The send view then spans the whole field (the
  // self-block is not sent, so send_total_ falls short of it). Sends that
  // are not contiguous keep the pack stage.
  pack_elided_ = true;
  for (std::size_t r = 0; r < p && pack_elided_; ++r) {
    if (send_counts_[r] > 0 &&
        !subvolume_contiguous(my_in, send_boxes_[r])) {
      pack_elided_ = false;
    }
  }
  if (pack_elided_) {
    for (std::size_t r = 0; r < p; ++r) {
      send_displs_[r] =
          send_counts_[r] > 0
              ? static_cast<std::uint64_t>(subvolume_row_base<E>(
                    my_in, send_boxes_[r], send_boxes_[r].lo[1],
                    send_boxes_[r].lo[2]))
              : 0;
    }
  }
  // When no rank sends anything off-rank (every rank's overlap is its own),
  // there is nothing to plan: no window, no fence, and execute() is the
  // self copy alone. Construction is collective, so one allreduce decides
  // it.
  if (comm_.allreduce_one(static_cast<std::int64_t>(send_total_),
                          minimpi::ReduceOp::kMax) == 0) {
    return;
  }
  if (options_.osc_sync == osc::OscSync::kAuto) {
    // Model-guided configuration. Rank 0 resolves the signature through
    // the tuner (memo -> persistent cache -> calibrate + cost model) and
    // broadcasts the POD decision: calibration is timing-based and would
    // diverge across ranks, and plan construction is collective, so all
    // ranks must apply one rank's answer.
    tuner::ExchangeSignature sig;
    sig.p = static_cast<int>(p);
    sig.gpn = options_.gpus_per_node > 0 ? options_.gpus_per_node : 1;
    std::uint64_t largest = 0;
    for (std::size_t r = 0; r < p; ++r) {
      if (static_cast<int>(r) != rank_) {
        largest = std::max(largest, send_counts_[r]);
      }
    }
    sig.pair_bytes = largest * sizeof(E);
    sig.codec = options_.codec;
    tuner::TuneDecision d;
    if (rank_ == 0) d = tuner::Tuner::global().decide(sig);
    comm_.bcast(std::span<tuner::TuneDecision>(&d, 1), 0);
    options_.osc_sync = d.sync();
    options_.workers = d.workers;
    workers_ = resolve_workers(options_.workers);
    // The tuner's parity pick only fills in an unset knob: an explicit
    // exchange_parity is the caller's resilience requirement.
    if (options_.exchange_parity == 0) {
      options_.exchange_parity = d.parity;
    }
    tuned_ = d;
  }
  // Pack fan-out clamps against the staging volume: below the
  // bytes-per-shard floor the memcpy loops run serially on the rank
  // thread (submit/steal overhead beats the copies there).
  pack_shards_ =
      pack_elided_
          ? 1
          : WorkerPool::effective_shards(
                options_.workers,
                static_cast<std::size_t>(send_total_) * sizeof(E));

  // Persistent plan: window + slot offsets + codec staging set up once
  // here (collectively), so execute() is pure data movement. Codec and
  // coded wires carry doubles, so float fields stay uncoded.
  osc::OscOptions oo;
  oo.codec = options_.codec;
  if (oo.codec && workers_ > 1) {
    // Shardable codecs split each message across the pool; the rest fall
    // through to serial inside the decorator. Either way the wire bytes
    // match the serial encoder exactly.
    oo.codec = std::make_shared<const ParallelCodec>(
        oo.codec, &WorkerPool::global(), workers_);
  }
  oo.chunks = options_.osc_chunks;
  oo.gpus_per_node = options_.gpus_per_node;
  oo.sync = options_.osc_sync;
  oo.workers = workers_;
  oo.batch = options_.batch;
  if constexpr (kReshapeDoubleBased<E>) {
    oo.parity = options_.exchange_parity;
    oo.fault_plan = options_.fault_plan;
  }
  const osc::PlanBackend backend =
      tuned_ ? tuned_->plan_backend()
             : (options_.backend == ExchangeBackend::kOsc
                    ? osc::PlanBackend::kOneSided
                    : osc::PlanBackend::kTwoSided);
  // Batches pack every field bank at once, and a plan that lands its
  // messages in the pinned receive span (every plan but the uncoded raw
  // two-sided one) pins every bank (the window replicates per field).
  const auto banks = static_cast<std::size_t>(options_.batch);
  if (!pack_elided_) sendbuf_.resize(send_total_ * banks);
  if (osc::ExchangePlan::needs_recv(backend, oo)) {
    recvbuf_.resize(recv_total_ * banks);
  }
  plan_ = std::make_unique<osc::ExchangePlan>(
      comm_, backend, send_counts_, send_displs_, recv_counts_, recv_displs_,
      std::as_writable_bytes(std::span<E>(recvbuf_)), sizeof(E), oo);
}

template <typename E>
void Reshape<E>::execute(std::span<const E> in, std::span<E> out) {
  execute_batch(in, out, 1);
}

template <typename E>
void Reshape<E>::execute_batch(std::span<const E> in, std::span<E> out,
                               int fields) {
  LFFT_REQUIRE(fields >= 1 && fields <= options_.batch,
               "reshape: execute_batch fields must be in [1, options.batch]");
  const Box3& my_in = all_in_[static_cast<std::size_t>(rank_)];
  const Box3& my_out = all_out_[static_cast<std::size_t>(rank_)];
  const auto nf = static_cast<std::size_t>(fields);
  const auto in_ext = static_cast<std::size_t>(my_in.count());
  const auto out_ext = static_cast<std::size_t>(my_out.count());
  LFFT_REQUIRE(in.size() == nf * in_ext,
               "reshape: input must hold `fields` inbox images");
  LFFT_REQUIRE(out.size() == nf * out_ext,
               "reshape: output must hold `fields` outbox images");
  const Stopwatch watch;
  if (plan_) {
    const auto p = send_boxes_.size();

    // Pack every field into its staging bank; (field, destination) items
    // write disjoint slices, so the whole batch fans out at once. An
    // elided pack skips this wholesale: the exchange reads the field
    // banks of `in` directly, at bank stride in_ext, with the field-linear
    // displacements.
    if (!pack_elided_) {
      const auto pack_item = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const std::size_t f = k / p;
          const std::size_t r = k % p;
          if (send_counts_[r] == 0) continue;
          pack_subvolume(my_in, send_boxes_[r], in.data() + f * in_ext,
                         sendbuf_.data() + f * send_total_ + send_displs_[r]);
        }
      };
      if (pack_shards_ > 1) {
        WorkerPool::global().parallel_for(nf * p, 1, pack_item, pack_shards_);
      } else {
        pack_item(0, nf * p);
      }
    }
    const std::span<const E> send =
        pack_elided_ ? in
                     : std::span<const E>(
                           sendbuf_.data(),
                           static_cast<std::size_t>(send_total_) * nf);

    // One exchange for the whole batch; the plan hands each finished
    // message to the sink, which unpacks its rows into `out`. Sources
    // write disjoint sub-volumes, so sinks running on pool workers need no
    // coordination.
    stats_.accumulate(plan_->execute_batch(
        std::as_bytes(send), fields,
        [&](std::size_t s, std::size_t f, std::span<const std::byte> msg) {
          unpack_subvolume(my_out, recv_boxes_[s], out.data() + f * out_ext,
                           msg.data());
        }));
  }
  for (std::size_t f = 0; f < nf; ++f) {
    copy_subvolume(my_in, my_out, self_box_, in.data() + f * in_ext,
                   out.data() + f * out_ext);
  }
  stats_.seconds += watch.seconds();
}

template class Reshape<float>;
template class Reshape<double>;
template class Reshape<std::complex<float>>;
template class Reshape<std::complex<double>>;

}  // namespace lossyfft
