#include "dfft/reshape.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/worker_pool.hpp"
#include "compress/parallel_codec.hpp"
#include "dfft/decomp.hpp"
#include "tuner/tuner.hpp"

namespace lossyfft {

namespace {

// Offset of row (y, z) of `sub` in `box`'s x-fastest local storage.
std::size_t subvolume_row_base(const Box3& box, const Box3& sub, int y,
                               int z) {
  return static_cast<std::size_t>(sub.lo[0] - box.lo[0]) +
         static_cast<std::size_t>(box.size[0]) *
             (static_cast<std::size_t>(y - box.lo[1]) +
              static_cast<std::size_t>(box.size[1]) *
                  static_cast<std::size_t>(z - box.lo[2]));
}

// The sub-volume `sub` of `box`'s local storage as a run layout: one
// x-row per run, one z-plane per plane, merged where rows or planes abut.
osc::RunLayout subvolume_layout(const Box3& box, const Box3& sub) {
  if (sub.empty()) return {};
  osc::RunLayout l;
  l.first = subvolume_row_base(box, sub, sub.lo[1], sub.lo[2]);
  l.run = static_cast<std::uint64_t>(sub.size[0]);
  l.runs = static_cast<std::uint64_t>(sub.size[1]);
  l.run_stride = static_cast<std::uint64_t>(box.size[0]);
  l.planes = static_cast<std::uint64_t>(sub.size[2]);
  l.plane_stride = static_cast<std::uint64_t>(box.size[0]) *
                   static_cast<std::uint64_t>(box.size[1]);
  return l.merged();
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
    std::memcpy(to + subvolume_row_base(to_box, sub, sub.lo[1], sub.lo[2]),
                from + subvolume_row_base(from_box, sub, sub.lo[1], sub.lo[2]),
                static_cast<std::size_t>(sub.count()) * sizeof(E));
    return;
  }
  const std::size_t row_bytes =
      static_cast<std::size_t>(sub.size[0]) * sizeof(E);
  for (int z = sub.lo[2]; z < sub.hi(2); ++z) {
    for (int y = sub.lo[1]; y < sub.hi(1); ++y) {
      std::memcpy(to + subvolume_row_base(to_box, sub, y, z),
                  from + subvolume_row_base(from_box, sub, y, z),
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

  const Box3& my_in = all_in_[static_cast<std::size_t>(rank_)];
  const Box3& my_out = all_out_[static_cast<std::size_t>(rank_)];
  // Each off-rank overlap becomes a message laid out in the field: a send
  // layout in the inbox, a receive layout in the outbox. The self-block
  // is copied straight from `in` to `out` by execute(), so its layouts
  // stay empty: transports, codecs and stats only ever see the bytes that
  // leave this rank.
  self_box_ = Box3::intersect(my_in, my_out);
  std::vector<osc::RunLayout> send(p), recv(p);
  std::uint64_t send_total = 0, recv_total = 0, largest = 0;
  for (std::size_t r = 0; r < p; ++r) {
    if (static_cast<int>(r) == rank_) continue;
    send[r] = subvolume_layout(my_in, Box3::intersect(my_in, all_out_[r]));
    recv[r] = subvolume_layout(my_out, Box3::intersect(all_in_[r], my_out));
    send_total += send[r].count();
    recv_total += recv[r].count();
    largest = std::max(largest, send[r].count());
  }
  const auto self_count = static_cast<std::uint64_t>(self_box_.count());
  LFFT_REQUIRE(
      send_total + self_count == static_cast<std::uint64_t>(my_in.count()),
      "reshape: output boxes do not tile this rank's inbox");
  LFFT_REQUIRE(
      recv_total + self_count == static_cast<std::uint64_t>(my_out.count()),
      "reshape: input boxes do not tile this rank's outbox");
  // The pack elides when every message this rank sends is one contiguous
  // run of the source field: the plan then reads every send straight from
  // `in`, whatever its codec. Rank-local and byte-identical to packing.
  pack_elided_ = std::all_of(send.begin(), send.end(),
                             [](const osc::RunLayout& l) {
                               return l.contiguous();
                             });
  // When no rank sends anything off-rank (every rank's overlap is its own),
  // there is nothing to plan: no window, no fence, and execute() is the
  // self copy alone. Construction is collective, so one allreduce decides
  // it.
  if (comm_.allreduce_one(static_cast<std::int64_t>(send_total),
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
  plan_ = std::make_unique<osc::ExchangePlan>(comm_, backend, send, recv,
                                              sizeof(E), oo);
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
  // One exchange for the whole batch: the plan moves every off-rank
  // element from `in` to `out`.
  if (plan_) {
    stats_.accumulate(plan_->execute_batch(std::as_bytes(in),
                                           std::as_writable_bytes(out),
                                           fields));
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
