#include "tuner/cost_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "osc/coded_group.hpp"
#include "osc/osc_alltoall.hpp"
#include "osc/schedule.hpp"

namespace lossyfft::tuner {

namespace {

// Effective throughput multiplier of `w` worker shards against a serial
// stream, with diminishing returns per added shard. `cap` bounds the
// usable fan-out (pool size, or destination count for codecs whose
// streams cannot be split).
double fan_speedup(int w, int cap, const CostConstants& k) {
  const int eff = std::clamp(w, 1, std::max(1, cap));
  return 1.0 + k.worker_efficiency * static_cast<double>(eff - 1);
}

// Total codec input bytes one rank processes per exchange: every
// off-diagonal destination's payload.
double codec_input_bytes(const ExchangeSignature& sig) {
  return static_cast<double>(sig.pair_bytes) *
         static_cast<double>(std::max(1, sig.p - 1));
}

}  // namespace

const char* to_string(TunePath p) {
  switch (p) {
    case TunePath::kOneSidedFence: return "osc-fence";
    case TunePath::kOneSidedPscw: return "osc-pscw";
    case TunePath::kTwoSidedFused: return "twosided-fused";
  }
  return "?";
}

int size_class(std::uint64_t pair_bytes) {
  return pair_bytes == 0 ? 0 : std::bit_width(pair_bytes);
}

std::uint64_t representative_bytes(int sc) {
  if (sc <= 0) return 0;
  // Mid-bucket of [2^(k-1), 2^k): 1.5 * 2^(k-1).
  const std::uint64_t lo = std::uint64_t{1} << (sc - 1);
  return lo + lo / 2;
}

std::vector<TuneCandidate> candidate_space(const ExchangeSignature& sig,
                                           const CostConstants& k) {
  std::vector<TuneCandidate> out;
  const bool raw = sig.codec == nullptr;
  std::vector<int> fans = {1};
  if (!raw) {
    for (int w = 2; w <= std::max(1, k.pool_concurrency); w *= 2) {
      fans.push_back(w);
    }
  }
  // The parity axis is only worth pricing when the constants model a
  // straggler source; otherwise parity is pure overhead and m = 0 is the
  // argmin by construction.
  const bool straggler =
      (k.net.straggler_prob > 0.0 && k.net.straggler_seconds > 0.0) ||
      std::any_of(k.net.rank_delay_seconds.begin(),
                  k.net.rank_delay_seconds.end(),
                  [](double d) { return d > 0.0; });
  std::vector<int> parities = {0};
  if (straggler) parities.insert(parities.end(), {1, 2});
  for (const TunePath path :
       {TunePath::kOneSidedFence, TunePath::kOneSidedPscw,
        TunePath::kTwoSidedFused}) {
    for (const int w : fans) {
      for (const int m : parities) out.push_back({path, w, m});
    }
  }
  return out;
}

double evaluate(const ExchangeSignature& sig, const TuneCandidate& cand,
                const CostConstants& k) {
  LFFT_REQUIRE(sig.p >= 1 && sig.gpn >= 1, "tuner: bad signature extents");
  const bool raw = sig.codec == nullptr;
  const double rate = std::max(1e-9, sig.rate());
  const bool one_sided = cand.path == TunePath::kOneSidedFence ||
                         cand.path == TunePath::kOneSidedPscw;
  const std::uint64_t base_wire =
      raw ? sig.pair_bytes
          : static_cast<std::uint64_t>(
                std::ceil(static_cast<double>(sig.pair_bytes) / rate));
  std::uint64_t wire_pair = base_wire;
  double parity_extra = 0.0;
  if (cand.parity > 0) {
    // Coded wire overhead. One-sided fixed-rate groups split a message
    // into the pipeline's k chunks, so each of the m parity frames costs
    // ~wire/k extra bytes; variable-rate and two-sided groups have k = 1
    // and parity degenerates to m whole replicas. Every frame (data and
    // parity) also carries the 16-byte header+checksum prefix.
    const bool fixed = sig.codec == nullptr || sig.codec->fixed_size();
    const int kc = one_sided && fixed
                       ? std::max(1, osc::plan_pipeline_chunks(
                                         sig.pair_bytes, std::max(1.0, rate)))
                       : 1;
    const double pbytes =
        static_cast<double>(base_wire) * cand.parity / kc;
    wire_pair = base_wire + static_cast<std::uint64_t>(std::ceil(pbytes)) +
                static_cast<std::uint64_t>(kc + cand.parity) *
                    osc::coded::kFrameBytes;
    // Parity encode (GF(256) accumulate over the group) plus the checksum
    // scan each side — all memory-bandwidth-paced host passes.
    const double fanout = static_cast<double>(std::max(1, sig.p - 1));
    parity_extra =
        (pbytes + 2.0 * static_cast<double>(base_wire)) * fanout / k.copy_bw;
  }
  const auto bytes = [&](int src, int dst) -> std::uint64_t {
    return src == dst ? 0 : wire_pair;
  };

  // --- Network term: the exact schedule the plan would emit -------------
  const int nodes = (sig.p + sig.gpn - 1) / sig.gpn;
  const netsim::Topology topo = netsim::Topology::make(nodes, sig.gpn);
  netsim::Schedule sched =
      one_sided ? osc::schedule_osc_ring(sig.p, sig.gpn, bytes)
                : osc::schedule_pairwise(sig.p, sig.gpn, bytes);
  sched.parity_absorb = cand.parity;
  double sync_extra = 0.0;
  if (cand.path == TunePath::kOneSidedPscw) {
    // PSCW replaces the per-round tree fence with a post/start/
    // complete/wait handshake against the round's O(gpn) node pair.
    sched.phase_barrier = false;
    sync_extra = static_cast<double>(sched.phases.size()) *
                 static_cast<double>(sig.gpn) * k.handshake_seconds;
  }
  const double net_seconds = netsim::simulate(topo, sched, k.net).seconds;

  if (raw) return net_seconds + sync_extra + parity_extra;

  // --- Codec terms: granularity-aware fan-out ---------------------------
  // A codec whose stream shards (parallel_granularity > 0) spreads one
  // message across the pool; otherwise workers only help across the p-1
  // destination messages.
  const std::size_t g = sig.codec->parallel_granularity();
  const int cap = g > 0 ? k.pool_concurrency
                        : std::min(k.pool_concurrency, std::max(1, sig.p - 1));
  const double speedup = fan_speedup(cand.workers, cap, k);
  const double in_bytes = codec_input_bytes(sig);
  const double encode = in_bytes / (k.encode_bw * speedup);
  double decode = in_bytes / (k.decode_bw * speedup);

  // Fence and two-sided decodes are fully exposed (after the final fence,
  // or inside the transport with no staging copies). PSCW pipelines the
  // target-side decode: each round's slots decode while the remaining
  // rounds put, exposing only the final round's share.
  if (cand.path == TunePath::kOneSidedPscw) {
    decode /= static_cast<double>(
        std::max<std::size_t>(1, sched.phases.size()));
  }
  return encode + net_seconds + sync_extra + decode + parity_extra;
}

TuneDecision decide(const ExchangeSignature& sig, const CostConstants& k) {
  const auto cands = candidate_space(sig, k);
  LFFT_ASSERT(!cands.empty());
  TuneDecision best;
  double best_cost = -1.0;
  for (const TuneCandidate& c : cands) {
    const double cost = evaluate(sig, c, k);
    if (best_cost < 0.0 || cost < best_cost) {
      best_cost = cost;
      best.path = c.path;
      best.workers = c.workers;
      best.parity = c.parity;
    }
  }
  best.modeled_seconds = best_cost;
  // Advisory eager/rendezvous crossover: an eager message pays a second
  // copy (wire/copy_bw), a rendezvous one pays the handshake futex round
  // trip (the two-sided message overhead). Zero-copy wins above the size
  // where the copy outweighs the handshake; round to a power of two like
  // the transport's threshold convention.
  const double crossover = k.copy_bw * k.net.msg_overhead_two_sided;
  std::uint64_t thr = 1024;
  while (static_cast<double>(thr) < crossover && thr < (1u << 20)) thr *= 2;
  best.rendezvous_threshold = thr;
  return best;
}

}  // namespace lossyfft::tuner
