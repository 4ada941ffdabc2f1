// Tuner layer 1: the candidate space and its cost evaluator.
//
// A candidate is one full execution configuration of a repeated exchange —
// transport path (one-sided fence / one-sided PSCW / two-sided fused)
// plus codec/pack worker fan-out. Each candidate is
// priced by feeding the *exact* communication schedule the ExchangePlan
// would emit (osc::schedule_osc_ring / osc::schedule_pairwise, the same
// builders the plan's executor walks) through netsim::simulate, then
// adding codec encode/decode terms derived from calibrated host throughput
// constants. The codec terms are parallel_granularity-aware: a codec that
// cannot shard one message across workers (granularity 0) only fans out
// across destinations, and PSCW's target-side pipelined decode hides all
// but the final round's decode behind the remaining rounds' puts.
//
// Everything here is deterministic in (signature, constants): no probing,
// no clocks, no state — which is what lets ranks agree on a decision by
// broadcasting it, lets the cache reproduce it, and lets tuner_test
// compare the tuner's bucketed pick against an exhaustive argmin.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/model.hpp"
#include "tuner/signature.hpp"

namespace lossyfft::tuner {

/// Calibrated host constants the evaluator prices candidates with. The
/// netsim defaults describe Summit (the paper's machine); calibrate_host
/// (calibrate.hpp) replaces them with live measurements at first use.
struct CostConstants {
  netsim::NetworkParams net;
  /// Serial codec throughput in *input* bytes/s (one worker, one stream).
  double encode_bw = 1.5e9;
  double decode_bw = 2.5e9;
  /// Staging copy bandwidth (pack/unpack, eager envelope copies).
  double copy_bw = 8e9;
  /// Marginal efficiency of each worker shard beyond the first (0..1]:
  /// k shards run at 1 + e*(k-1) times serial throughput.
  double worker_efficiency = 0.75;
  /// PSCW post/start/complete/wait cost per exposure peer per round.
  double handshake_seconds = 2e-6;
  /// Per-rank 1-D FFT throughput in flops/s, pricing the compute stages of
  /// a decomposition candidate (5 n log2 n per line). The *max* local
  /// element count enters the term, so slab pipelines and oversubscribed
  /// grids pay for their idle ranks.
  double fft_flops = 2e9;
  /// Worker shards available to one exchange (WorkerPool concurrency).
  int pool_concurrency = 4;
  /// True once calibrate_host has replaced the Summit defaults.
  bool calibrated = false;
};

/// One point of the candidate space.
struct TuneCandidate {
  TunePath path = TunePath::kOneSidedFence;
  int workers = 1;
  /// Coded-exchange parity chunks per message group (OscOptions::parity).
  int parity = 0;
};

/// The candidate grid for a signature: all three paths crossed with
/// power-of-two fan-outs up to the pool concurrency (raw exchanges carry
/// no codec work, so only fan-out 1 is emitted for them). When the
/// constants carry a straggler model (straggler_prob or rank delays), the
/// grid is additionally crossed with parity m ∈ {0, 1, 2} — the coded
/// exchange's wire/encode overhead against its absorbed stalls.
std::vector<TuneCandidate> candidate_space(const ExchangeSignature& sig,
                                           const CostConstants& k);

/// Modeled seconds of one exchange under `cand`. Deterministic.
double evaluate(const ExchangeSignature& sig, const TuneCandidate& cand,
                const CostConstants& k);

/// Exhaustive argmin over candidate_space, with the advisory
/// eager/rendezvous threshold attached (the payload size above which the
/// modeled zero-copy handshake beats the eager double-copy).
TuneDecision decide(const ExchangeSignature& sig, const CostConstants& k);

/// Cache bucketing: size class = bit width of the per-pair byte count
/// (bucket k holds [2^(k-1), 2^k)), and the deterministic representative
/// the bucket's decision is computed at (mid-bucket, so the cached
/// decision is identical no matter which member is queried first).
int size_class(std::uint64_t pair_bytes);
std::uint64_t representative_bytes(int size_class);

}  // namespace lossyfft::tuner
