// The tuner's vocabulary: what identifies an exchange (ExchangeSignature)
// and what a tuning decision prescribes (TuneDecision).
//
// A signature is everything the cost model needs that survives across
// runs: rank count, node grouping, the typical per-pair payload, and the
// codec's class (name, rate, rate class, shardability). The codec pointer
// itself rides along for calibration probes but never enters cache keys.
#pragma once

#include <cstdint>
#include <string>

#include "compress/codec.hpp"
#include "minimpi/types.hpp"
#include "osc/exchange_plan.hpp"

namespace lossyfft::tuner {

/// Identity of a repeated exchange, as the tuner keys decisions.
struct ExchangeSignature {
  int p = 2;        // Communicator size.
  int gpn = 1;      // Ranks per node (OscOptions::gpus_per_node).
  /// Typical nonzero per-pair payload in bytes (uncompressed). Plan
  /// construction uses the largest off-diagonal message.
  std::uint64_t pair_bytes = 0;
  /// Wire codec; nullptr = raw exchange. Used for its class properties
  /// (name/rate/fixed/granularity) and for calibration round-trips.
  CodecPtr codec;
  /// User tolerance that selected the codec (informative; part of the
  /// cache key through the rate bucket only).
  double e_tol = 0.0;

  std::string codec_class() const { return codec ? codec->name() : "raw"; }
  double rate() const { return codec ? codec->nominal_rate() : 1.0; }
};

/// Transport path of a decision. kOneSidedPscw with workers > 1 is the
/// PSCW-pipelined configuration (target-side decode overlapping rounds).
enum class TunePath : int {
  kOneSidedFence = 0,
  kOneSidedPscw = 1,
  kTwoSidedFused = 2,
};

const char* to_string(TunePath p);

/// Full execution configuration for one exchange signature. Trivially
/// copyable on purpose: rank 0 decides and the plan constructor
/// broadcasts the struct's bytes so every rank applies the same config.
struct TuneDecision {
  TunePath path = TunePath::kOneSidedFence;
  int workers = 1;
  /// Coded-exchange parity chunks per message group (0 = uncoded): the
  /// modeled argmin of parity overhead vs absorbed straggler stalls under
  /// the constants' straggler model (OscOptions::parity downstream).
  int parity = 0;
  /// Advisory transport threshold: payload size above which the modeled
  /// zero-copy rendezvous beats the eager double-copy on this host
  /// (minimpi worlds set MinimpiOptions::rendezvous_threshold at startup,
  /// so this is reported rather than applied per-plan).
  std::uint64_t rendezvous_threshold = minimpi::kDefaultRendezvousThreshold;
  double modeled_seconds = 0.0;

  osc::PlanBackend plan_backend() const {
    return path == TunePath::kOneSidedFence || path == TunePath::kOneSidedPscw
               ? osc::PlanBackend::kOneSided
               : osc::PlanBackend::kTwoSided;
  }
  osc::OscSync sync() const {
    return path == TunePath::kOneSidedPscw ? osc::OscSync::kPscw
                                           : osc::OscSync::kFence;
  }
};

}  // namespace lossyfft::tuner
