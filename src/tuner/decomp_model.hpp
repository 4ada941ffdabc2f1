// Tuner layer 1b: the *decomposition* candidate space and its evaluator.
//
// The exchange-level model (cost_model.hpp) prices "how to run this
// exchange"; this layer prices "which exchanges to run at all". A
// candidate is a full pipeline shape — the slab pipeline (2-D FFT inside
// z-slabs, 3 reshapes) or the pencil pipeline (4 reshapes) under any
// admissible 2-D process-grid factorization of p, not just the
// near-square proc_grid2 default. Each candidate is expanded into its
// concrete reshape sequence: every reshape's exact (src, dst, bytes)
// message list is enumerated sparsely from the two box decompositions
// (O(overlapping pairs), never O(p^2) — feasible at 16k simulated ranks),
// placed into the paper's OSC ring schedule, and priced through the
// netsim contention model. On top of the network term each reshape pays
//   * codec encode/decode of the off-rank bytes at the busiest rank
//     (calibrated throughputs),
//   * pack/unpack staging copies of the off-rank bytes — none for a
//     row-addressable codec (codec.hpp), which the exchange encodes from
//     and decodes into the fields directly; for raw and variable-rate
//     wires the pack term is *dropped* for every rank whose off-rank send
//     boxes are contiguous in its source field (subvolume_contiguous),
//     exactly when Reshape elides packing — plus one copy of each rank's
//     self-block, which never reaches the wire (a reshape with no
//     off-rank traffic pays that copy alone: no network or
//     synchronization term),
// and each compute stage pays max-local-elements x 5 log2(n_dir) flops at
// CostConstants::fft_flops, so slab pipelines and oversubscribed grids
// are charged for their idle ranks.
//
// Like the exchange model, everything is deterministic in (signature,
// constants): rank 0 can decide and broadcast, the cache can reproduce
// it, and tuner_test can compare decide_decomp against an exhaustive
// argmin.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "tuner/cost_model.hpp"

namespace lossyfft::tuner {

/// Identity of a transform pipeline, as the tuner keys decomposition
/// decisions. Keyed by the exact grid (no size bucketing): decompositions
/// are per-plan, not per-message, and plan construction is rare.
struct DecompSignature {
  std::array<int, 3> n = {8, 8, 8};  // Global grid extents.
  int p = 2;                          // Communicator size.
  int gpn = 1;                        // Ranks per node.
  /// Wire codec; nullptr = raw. Class properties only (never cached).
  CodecPtr codec;
  /// Tolerance that selected the codec (enters the cache key through the
  /// rate bucket only).
  double e_tol = 0.0;
  /// Bytes per field element (16 = complex<double>, 8 = double).
  std::uint64_t elem_bytes = 16;

  std::string codec_class() const { return codec ? codec->name() : "raw"; }
  double rate() const { return codec ? codec->nominal_rate() : 1.0; }
};

/// Pipeline shape of a decomposition decision. Values match
/// FftAlgorithm's kPencil/kSlab (dfft resolves kAuto through this enum;
/// the tuner layer cannot include dfft headers).
enum class DecompAlgorithm : int {
  kPencil = 0,
  kSlab = 1,
};

const char* to_string(DecompAlgorithm a);

/// One point of the decomposition candidate space.
struct DecompCandidate {
  DecompAlgorithm algorithm = DecompAlgorithm::kPencil;
  /// Pencil process grid {a, b}: the lower non-transform dimension splits
  /// into a pieces, the higher into b (split_pencil's convention).
  /// Ignored by the slab pipeline.
  std::array<int, 2> grid = {1, 1};
};

/// Full decomposition prescription. Trivially copyable on purpose: rank 0
/// decides and Fft3d broadcasts the struct's bytes.
struct DecompDecision {
  DecompAlgorithm algorithm = DecompAlgorithm::kPencil;
  std::array<int, 2> grid = {1, 1};
  double modeled_seconds = 0.0;
};

/// Per-reshape cost breakdown (tune_dump --verbose, bench_scaling).
struct ReshapeCost {
  double net_seconds = 0.0;    // netsim contention term.
  double codec_seconds = 0.0;  // Busiest-rank off-rank encode + decode.
  double copy_seconds = 0.0;   // Busiest-rank pack + unpack + self copy.
  std::uint64_t wire_bytes = 0;
  std::uint64_t messages = 0;  // Off-diagonal messages emitted.
  int elided_ranks = 0;        // Ranks whose pack stage elides.

  double seconds() const {
    return net_seconds + codec_seconds + copy_seconds;
  }
};

/// Modeled pipeline cost of one candidate.
struct DecompCost {
  double seconds = 0.0;          // Reshapes + compute, end to end.
  double compute_seconds = 0.0;  // 1-D FFT stages at the busiest rank.
  std::vector<ReshapeCost> reshapes;
};

/// The candidate grid for a signature: the slab pipeline plus the pencil
/// pipeline under every admissible_grids2 factorization whose factors fit
/// the grid extents in all three pencil orientations (no zero-extent
/// boxes); when no factorization fits, the near-square default survives
/// as the only pencil candidate.
std::vector<DecompCandidate> decomp_candidate_space(const DecompSignature& sig);

/// Modeled seconds of one forward transform under `cand`. Deterministic.
/// `pack_elision` = false prices every rank's pack stage even where the
/// geometry would elide it (the bench's pack-vs-elided curves).
DecompCost evaluate_decomp(const DecompSignature& sig,
                           const DecompCandidate& cand,
                           const CostConstants& k, bool pack_elision = true);

/// Exhaustive argmin over decomp_candidate_space.
DecompDecision decide_decomp(const DecompSignature& sig,
                             const CostConstants& k);

}  // namespace lossyfft::tuner
