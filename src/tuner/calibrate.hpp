// Tuner layer 2: fit the cost model's constants to the live host.
//
// The netsim defaults in CostConstants describe Summit; on the machine
// actually running (one multi-core host, ranks as threads) the balance
// between copy bandwidth, message overhead, barrier cost, and codec
// throughput is different — and it is exactly those ratios the decision
// between fence/PSCW/two-sided and between fan-outs hinges on. The
// calibrator times a handful of micro-probes at first use:
//
//   * memcpy streams            -> copy_bw, intra/inter bandwidth proxy;
//   * a nested 2-rank minimpi world exchanging small eager messages,
//     issuing window puts, and running barriers -> per-message overheads,
//     PSCW handshake cost, and the fence's per-hop latency;
//   * one batched 64-point FFT stage through the active lane tier, on the
//     calling thread -> fft_flops;
//   * codec round-trips on representative data -> encode_bw / decode_bw
//     per codec class (calibrate_codec, run per signature).
//
// Probes take a few milliseconds total and run only on a tune-cache miss;
// a warm cache (tuner.hpp) skips them entirely. The nested world is a
// fresh minimpi runtime (own SharedState), so calibrating from inside a
// rank thread of a live world is safe.
#pragma once

#include "compress/codec.hpp"
#include "tuner/cost_model.hpp"

namespace lossyfft::tuner {

/// Measure host-generic constants (copy bandwidth, message overheads,
/// barrier latency, local FFT rate, pool concurrency). Codec throughputs
/// keep their defaults until calibrate_codec refines them.
CostConstants calibrate_host();

/// Refine `k`'s encode/decode throughputs by timing round-trips of
/// `codec` over smooth representative data.
void calibrate_codec(const Codec& codec, CostConstants& k);

}  // namespace lossyfft::tuner
