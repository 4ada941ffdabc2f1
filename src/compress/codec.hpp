// Codec: the compression interface plugged into the all-to-all exchange.
//
// A codec transforms a span of doubles (the packed reshape payload; complex
// data is viewed as interleaved re/im doubles) into bytes and back. Lossy
// codecs trade accuracy for wire volume; Section IV of the paper discusses
// the families implemented here:
//   - truncation (casting / mantissa trimming): fixed rate, hardware-cheap;
//   - transform codecs (zfpx, zfp-style): fixed rate, exploit spatial
//     correlation;
//   - error-bounded quantization (szq, SZ-style): variable rate;
//   - lossless (byteplane RLE): variable rate, exact.
//
// Fixed-size codecs declare their output size as a function of the element
// count alone, which lets the one-sided exchange lay out windows without a
// size exchange (the property the paper exploits for truncation).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

namespace lossyfft {

class Codec {
 public:
  virtual ~Codec() = default;

  /// Short identifier, e.g. "fp64->fp32".
  virtual std::string name() const = 0;

  /// Upper bound on compressed bytes for `n` doubles.
  virtual std::size_t max_compressed_bytes(std::size_t n) const = 0;

  /// Compress `in` into `out` (which must hold max_compressed_bytes(n));
  /// returns the number of bytes written.
  virtual std::size_t compress(std::span<const double> in,
                               std::span<std::byte> out) const = 0;

  /// Decompress exactly `out.size()` doubles from `in`.
  virtual void decompress(std::span<const std::byte> in,
                          std::span<double> out) const = 0;

  /// True when compressed size depends only on the element count; then
  /// max_compressed_bytes(n) is the exact size.
  virtual bool fixed_size() const = 0;

  /// Nominal input/output ratio used by performance models (e.g. 2 for
  /// FP64->FP32). Variable-rate codecs report their design-point estimate.
  virtual double nominal_rate() const = 0;

  /// True when decompress(compress(x)) == x exactly.
  virtual bool lossless() const { return false; }

  /// Element granularity at which the stream may be split into
  /// independently coded shards, or 0 when it cannot be split (the
  /// default). What a nonzero value g promises depends on the rate class:
  ///
  /// For fixed_size() codecs, for every element offset e that is a
  /// multiple of g:
  ///   - the encoded prefix of e elements occupies exactly
  ///     max_compressed_bytes(e) bytes (shard boundaries are byte-aligned
  ///     and max_compressed_bytes is additive across them), and
  ///   - compressing [e, m) alone produces the same bytes the full-stream
  ///     encoder writes at [max_compressed_bytes(e),
  ///     max_compressed_bytes(m)), with decompression sharding the same
  ///     way.
  ///
  /// For variable-rate codecs the stream cannot be prefix-exact (payload
  /// sizes are data-dependent), so a nonzero g instead promises the
  /// stream is *internally shard-framed*:
  ///   u64 count | u64 dir[ceil(count/g)] | compacted shard payloads
  /// where shard i covers elements [i*g, min((i+1)*g, count)), its payload
  /// occupies exactly dir[i] bytes, and every shard is coded independently
  /// (any cross-element predictor state resets at shard boundaries).
  /// compress_shard/decompress_shard expose the per-shard core and
  /// shard_payload_bound its size bound; the serial encoder emits the
  /// identical framing, so wire bytes never depend on the fan-out.
  ///
  /// Either way, this is what lets ParallelCodec fan shards out across
  /// workers while staying bitwise identical to the serial encoder.
  ///
  /// A fixed_size() codec with a nonzero g is *row-addressable*
  /// (row_addressable() below): values [a, b) with a a multiple of g
  /// encode to bytes [max_compressed_bytes(a), max_compressed_bytes(b)) of
  /// the whole stream, so any stretch of a message can be encoded from,
  /// or decoded into, wherever its elements sit. osc::ExchangePlan
  /// encodes such a codec's chunks run by run straight from the send
  /// field and decodes them straight into the receive field (no pack, no
  /// unpack): fp64 identity, fp32, unscaled fp16, bf16, BitTrim (g = 8)
  /// and zfpx fixed-rate (g = 4).
  virtual std::size_t parallel_granularity() const { return 0; }

  /// Shard-framing core for variable-rate codecs with a nonzero
  /// parallel_granularity() (see above). Never called otherwise; the
  /// defaults are placeholders for codecs that do not frame.
  /// Upper bound on one shard's payload bytes for `m` elements
  /// (m <= parallel_granularity()).
  virtual std::size_t shard_payload_bound(std::size_t /*m*/) const {
    return 0;
  }
  /// Encode one shard's payload (no count header, no directory entry);
  /// returns the bytes written. `out` holds shard_payload_bound(in.size()).
  virtual std::size_t compress_shard(std::span<const double> /*in*/,
                                     std::span<std::byte> /*out*/) const {
    return 0;
  }
  /// Decode one shard's payload (`in` is exactly the dir[i] bytes).
  virtual void decompress_shard(std::span<const std::byte> /*in*/,
                                std::span<double> /*out*/) const {}
};

using CodecPtr = std::shared_ptr<const Codec>;

/// Fixed rate with a nonzero parallel_granularity(): every g-aligned
/// stretch of a stream is addressable by the size formula alone.
inline bool row_addressable(const Codec& c) {
  return c.fixed_size() && c.parallel_granularity() > 0;
}

}  // namespace lossyfft
