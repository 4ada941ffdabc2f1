// Tuner layer 3: decision memo + persistent cache + integration surface.
//
// Tuner::decide(signature) resolves an exchange signature to a full
// execution configuration (signature.hpp). Resolution order:
//
//   1. in-memory memo (steady state: a map lookup, nothing else);
//   2. the persistent cache file — a versioned text table keyed by
//      (p, gpn, size class, codec class, rate bucket), loaded once at
//      construction. LOSSYFFT_TUNE_CACHE names the file; unset means
//      in-memory only. A version-line mismatch ignores the file wholesale
//      (stale model constants must not resurrect stale decisions);
//   3. compute: calibrate the host once per process (calibrate.hpp),
//      calibrate the signature's codec class once, run the cost model's
//      exhaustive argmin at the size bucket's representative, memoize,
//      and rewrite the cache file.
//
// Decisions are bucketed by size class (bit width of pair_bytes) and
// computed at the bucket's deterministic representative, so every member
// of a bucket maps to the identical decision regardless of query order —
// the property the cache round-trip test pins down.
//
// Plan construction is collective, calibration timings are not: callers
// integrating over a communicator (Reshape) must have one rank decide and
// broadcast the (trivially copyable) TuneDecision, which also keeps probe
// cost at one rank's worth. decide() itself is thread-safe.
#pragma once

#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "tuner/cost_model.hpp"
#include "tuner/decomp_model.hpp"

namespace lossyfft::tuner {

struct TunerOptions {
  /// Persistent cache path; empty = in-memory memo only.
  std::string cache_path;
  /// Injected model constants (tests, tune_dump --summit). When set,
  /// calibration never runs.
  std::optional<CostConstants> constants;
};

class Tuner {
 public:
  /// Explicit options (tests construct isolated instances this way).
  explicit Tuner(TunerOptions options);

  /// The process-wide instance: cache path from LOSSYFFT_TUNE_CACHE,
  /// live-host calibration on first miss.
  static Tuner& global();

  /// Resolve a signature (thread-safe; probes only on a cold bucket).
  TuneDecision decide(const ExchangeSignature& sig);

  /// Resolve a pipeline signature to a decomposition (algorithm + pencil
  /// process grid). Keyed by the exact grid extents — decompositions are
  /// per-plan, not per-message, so there is no size bucketing. Same memo /
  /// cache / compute resolution order as decide(); rows share the cache
  /// file under a "d" tag.
  DecompDecision decide_decomp(const DecompSignature& sig);

  /// The model constants decisions are computed with; triggers host
  /// calibration when no injected constants exist and no decision has
  /// needed them yet. Codec throughputs reflect the last codec class
  /// calibrated.
  const CostConstants& constants();

  /// Cache-format version of this build (first line of the cache file is
  /// "lossyfft-tune-cache <version> <simd-level>"; other versions are
  /// ignored, as is any file calibrated under a different kernel dispatch
  /// level — SIMD codecs shift the codec-throughput constants enough to
  /// flip path decisions. Version 2 added the level token; version 3 added
  /// "d"-tagged decomposition rows (exchange rows are unchanged but the
  /// decomposition model's constants ride the same calibration, so older
  /// caches are not resurrected). Version 4 invalidated caches recorded
  /// before the scan-then-fill zfpx decoder and the avx512 kernel tier:
  /// decode throughput moved enough to flip path decisions even for rows
  /// keyed under an unchanged level name. Version 5 added the coded
  /// exchange's parity token to exchange rows. Version 6 invalidated
  /// decomposition rows priced with the fixed fft_flops default, now that
  /// calibration measures the batched lane FFT. Version 7 invalidated
  /// decomposition rows priced with self-blocks on the wire, now that
  /// reshapes copy them locally and only off-rank bytes pay codec and net.
  /// Version 8 invalidated rows calibrated before the avx512 BitTrim
  /// kernels moved to byte permutes (4-5x faster at generic widths).
  /// Version 9 dropped the staged two-sided path (its path token 3 no
  /// longer parses) and the avx512 zfpx kernels. Version 10 stopped
  /// charging row-addressable codecs a pack and an unpack copy in the
  /// cached decomposition rows.
  static constexpr int kCacheVersion = 10;

 private:
  std::string key(const ExchangeSignature& sig) const;
  std::string decomp_key(const DecompSignature& sig) const;
  void load_cache_locked();
  /// Parse one cache file image into the memos. `keep_existing` is the
  /// merge mode store_cache_locked uses to adopt rows other processes
  /// wrote since our load: in-memory decisions win, unknown rows survive.
  void parse_cache(std::istream& in, bool keep_existing);
  /// Concurrency-safe store: under an exclusive advisory flock
  /// (<cache>.lock), re-parse the current file to pick up rows written by
  /// other processes, then publish the merged table via temp file + atomic
  /// rename — a reader never observes a truncated or interleaved table.
  void store_cache_locked();
  CostConstants& constants_locked(const CodecPtr& codec,
                                  const std::string& codec_class);

  std::mutex mu_;
  TunerOptions options_;
  std::optional<CostConstants> constants_;  // Lazily calibrated.
  std::string calibrated_codec_class_;      // Last codec probe target.
  std::map<std::string, TuneDecision> memo_;
  std::map<std::string, DecompDecision> decomp_memo_;
};

}  // namespace lossyfft::tuner
