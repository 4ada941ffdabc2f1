// tune_dump: print the autotuner's decision table.
//
// For a sweep of exchange signatures (rank counts x ranks-per-node x
// per-pair payload sizes x codec classes) this prints the path, fan-out,
// advisory rendezvous threshold, and modeled seconds the tuner would pick,
// plus the modeled seconds of every candidate when --verbose is given.
//
// By default decisions use the built-in Summit-like model constants, so
// the output is deterministic and diffable. --calibrate measures the live
// host first (the same micro-probes plan construction runs on a tune-cache
// miss) and prints the fitted constants. When LOSSYFFT_TUNE_CACHE is set,
// decisions go through the persistent cache exactly as production plan
// construction does — running tune_dump once can pre-warm a cache file.
//
// With --verbose a final section runs a real 4-rank PSCW one-sided
// exchange in-process and prints the measured per-source arrival-skew
// table (ExchangeStats::skew_* and ExchangePlan::source_lag_seconds) —
// the observability signal the daemon's Stats reply exposes per tenant.
//
// A second table prints the decomposition decisions for the same sweep:
// for each (p, gpn, n, codec) signature, which pipeline the tuner picks
// (slab vs pencil), the process-grid factorization of the pencil stages,
// how many reshape stages elide their pack, and the modeled seconds.
// --verbose additionally prices every candidate in the space with its
// per-reshape net/codec/copy split. --n sets the global grid extents
// (one value = cube, three = n0,n1,n2).
//
// Usage: tune_dump [--calibrate] [--verbose]
//                  [--p LIST] [--gpn LIST] [--kib LIST] [--n LIST]

#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "compress/lossless.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "minimpi/runtime.hpp"
#include "osc/exchange_plan.hpp"
#include "tuner/calibrate.hpp"
#include "tuner/tuner.hpp"

namespace {

using namespace lossyfft;
using namespace lossyfft::tuner;

std::vector<int> parse_list(const char* s) {
  std::vector<int> out;
  int v = 0;
  bool have = false;
  for (; *s != '\0'; ++s) {
    if (*s >= '0' && *s <= '9') {
      v = v * 10 + (*s - '0');
      have = true;
    } else if (have) {
      out.push_back(v);
      v = 0;
      have = false;
    }
  }
  if (have) out.push_back(v);
  return out;
}

struct CodecRow {
  const char* label;
  CodecPtr codec;
};

}  // namespace

int main(int argc, char** argv) {
  bool calibrate = false, verbose = false;
  std::vector<int> ps = {4, 8, 16};
  std::vector<int> gpns = {1, 2, 6};
  std::vector<int> kibs = {16, 256, 4096};
  std::array<int, 3> n = {64, 64, 64};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--calibrate") {
      calibrate = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--p" && i + 1 < argc) {
      ps = parse_list(argv[++i]);
    } else if (arg == "--gpn" && i + 1 < argc) {
      gpns = parse_list(argv[++i]);
    } else if (arg == "--kib" && i + 1 < argc) {
      kibs = parse_list(argv[++i]);
    } else if (arg == "--n" && i + 1 < argc) {
      const auto ns = parse_list(argv[++i]);
      if (ns.size() == 1) {
        n = {ns[0], ns[0], ns[0]};
      } else if (ns.size() == 3) {
        n = {ns[0], ns[1], ns[2]};
      } else {
        std::fprintf(stderr, "--n wants one extent (cube) or three\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: tune_dump [--calibrate] [--verbose] [--p LIST] "
                   "[--gpn LIST] [--kib LIST] [--n LIST]\n");
      return 2;
    }
  }

  TunerOptions topts;
  if (const char* path = std::getenv("LOSSYFFT_TUNE_CACHE")) {
    topts.cache_path = path;
  }
  if (!calibrate) topts.constants = CostConstants{};  // Summit defaults.
  Tuner tuner(std::move(topts));

  const CostConstants& k = tuner.constants();  // Calibrates when asked to.
  std::printf("# constants: %s\n", k.calibrated ? "calibrated" : "summit");
  // The dispatch level the codec throughput constants were measured under
  // (and that the cache file is keyed by), plus what LOSSYFFT_SIMD asked
  // for when that differs — an unsupported override falls back with a
  // one-time warning, and this line makes the fallback visible.
  if (std::strcmp(lossyfft::simd_requested_name(), "auto") != 0 &&
      std::strcmp(lossyfft::simd_requested_name(),
                  lossyfft::simd_level_name()) != 0) {
    std::printf("#   simd=%s (requested=%s, unsupported -> fell back)\n",
                lossyfft::simd_level_name(),
                lossyfft::simd_requested_name());
  } else {
    std::printf("#   simd=%s\n", lossyfft::simd_level_name());
  }
  std::printf("#   copy_bw=%.3g encode_bw=%.3g decode_bw=%.3g B/s\n",
              k.copy_bw, k.encode_bw, k.decode_bw);
  std::printf("#   msg_two=%.3g msg_one=%.3g handshake=%.3g barrier=%.3g s\n",
              k.net.msg_overhead_two_sided, k.net.msg_overhead_one_sided,
              k.handshake_seconds, k.net.barrier_hop_latency);
  std::printf("#   pool_concurrency=%d worker_efficiency=%.2f "
              "fft_flops=%.3g flop/s\n\n",
              k.pool_concurrency, k.worker_efficiency, k.fft_flops);

  const CodecRow codecs[] = {
      {"raw", nullptr},
      {"bittrim", std::make_shared<BitTrimCodec>(16)},
      {"szq", std::make_shared<SzqCodec>(1e-6)},
      {"rle", std::make_shared<ByteplaneRleCodec>()},
  };

  std::printf("%4s %4s %9s %-8s  %-15s %7s %11s %12s\n", "p", "gpn",
              "pair_KiB", "codec", "path", "workers", "rendezvous",
              "modeled_us");
  for (const int p : ps) {
    for (const int gpn : gpns) {
      if (gpn > p) continue;
      for (const int kib : kibs) {
        for (const CodecRow& row : codecs) {
          ExchangeSignature sig;
          sig.p = p;
          sig.gpn = gpn;
          sig.pair_bytes = static_cast<std::uint64_t>(kib) * 1024;
          sig.codec = row.codec;
          const TuneDecision d = tuner.decide(sig);
          std::printf("%4d %4d %9d %-8s  %-15s %7d %11" PRIu64 " %12.2f\n", p,
                      gpn, kib, row.label, to_string(d.path), d.workers,
                      d.rendezvous_threshold, d.modeled_seconds * 1e6);
          if (verbose) {
            for (const TuneCandidate& c : candidate_space(sig, k)) {
              std::printf("      | %-15s w=%-2d %12.2f us\n",
                          to_string(c.path), c.workers,
                          evaluate(sig, c, k) * 1e6);
            }
          }
        }
      }
    }
  }

  // Decomposition table: which pipeline and process grid the tuner would
  // run the whole transform under, per signature.
  std::printf("\n# decomposition: n = %d x %d x %d\n", n[0], n[1], n[2]);
  std::printf("%4s %4s %-8s  %-7s %9s %8s %12s\n", "p", "gpn", "codec",
              "algo", "grid", "elided", "modeled_us");
  for (const int p : ps) {
    for (const int gpn : gpns) {
      if (gpn > p) continue;
      for (const CodecRow& row : codecs) {
        DecompSignature sig;
        sig.n = n;
        sig.p = p;
        sig.gpn = gpn;
        sig.codec = row.codec;
        const DecompDecision d = tuner.decide_decomp(sig);
        const DecompCost cost =
            evaluate_decomp(sig, DecompCandidate{d.algorithm, d.grid}, k);
        int elided_stages = 0;
        for (const auto& r : cost.reshapes)
          if (r.elided_ranks > 0) ++elided_stages;
        char grid[32];
        std::snprintf(grid, sizeof grid, "%dx%d", d.grid[0], d.grid[1]);
        char elided[32];
        std::snprintf(elided, sizeof elided, "%d/%zu", elided_stages,
                      cost.reshapes.size());
        std::printf("%4d %4d %-8s  %-7s %9s %8s %12.2f\n", p, gpn, row.label,
                    to_string(d.algorithm), grid, elided,
                    d.modeled_seconds * 1e6);
        if (verbose) {
          for (const DecompCandidate& c : decomp_candidate_space(sig)) {
            const DecompCost cc = evaluate_decomp(sig, c, k);
            std::snprintf(grid, sizeof grid, "%dx%d", c.grid[0], c.grid[1]);
            std::printf("      | %-7s %9s %12.2f us  (compute %.2f)\n",
                        to_string(c.algorithm), grid, cc.seconds * 1e6,
                        cc.compute_seconds * 1e6);
            for (std::size_t ri = 0; ri < cc.reshapes.size(); ++ri) {
              const auto& r = cc.reshapes[ri];
              std::printf("      |   reshape%zu net=%.2f codec=%.2f "
                          "copy=%.2f us  msgs=%" PRIu64 " wire=%" PRIu64
                          "B elided_ranks=%d\n",
                          ri, r.net_seconds * 1e6, r.codec_seconds * 1e6,
                          r.copy_seconds * 1e6, r.messages, r.wire_bytes,
                          r.elided_ranks);
            }
          }
        }
      }
    }
  }

  if (verbose) {
    // Live arrival-skew probe: a real PSCW one-sided exchange across 4
    // in-process ranks, with rank r sleeping r ms before each epoch so
    // the per-source lag table has visible structure. This is measured,
    // not modeled — the same counters lossyfftd reports per tenant.
    constexpr int kProbeRanks = 4;
    constexpr int kEpochs = 4;
    constexpr std::uint64_t kPairDoubles = 2048;
    std::array<std::vector<double>, kProbeRanks> lag;
    std::array<lossyfft::osc::ExchangeStats, kProbeRanks> stats;
    lossyfft::minimpi::run_ranks(
        kProbeRanks, [&](lossyfft::minimpi::Comm& comm) {
          const std::size_t p = kProbeRanks;
          std::vector<std::uint64_t> counts(p, kPairDoubles), displs(p, 0);
          for (std::size_t r = 1; r < p; ++r) {
            displs[r] = displs[r - 1] + counts[r - 1];
          }
          std::vector<double> send(kPairDoubles * p, 1.0 + comm.rank());
          std::vector<double> recv(kPairDoubles * p, 0.0);
          lossyfft::osc::OscOptions o;
          o.sync = lossyfft::osc::OscSync::kPscw;
          o.gpus_per_node = 2;
          lossyfft::osc::ExchangePlan plan(
              comm, lossyfft::osc::PlanBackend::kOneSided, counts, displs,
              counts, displs, std::span<double>(recv), o);
          lossyfft::osc::ExchangeStats st;
          for (int e = 0; e < kEpochs; ++e) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(comm.rank()));
            st.accumulate(plan.execute(send, recv));
          }
          const auto rank_lag = plan.source_lag_seconds();
          lag[comm.rank()].assign(rank_lag.begin(), rank_lag.end());
          stats[comm.rank()] = st;
        });
    std::printf("\n# live arrival skew: %d ranks, pscw one-sided, raw wire, "
                "%d epochs, %" PRIu64 " KiB/pair\n",
                kProbeRanks, kEpochs, kPairDoubles * 8 / 1024);
    std::printf("#   per-source lag (us behind the epoch's first arrival, "
                "summed over epochs)\n");
    std::printf("%8s", "dest\\src");
    for (int s = 0; s < kProbeRanks; ++s) std::printf(" %9d", s);
    std::printf("\n");
    for (int d = 0; d < kProbeRanks; ++d) {
      std::printf("%8d", d);
      for (int s = 0; s < kProbeRanks; ++s) {
        std::printf(" %9.1f", lag[d].size() > static_cast<std::size_t>(s)
                                  ? lag[d][s] * 1e6
                                  : 0.0);
      }
      std::printf("  | epochs=%" PRIu64 " skew=%.1fus worst=%.1fus\n",
                  stats[d].skew_epochs, stats[d].skew_seconds * 1e6,
                  stats[d].max_skew_seconds * 1e6);
    }
  }
  return 0;
}
