// perfbench: one command for lossyfft's end-to-end and per-layer metrics.
//
//   perfbench --workload fft-bound|exchange-bound|served-mix --seed N
//             --seconds S --trace 0|1 [--size full|smoke]
//             [--work-dir DIR] [--trace-file PATH]
//
// --trace 0 times the workload and prints the end-to-end metrics; --trace 1
// replays it with a span around every layer call and prints the per-layer
// metrics (README.md lists both). Every output is checked; the last line of
// standard output is one JSON object, and the exit code is 1 when any check
// failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/cpu_dispatch.hpp"
#include "common/worker_pool.hpp"
#include "compress/planner.hpp"

namespace {

using namespace perfbench;
using lossyfft::CodecFamily;

constexpr int kTrunc = static_cast<int>(CodecFamily::kTruncation);
constexpr int kZfpx = static_cast<int>(CodecFamily::kZfpx);
constexpr int kSzq = static_cast<int>(CodecFamily::kSzq);
constexpr int kLossless = static_cast<int>(CodecFamily::kLossless);
constexpr double kExact = 1e-12;  // Error ceiling of an exact wire.

/// 96^3 on one rank, exact wire: the mixed-radix 1-D FFT dominates.
Signature fft_bound(bool smoke) {
  return {"fft-bound", smoke ? std::array<int, 3>{24, 24, 24}
                             : std::array<int, 3>{96, 96, 96},
          1, -1, 1e-6, 0, kExact};
}

/// 64^3 on four ranks over a bit-trimmed wire: the exchange dominates.
Signature exchange_bound(bool smoke) {
  return {"exchange-bound", smoke ? std::array<int, 3>{16, 16, 16}
                                  : std::array<int, 3>{64, 64, 64},
          4, kTrunc, 1e-6, 0, truncation_budget(1e-6)};
}

/// The served mix: every codec family, both sync modes, cubic, non-cubic
/// and odd grids of 8 to 32 points a side. zfpx and szq budgets are the
/// serving soak's (100x e_tol).
std::vector<Signature> served_mix(bool smoke) {
  std::vector<Signature> all = {
      {"trunc-32c-fence", {32, 32, 32}, 4, kTrunc, 1e-6, 0,
       truncation_budget(1e-6)},
      {"trunc-24x20x16-pscw", {24, 20, 16}, 4, kTrunc, 1e-5, 1,
       truncation_budget(1e-5)},
      {"fp16-27x25x9-fence", {27, 25, 9}, 4, kTrunc, 1e-3, 0,
       truncation_budget(1e-3)},
      {"zfpx-16x12x10-pscw", {16, 12, 10}, 4, kZfpx, 1e-5, 1, 1e-3},
      {"szq-20x16x12-fence", {20, 16, 12}, 4, kSzq, 1e-4, 0, 1e-2},
      {"lossless-15x9x11-pscw", {15, 9, 11}, 4, kLossless, 1e-6, 1, kExact},
      {"raw-17x13x8-fence", {17, 13, 8}, 4, -1, 1e-6, 0, kExact},
      {"raw-8c-pscw", {8, 8, 8}, 4, -1, 1e-6, 1, kExact},
  };
  if (!smoke) return all;
  std::vector<Signature> small;
  for (const Signature& s : all) {
    if (s.n[0] * s.n[1] * s.n[2] <= 4000) small.push_back(s);
  }
  return small;
}

/// Per-layer metrics: name, unit, and the LayerSample / ServeSample field.
struct LayerMetric {
  const char* name;
  const char* unit;
  double LayerSample::*field;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"fft.ms", "ms", &LayerSample::fft_ms},
    {"fft.gflops", "GFLOP/s", &LayerSample::fft_gflops},
    {"reshape.ms", "ms", &LayerSample::reshape_ms},
    {"sync.wait_ms", "ms", &LayerSample::sync_ms},
    {"minimpi.barrier_us", "us", &LayerSample::barrier_us},
    {"exchange.wire_ratio", "ratio", &LayerSample::wire_ratio},
    {"exchange.messages", "count", &LayerSample::messages},
    {"exchange.rounds", "count", &LayerSample::rounds},
    {"exchange.skew_ms", "ms", &LayerSample::skew_ms},
    {"codec.encode_gbps", "GB/s", &LayerSample::encode_gbps},
    {"codec.decode_gbps", "GB/s", &LayerSample::decode_gbps},
    {"codec.ms", "ms", &LayerSample::codec_ms},
    {"model.fft_ratio", "ratio", &LayerSample::model_fft_ratio},
    {"model.reshape_ratio", "ratio", &LayerSample::model_reshape_ratio},
    {"trace.unattributed_frac", "ratio", &LayerSample::unattributed_frac},
    {"trace.overhead_frac", "ratio", &LayerSample::overhead_frac},
};
struct ServeMetric {
  const char* name;
  const char* unit;
  double ServeSample::*field;
};
constexpr ServeMetric kServeMetrics[] = {
    {"serve.open_ms_miss", "ms", &ServeSample::open_ms_miss},
    {"serve.open_ms_hit", "ms", &ServeSample::open_ms_hit},
    {"serve.cache_hit_ratio", "ratio", &ServeSample::cache_hit_ratio},
    {"serve.stats_ms", "ms", &ServeSample::stats_ms},
    {"serve.overhead_ms", "ms", &ServeSample::overhead_ms},
};

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v ? v : fallback;
}

void print_provenance(const std::string& workload, const RunOptions& o,
                      bool trace) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = -1;
  std::printf(
      "provenance: {\"build_type\": \"%s\", \"simd_detected\": \"%s\", "
      "\"simd_effective\": \"%s\", \"simd_requested\": \"%s\", "
      "\"nproc\": %u, \"pool_concurrency\": %d, "
      "\"LOSSYFFT_WORKERS\": \"%s\", \"LOSSYFFT_SIMD\": \"%s\", "
      "\"LOSSYFFT_TUNE_CACHE\": \"%s\", \"loadavg_1m\": %.2f, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"size\": \"%s\", \"trace\": %d}\n",
      PERFBENCH_BUILD_TYPE,
      lossyfft::simd_level_name(lossyfft::detected_simd_level()),
      lossyfft::simd_level_name(), lossyfft::simd_requested_name(),
      std::thread::hardware_concurrency(),
      lossyfft::WorkerPool::global().concurrency(),
      env_or("LOSSYFFT_WORKERS", "unset").c_str(),
      env_or("LOSSYFFT_SIMD", "unset").c_str(),
      env_or("LOSSYFFT_TUNE_CACHE", "unset").c_str(), load[0],
      workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.smoke ? "smoke" : "full", trace ? 1 : 0);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fft-bound|exchange-bound|"
               "served-mix --seed N --seconds S --trace 0|1 "
               "[--size full|smoke] [--work-dir DIR] [--trace-file PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  int trace = -1;
  RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = val == "1" ? 1 : val == "0" ? 0 : -1;
    } else if (flag == "--size") {
      if (val != "full" && val != "smoke") return usage();
      o.smoke = val == "smoke";
    } else if (flag == "--work-dir") {
      o.work_dir = val;
    } else if (flag == "--trace-file") {
      o.trace_file = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || trace < 0 || !(o.seconds > 0) ||
      (workload != "fft-bound" && workload != "exchange-bound" &&
       workload != "served-mix")) {
    return usage();
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; timings need "
                 "Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  print_provenance(workload, o, trace == 1);

  Report r;
  try {
    const bool served = workload == "served-mix";
    const std::vector<Signature> sigs =
        served ? served_mix(o.smoke)
               : std::vector<Signature>{workload == "fft-bound"
                                            ? fft_bound(o.smoke)
                                            : exchange_bound(o.smoke)};
    if (trace == 0) {
      if (served) {
        run_served_timed(sigs, o, r);
      } else {
        run_fft_timed(sigs[0], o, r);
      }
    } else {
      std::vector<SpanLog> logs;
      ServeSample ss;
      LayerSample ls;
      if (served) {
        // Serve figures from the mix itself; the other layers from a
        // replay of every signature in it, averaged with equal weight (each
        // gets an equal share of the rotation's jobs).
        ss = trace_served_mix(sigs, o, 0.5 * o.seconds, r, logs);
        const double each = 0.5 * o.seconds / static_cast<double>(sigs.size());
        for (const Signature& s : sigs) {
          const LayerSample one = replay_layers(s, o.seed, each, r, &logs);
          for (const LayerMetric& m : kLayerMetrics) {
            ls.*m.field += one.*m.field / static_cast<double>(sigs.size());
          }
        }
      } else {
        ls = replay_layers(sigs[0], o.seed, 0.6 * o.seconds, r, &logs);
        ss = serve_probe(sigs[0], o, 0.4 * o.seconds, r);
      }
      for (const LayerMetric& m : kLayerMetrics) r.set(m.name, ls.*m.field, m.unit);
      for (const ServeMetric& m : kServeMetrics) r.set(m.name, ss.*m.field, m.unit);
      if (!o.trace_file.empty()) {
        std::vector<const SpanLog*> views;
        for (const SpanLog& l : logs) views.push_back(&l);
        if (write_chrome_trace(o.trace_file, views, 20)) {
          std::printf("trace: wrote %s\n", o.trace_file.c_str());
        } else {
          std::fprintf(stderr, "perfbench: cannot write %s\n",
                       o.trace_file.c_str());
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  for (const Report::Metric& m : r.metrics) {
    r.check(std::isfinite(m.value), m.name + " is not a finite number");
  }
  std::printf("%s\n", r.json().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
