// Microbenchmarks (google-benchmark) of the node-local kernels that the
// paper's pipeline rests on: the 1-D FFT stages and every codec's
// compress/decompress throughput. These are the constants a user would
// measure to recalibrate netsim::NetworkParams::compress_bw on their
// hardware.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "compress/lossless.hpp"
#include "compress/parallel_codec.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "fft/fft1d.hpp"

namespace {

using namespace lossyfft;

// Each iteration transforms a fresh copy of the input (the copy is a few
// percent of a transform): in place, repeated forward transforms overflow
// to inf/NaN within a few hundred iterations and would time that instead.
void BM_Fft1dForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fft1d<double> plan(n);
  Xoshiro256 rng(1);
  std::vector<std::complex<double>> x0(n), x(n);
  fill_uniform_complex(rng, x0);
  for (auto _ : state) {
    std::copy(x0.begin(), x0.end(), x.begin());
    plan.transform(x.data(), FftDirection::kForward);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft1dForward)->Arg(256)->Arg(1024)->Arg(4096)->Arg(1000);

// Rows pinned to one kernel tier (arg 1: 0 = scalar, 1 = avx2, 2 =
// avx512). Rows above the detected level are skipped (not silently renamed
// or rerun at a lower tier) so a JSON recorded on a lesser host cannot
// mislabel rows.
bool enter_simd_row(benchmark::State& state, SimdLevel* prev) {
  const auto want = static_cast<SimdLevel>(state.range(1));
  if (want > detected_simd_level()) {
    state.SkipWithError("level not supported by this build/host");
    return false;
  }
  *prev = set_simd_level(want);
  return true;
}

// Batched lines through each FFT lane tier (the label carries "<shape>
// <level>"). Arg 0 picks the shape: 0 is 64 contiguous 1024-point lines,
// 1 is one exchange-bound z-pencil stage, 1024 adjacent 64-point lines at
// stride 1024. Iterations alternate forward and inverse, which keeps the
// data finite.
void BM_Fft1dBatched(benchmark::State& state) {
  SimdLevel prev;
  if (!enter_simd_row(state, &prev)) return;
  const bool pencil = state.range(0) == 1;
  const std::size_t n = pencil ? 64 : 1024, batch = pencil ? 1024 : 64;
  const std::ptrdiff_t stride = pencil ? 1024 : 1;
  const std::ptrdiff_t line = pencil ? 1 : 1024;
  Fft1d<double> plan(n);
  Xoshiro256 rng(2);
  std::vector<std::complex<double>> x(n * batch);
  fill_uniform_complex(rng, x);
  bool forward = true;
  for (auto _ : state) {
    plan.transform_strided(
        x.data(), stride, batch, line,
        forward ? FftDirection::kForward : FftDirection::kInverse);
    forward = !forward;
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * batch));
  state.SetLabel(std::string(pencil ? "64-pt z-pencil " : "1024-pt lines ") +
                 simd_level_name());
  set_simd_level(prev);
}
BENCHMARK(BM_Fft1dBatched)->ArgsProduct({{0, 1}, {0, 1, 2}});

std::shared_ptr<Codec> make_codec(int which) {
  switch (which) {
    case 0: return std::make_shared<IdentityCodec>();
    case 1: return std::make_shared<CastFp32Codec>();
    case 2: return std::make_shared<CastFp16Codec>();
    case 3: return std::make_shared<BitTrimCodec>(20);
    case 4: return std::make_shared<Zfpx1dCodec>(16);
    case 5: return std::make_shared<SzqCodec>(1e-6);
    default: return std::make_shared<ByteplaneRleCodec>();
  }
}

void BM_Compress(benchmark::State& state) {
  const auto codec = make_codec(static_cast<int>(state.range(0)));
  const std::size_t n = 1 << 16;
  Xoshiro256 rng(3);
  std::vector<double> in(n);
  fill_uniform(rng, in);
  std::vector<std::byte> wire(codec->max_compressed_bytes(n));
  for (auto _ : state) {
    const std::size_t used = codec->compress(in, wire);
    benchmark::DoNotOptimize(used);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
  state.SetLabel(codec->name());
}
BENCHMARK(BM_Compress)->DenseRange(0, 6);

void BM_Decompress(benchmark::State& state) {
  const auto codec = make_codec(static_cast<int>(state.range(0)));
  const std::size_t n = 1 << 16;
  Xoshiro256 rng(4);
  std::vector<double> in(n), out(n);
  fill_uniform(rng, in);
  std::vector<std::byte> wire(codec->max_compressed_bytes(n));
  const std::size_t used = codec->compress(in, wire);
  for (auto _ : state) {
    codec->decompress(std::span<const std::byte>(wire.data(), used), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
  state.SetLabel(codec->name());
}
BENCHMARK(BM_Decompress)->DenseRange(0, 6);

// Per-level rows for every dispatched kernel family: each codec runs once
// pinned to each kernel tier (0 = scalar, 1 = avx2, 2 = avx512). All
// levels produce bit-identical streams, so the deltas are pure kernel
// throughput. Arg 2 gives the element count as log2(n): 2^12 keeps in+out
// L1-resident (raw kernel speed), 2^16 streams from L2 (the delivered
// bandwidth a slot decode actually sees — memory-bound kernels like the
// fp32 cast converge toward the cache ceiling there), 2^20 streams from
// L3/DRAM (full exchange-sized payloads). The label carries
// "<codec> <level>" so recorded JSONs stay self-describing.
std::shared_ptr<Codec> make_dispatched_codec(int which) {
  switch (which) {
    case 0: return std::make_shared<CastFp32Codec>();
    case 1: return std::make_shared<BitTrimCodec>(20);  // 32-bit packed words
    case 2: return std::make_shared<BitTrimCodec>(40);  // 52-bit generic pack
    case 3: return std::make_shared<Zfpx1dCodec>(16);
    case 4: return std::make_shared<ZfpxAccuracyCodec>(1e-6);
    case 5: return std::make_shared<SzqCodec>(1e-6);
    case 6: return std::make_shared<BitTrimCodec>(19);  // 31-bit generic pack
    default: return std::make_shared<BitTrimCodec>(48);  // 60-bit wide pack
  }
}

void BM_CompressSimd(benchmark::State& state) {
  SimdLevel prev;
  if (!enter_simd_row(state, &prev)) return;
  const auto codec = make_dispatched_codec(static_cast<int>(state.range(0)));
  const std::size_t n = std::size_t{1} << state.range(2);
  Xoshiro256 rng(7);
  std::vector<double> in(n);
  fill_uniform(rng, in);
  std::vector<std::byte> wire(codec->max_compressed_bytes(n));
  for (auto _ : state) {
    const std::size_t used = codec->compress(in, wire);
    benchmark::DoNotOptimize(used);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
  state.SetLabel(codec->name() + " " + simd_level_name());
  set_simd_level(prev);
}
BENCHMARK(BM_CompressSimd)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2}, {12, 16, 20}});

void BM_DecompressSimd(benchmark::State& state) {
  SimdLevel prev;
  if (!enter_simd_row(state, &prev)) return;
  const auto codec = make_dispatched_codec(static_cast<int>(state.range(0)));
  const std::size_t n = std::size_t{1} << state.range(2);
  Xoshiro256 rng(8);
  std::vector<double> in(n), out(n);
  fill_uniform(rng, in);
  std::vector<std::byte> wire(codec->max_compressed_bytes(n));
  const std::size_t used = codec->compress(in, wire);
  for (auto _ : state) {
    codec->decompress(std::span<const std::byte>(wire.data(), used), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
  state.SetLabel(codec->name() + " " + simd_level_name());
  set_simd_level(prev);
}
BENCHMARK(BM_DecompressSimd)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2}, {12, 16, 20}});

// Sharded cast/trim kernels at 1/2/4 total workers (caller included). At
// one worker the ParallelCodec runs the plain serial kernel, so the
// worker sweep isolates the fan-out overhead/speedup on this machine;
// record to BENCH_kernels.json via --benchmark_out.
std::shared_ptr<Codec> make_shardable_codec(int which) {
  switch (which) {
    case 0: return std::make_shared<CastFp32Codec>();
    case 1: return std::make_shared<CastFp16Codec>(/*scaled=*/false);
    default: return std::make_shared<BitTrimCodec>(20);
  }
}

void BM_CompressParallel(benchmark::State& state) {
  const auto inner = make_shardable_codec(static_cast<int>(state.range(0)));
  const int total = static_cast<int>(state.range(1));
  WorkerPool pool(total - 1);
  const ParallelCodec codec(inner, &pool, total, /*min_shard_bytes=*/1);
  const std::size_t n = 1 << 18;
  Xoshiro256 rng(5);
  std::vector<double> in(n);
  fill_uniform(rng, in);
  std::vector<std::byte> wire(codec.max_compressed_bytes(n));
  for (auto _ : state) {
    const std::size_t used = codec.compress(in, wire);
    benchmark::DoNotOptimize(used);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
  state.SetLabel(inner->name() + " x" + std::to_string(total));
}
BENCHMARK(BM_CompressParallel)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 4}});

void BM_DecompressParallel(benchmark::State& state) {
  const auto inner = make_shardable_codec(static_cast<int>(state.range(0)));
  const int total = static_cast<int>(state.range(1));
  WorkerPool pool(total - 1);
  const ParallelCodec codec(inner, &pool, total, /*min_shard_bytes=*/1);
  const std::size_t n = 1 << 18;
  Xoshiro256 rng(6);
  std::vector<double> in(n), out(n);
  fill_uniform(rng, in);
  std::vector<std::byte> wire(codec.max_compressed_bytes(n));
  const std::size_t used = codec.compress(in, wire);
  for (auto _ : state) {
    codec.decompress(std::span<const std::byte>(wire.data(), used), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
  state.SetLabel(inner->name() + " x" + std::to_string(total));
}
BENCHMARK(BM_DecompressParallel)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 4}});

}  // namespace

// Custom main so recorded JSONs carry honest provenance. The stock
// "library_build_type" context field describes the distro-packaged
// libbenchmark (compiled without NDEBUG, so it always says "debug"); the
// build type that matters for kernel numbers is this binary's, injected
// here from CMAKE_BUILD_TYPE, alongside the detected dispatch level.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
#ifdef LOSSYFFT_BUILD_TYPE
  benchmark::AddCustomContext("lossyfft_build_type", LOSSYFFT_BUILD_TYPE);
#endif
  benchmark::AddCustomContext(
      "lossyfft_simd_detected",
      lossyfft::simd_level_name(lossyfft::detected_simd_level()));
  benchmark::AddCustomContext("lossyfft_simd_effective",
                              lossyfft::simd_level_name());
  benchmark::AddCustomContext("lossyfft_simd_requested",
                              lossyfft::simd_requested_name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
