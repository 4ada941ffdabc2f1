// Worker pool, ParallelCodec equivalence, and hot-path allocation tests.
//
// The contract under test everywhere: parallelism is an execution detail.
// Every parallel path (sharded codecs, pack/unpack fan-out, the OSC chunk
// pipeline) must produce output bitwise identical to its serial twin, at
// every worker count.

#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>
#include <set>
#include <tuple>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "compress/checksum.hpp"
#include "compress/lossless.hpp"
#include "compress/parallel_codec.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "dfft/decomp.hpp"
#include "dfft/fft3d.hpp"
#include "dfft/reshape.hpp"
#include "minimpi/runtime.hpp"

// ---------------------------------------------------------- alloc counter
// Thread-local allocation counter behind replaced global new/delete: the
// zero-allocation test counts only what the rank thread itself allocates.
namespace {
thread_local std::uint64_t t_news = 0;
}  // namespace

// GCC cannot see that these replacements pair new with malloc on purpose.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t sz) {
  ++t_news;
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace lossyfft {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

std::vector<double> uniform_data(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  fill_uniform(rng, v, -1.0, 1.0);
  return v;
}

// ----------------------------------------------------------- worker pool

TEST(WorkerPool, StartupAndShutdownAtEverySize) {
  for (const int w : {0, 1, 2, 5}) {
    WorkerPool pool(w);
    EXPECT_EQ(pool.workers(), w);
    EXPECT_EQ(pool.concurrency(), w + 1);
  }
}

TEST(WorkerPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor must run every queued task before joining.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(WorkerPool, ParallelForVisitsEveryIndexExactlyOnce) {
  WorkerPool pool(3);
  for (const std::size_t n : {0u, 1u, 7u, 1000u}) {
    for (const std::size_t g : {1u, 7u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, g, [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(lo % g, 0u);  // Boundaries sit on granularity multiples.
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    }
  }
}

TEST(WorkerPool, ShardBoundariesAreDeterministic) {
  WorkerPool pool(3);
  const auto shards_of = [&](std::size_t n, std::size_t g, int cap) {
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> shards;
    pool.parallel_for(n, g, [&](std::size_t lo, std::size_t hi) {
      const std::lock_guard<std::mutex> lock(mu);
      shards.emplace(lo, hi);
    }, cap);
    return shards;
  };
  for (const int cap : {0, 2, 4}) {
    const auto a = shards_of(999, 8, cap);
    const auto b = shards_of(999, 8, cap);
    EXPECT_EQ(a, b);
    if (cap > 0) {
      EXPECT_LE(a.size(), static_cast<std::size_t>(cap));
    }
  }
  // A serial pool shards identically to a parallel one (it just runs them
  // itself): boundaries are a pure function of (n, g, cap).
  WorkerPool serial(0);
  std::set<std::pair<std::size_t, std::size_t>> s;
  serial.parallel_for(999, 8, [&](std::size_t lo, std::size_t hi) {
    s.emplace(lo, hi);
  }, 4);
  EXPECT_EQ(s, shards_of(999, 8, 4));
}

TEST(WorkerPool, ParallelForRethrowsShardException) {
  WorkerPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) throw Error("shard failed");
                        }),
      Error);
  // The pool survives a failed loop.
  std::atomic<int> ran{0};
  pool.parallel_for(10, 1, [&](std::size_t lo, std::size_t hi) {
    ran.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(WorkerPool, SubmitFutureRethrows) {
  WorkerPool pool(1);
  auto f = pool.submit([] { throw Error("task failed"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(WorkerPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // One worker, and the task itself calls parallel_for: if the nested loop
  // queued shards and waited, the pool's only thread would wait on itself.
  WorkerPool pool(1);
  std::atomic<int> covered{0};
  auto f = pool.submit([&] {
    EXPECT_TRUE(WorkerPool::on_worker_thread());
    pool.parallel_for(64, 1, [&](std::size_t lo, std::size_t hi) {
      EXPECT_TRUE(WorkerPool::on_worker_thread());  // Shards stayed inline.
      covered.fetch_add(static_cast<int>(hi - lo));
    });
  });
  f.get();
  EXPECT_EQ(covered.load(), 64);
}

TEST(WorkerPool, EnvWorkersPolicy) {
  ::setenv("LOSSYFFT_WORKERS", "3", 1);
  EXPECT_EQ(WorkerPool::env_workers(), 3);
  ::setenv("LOSSYFFT_WORKERS", "0", 1);
  EXPECT_GE(WorkerPool::env_workers(), 1);  // Nonsense falls back.
  ::unsetenv("LOSSYFFT_WORKERS");
  EXPECT_GE(WorkerPool::env_workers(), 1);
}

TEST(WorkerPool, EffectiveShardsClampsByPayload) {
  // Explicit min_bytes so the LOSSYFFT_MIN_SHARD_BYTES default is moot.
  EXPECT_EQ(WorkerPool::effective_shards(4, 1024, 256), 4);
  EXPECT_EQ(WorkerPool::effective_shards(4, 512, 256), 2);   // Cap at 2.
  EXPECT_EQ(WorkerPool::effective_shards(4, 255, 256), 1);   // Serial.
  EXPECT_EQ(WorkerPool::effective_shards(4, 0, 256), 1);     // Empty.
  EXPECT_EQ(WorkerPool::effective_shards(1, 1 << 20, 256), 1);
  EXPECT_EQ(WorkerPool::effective_shards(8, 1, 0), 8);  // Floor disabled.
  // 0 resolves to the global pool's full concurrency before clamping.
  EXPECT_EQ(WorkerPool::effective_shards(0, std::size_t{1} << 40, 1),
            WorkerPool::global().concurrency());
}

// -------------------------------------------------- ParallelCodec bitwise

struct CodecCase {
  const char* label;
  CodecPtr codec;
  std::size_t granularity;  // Expected parallel_granularity().
};

std::vector<CodecCase> codec_cases() {
  return {
      {"identity", std::make_shared<IdentityCodec>(), 1},
      {"fp32", std::make_shared<CastFp32Codec>(), 1},
      {"bf16", std::make_shared<CastBf16Codec>(), 1},
      {"fp16-plain", std::make_shared<CastFp16Codec>(false), 1},
      {"fp16-scaled", std::make_shared<CastFp16Codec>(true), 0},
      {"bittrim20", std::make_shared<BitTrimCodec>(20), 8},
      {"bittrim9", std::make_shared<BitTrimCodec>(9), 8},
      {"zfpx20", std::make_shared<Zfpx1dCodec>(20), 4},
      {"szq", std::make_shared<SzqCodec>(1e-6), SzqCodec::kShardElems},
      {"rle", std::make_shared<ByteplaneRleCodec>(),
       ByteplaneRleCodec::kShardElems},
      {"checksum",
       std::make_shared<ChecksumCodec>(std::make_shared<CastFp32Codec>()), 0},
  };
}

class ParallelCodecSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelCodecSweep, BitwiseIdenticalToSerialAtEveryWorkerCount) {
  const auto [which, total_workers] = GetParam();
  const CodecCase c = codec_cases()[static_cast<std::size_t>(which)];
  SCOPED_TRACE(std::string(c.label) + " x" + std::to_string(total_workers));
  EXPECT_EQ(c.codec->parallel_granularity(), c.granularity);

  WorkerPool pool(total_workers - 1);
  // min_shard_bytes = 1 so even tiny inputs exercise the sharded path.
  ParallelCodec par(c.codec, &pool, total_workers, 1);

  for (const std::size_t n : {1u, 5u, 63u, 1024u, 4099u, 20000u}) {
    const auto in = uniform_data(n, 1000 + n);
    std::vector<std::byte> serial(c.codec->max_compressed_bytes(n));
    std::vector<std::byte> parallel(par.max_compressed_bytes(n));
    const std::size_t su = c.codec->compress(in, serial);
    const std::size_t pu = par.compress(in, parallel);
    ASSERT_EQ(pu, su) << n;
    ASSERT_EQ(std::memcmp(parallel.data(), serial.data(), su), 0) << n;

    std::vector<double> sout(n), pout(n);
    c.codec->decompress(std::span<const std::byte>(serial.data(), su), sout);
    par.decompress(std::span<const std::byte>(parallel.data(), pu), pout);
    ASSERT_EQ(std::memcmp(pout.data(), sout.data(), n * sizeof(double)), 0)
        << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesByWorkers, ParallelCodecSweep,
    ::testing::Combine(::testing::Range(0, 11),
                       ::testing::Values(1, 2, 4, 7)));

TEST(ParallelCodec, DelegatesIdentityTransparently) {
  const auto inner = std::make_shared<BitTrimCodec>(16);
  ParallelCodec par(inner);
  EXPECT_EQ(par.name(), inner->name());
  EXPECT_EQ(par.fixed_size(), inner->fixed_size());
  EXPECT_DOUBLE_EQ(par.nominal_rate(), inner->nominal_rate());
  EXPECT_EQ(par.lossless(), inner->lossless());
  EXPECT_EQ(par.parallel_granularity(), inner->parallel_granularity());
  EXPECT_EQ(par.max_compressed_bytes(12345),
            inner->max_compressed_bytes(12345));
  EXPECT_EQ(par.inner(), inner);
}

TEST(ParallelCodec, RejectsNullInnerAndNegativeShards) {
  EXPECT_THROW(ParallelCodec(nullptr), Error);
  EXPECT_THROW(ParallelCodec(std::make_shared<IdentityCodec>(), nullptr, -1),
               Error);
}

// ------------------------------------------------- reshape: zero-alloc

TEST(ReshapeHotPath, RawTwoSidedExecuteAllocatesNothingInSteadyState) {
  run_ranks(1, [](Comm& comm) {
    const std::array<int, 3> n = {16, 16, 16};
    const auto bricks = split_brick(n, proc_grid3(1));
    const auto pencils = split_pencil(n, 0, 1);
    Reshape<std::complex<double>> rs(comm, bricks, pencils, ReshapeOptions{});
    std::vector<std::complex<double>> in(
        static_cast<std::size_t>(rs.inbox().count()), {1.0, -1.0});
    std::vector<std::complex<double>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);  // Warm up internal buffers.
    const std::uint64_t before = t_news;
    rs.execute(in, out);
    rs.execute(in, out);
    EXPECT_EQ(t_news, before)
        << "Reshape::execute allocated on the raw steady-state path";
  });
}

// ----------------------------------- reshape/OSC: parallel == serial

void expect_parallel_matches_serial(ExchangeBackend backend, CodecPtr codec,
                                    int ranks) {
  run_ranks(ranks, [&](Comm& comm) {
    const std::array<int, 3> n = {24, 18, 12};
    const auto bricks = split_brick(n, proc_grid3(ranks));
    const auto pencils = split_pencil(n, 1, ranks);

    std::vector<std::complex<double>> in;
    {
      const auto box = bricks[static_cast<std::size_t>(comm.rank())];
      Xoshiro256 rng(7000 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<double> raw(2 * static_cast<std::size_t>(box.count()));
      fill_uniform(rng, raw, -1.0, 1.0);
      in.resize(raw.size() / 2);
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = {raw[2 * i], raw[2 * i + 1]};
      }
    }

    ReshapeOptions serial_o;
    serial_o.backend = backend;
    serial_o.codec = codec;
    serial_o.gpus_per_node = 2;
    serial_o.workers = 1;
    ReshapeOptions par_o = serial_o;
    par_o.workers = 3;

    Reshape<std::complex<double>> serial(comm, bricks, pencils, serial_o);
    Reshape<std::complex<double>> parallel(comm, bricks, pencils, par_o);
    std::vector<std::complex<double>> sout(
        static_cast<std::size_t>(serial.outbox().count()));
    std::vector<std::complex<double>> pout(sout.size());
    serial.execute(in, sout);
    parallel.execute(in, pout);
    ASSERT_EQ(std::memcmp(pout.data(), sout.data(),
                          sout.size() * sizeof(sout[0])),
              0)
        << "rank " << comm.rank();
    EXPECT_EQ(parallel.stats().wire_bytes, serial.stats().wire_bytes);
  });
}

TEST(ReshapeParallel, OscBitTrimMatchesSerial) {
  expect_parallel_matches_serial(ExchangeBackend::kOsc,
                                 std::make_shared<BitTrimCodec>(20), 4);
}

TEST(ReshapeParallel, OscUncompressedMatchesSerial) {
  expect_parallel_matches_serial(ExchangeBackend::kOsc, nullptr, 4);
}

TEST(ReshapeParallel, TwoSidedFp32MatchesSerial) {
  expect_parallel_matches_serial(ExchangeBackend::kPairwise,
                                 std::make_shared<CastFp32Codec>(), 4);
}

TEST(ReshapeParallel, TwoSidedVariableRateMatchesSerial) {
  // szq cannot shard inside a message, but per-destination fan-out still
  // applies — and must still match the serial wire exactly.
  expect_parallel_matches_serial(ExchangeBackend::kPairwise,
                                 std::make_shared<SzqCodec>(1e-9), 4);
}

TEST(ReshapeParallel, RawPackUnpackFanOutMatchesSerial) {
  expect_parallel_matches_serial(ExchangeBackend::kPairwise, nullptr, 4);
}

// ------------------------------------------------- fft3d: zero-alloc

TEST(Fft3dHotPath, ForwardBackwardAllocateNothingInSteadyState) {
  // 64^3 runs the power-of-two Stockham path; 17x12x11 runs Bluestein (17,
  // 11) and the mixed-radix DIT (12). The plans' workspaces are sized at
  // construction, so after one warm roundtrip nothing allocates.
  for (const std::array<int, 3> n :
       {std::array<int, 3>{64, 64, 64}, std::array<int, 3>{17, 12, 11}}) {
    run_ranks(1, [&](Comm& comm) {
      Fft3d<double> fft(comm, n);
      const std::vector<double> raw = uniform_data(2 * fft.local_count(), 9);
      std::vector<std::complex<double>> in(fft.local_count());
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = {raw[2 * i], raw[2 * i + 1]};
      }
      std::vector<std::complex<double>> spec(fft.output_count());
      std::vector<std::complex<double>> back(fft.local_count());
      fft.forward(in, spec);
      fft.backward(spec, back);
      const std::uint64_t before = t_news;
      fft.forward(in, spec);
      fft.backward(spec, back);
      EXPECT_EQ(t_news, before)
          << n[0] << "x" << n[1] << "x" << n[2]
          << ": Fft3d forward+backward allocated in steady state";
    });
  }
}

// ----------------------------------- FFT stages: parallel == serial

TEST(Fft3dParallel, FftWorkersBitwiseIdenticalToSerial) {
  // 32^3 on one rank keeps each stage's payload (512 KiB) above the
  // 256 KiB bytes-per-shard floor, so fft_workers = 3 really fans out
  // (to 2 shards) instead of degrading to serial. Every SIMD level the
  // host runs (the FFT lane width) crossed with fft_workers {1, 3} must
  // reproduce the scalar serial transform bit for bit.
  run_ranks(1, [](Comm& comm) {
    const std::array<int, 3> n = {32, 32, 32};
    const auto transform = [&](SimdLevel level, int workers,
                               const std::vector<std::complex<double>>& in,
                               std::vector<std::complex<double>>& fwd,
                               std::vector<std::complex<double>>& bwd) {
      const SimdLevel prev = set_simd_level(level);
      Fft3dOptions o;
      o.fft_workers = workers;
      Fft3d<double> fft(comm, n, o);
      fwd.resize(fft.output_count());
      bwd.resize(fft.local_count());
      fft.forward(in, fwd);
      fft.backward(fwd, bwd);
      set_simd_level(prev);
    };

    const std::size_t count =
        static_cast<std::size_t>(n[0]) * static_cast<std::size_t>(n[1]) *
        static_cast<std::size_t>(n[2]);
    std::vector<std::complex<double>> in(count);
    Xoshiro256 rng(321);
    std::vector<double> raw(2 * count);
    fill_uniform(rng, raw, -1.0, 1.0);
    for (std::size_t i = 0; i < count; ++i) {
      in[i] = {raw[2 * i], raw[2 * i + 1]};
    }

    std::vector<std::complex<double>> sfwd, sbwd;
    transform(SimdLevel::kScalar, 1, in, sfwd, sbwd);
    for (int l = 0; l <= static_cast<int>(detected_simd_level()); ++l) {
      for (const int workers : {1, 3}) {
        const auto level = static_cast<SimdLevel>(l);
        std::vector<std::complex<double>> pfwd, pbwd;
        transform(level, workers, in, pfwd, pbwd);
        ASSERT_EQ(std::memcmp(pfwd.data(), sfwd.data(),
                              count * sizeof(std::complex<double>)),
                  0)
            << simd_level_name(level) << " x" << workers;
        ASSERT_EQ(std::memcmp(pbwd.data(), sbwd.data(),
                              count * sizeof(std::complex<double>)),
                  0)
            << simd_level_name(level) << " x" << workers;
      }
    }
  });
}

}  // namespace
}  // namespace lossyfft
