// The model-guided autotuner (src/tuner/): decision quality against the
// exhaustive argmin, persistent-cache round trips, stale-cache rejection,
// kAuto result identity, and the kAuto steady-state counter guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/rng.hpp"
#include "compress/lossless.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "dfft/decomp.hpp"
#include "dfft/fft3d.hpp"
#include "dfft/reshape.hpp"
#include "minimpi/runtime.hpp"
#include "tuner/tuner.hpp"

// ---- Heap-allocation counter (same shim as exchange_plan_test) -------------
namespace {
thread_local bool t_count_allocs = false;
thread_local std::uint64_t t_allocs = 0;
}  // namespace

#define LFFT_TEST_ALLOC __attribute__((noinline))
LFFT_TEST_ALLOC void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
LFFT_TEST_ALLOC void* operator new[](std::size_t n) {
  return ::operator new(n);
}
LFFT_TEST_ALLOC void operator delete(void* p) noexcept { std::free(p); }
LFFT_TEST_ALLOC void operator delete[](void* p) noexcept { std::free(p); }
LFFT_TEST_ALLOC void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
LFFT_TEST_ALLOC void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lossyfft::tuner {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

std::vector<std::pair<std::string, CodecPtr>> sweep_codecs() {
  return {
      {"raw", nullptr},
      {"fp32", std::make_shared<CastFp32Codec>()},
      {"szq", std::make_shared<SzqCodec>(1e-6)},
      {"rle", std::make_shared<ByteplaneRleCodec>()},
  };
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The signature Reshape builds for its tuner query: largest off-diagonal
// send payload of rank 0 under the given decomposition.
std::uint64_t reshape_pair_bytes(const std::vector<Box3>& all_in,
                                 const std::vector<Box3>& all_out) {
  std::uint64_t largest = 0;
  for (std::size_t r = 1; r < all_out.size(); ++r) {
    const auto c = Box3::intersect(all_in[0], all_out[r]).count();
    largest = std::max(largest, static_cast<std::uint64_t>(c));
  }
  return largest * sizeof(double);
}

// --- Decision quality: bucketed pick within 10% of the exhaustive best ------

TEST(TunerModel, PickWithinTenPercentOfExhaustiveBest) {
  const CostConstants k;  // Summit defaults: deterministic.
  TunerOptions to;
  to.constants = k;
  Tuner tuner(std::move(to));
  const auto codecs = sweep_codecs();
  for (const int p : {2, 4, 8, 16}) {
    for (const int gpn : {1, 2, 6}) {
      if (gpn > p) continue;
      for (const std::uint64_t kib : {4ull, 32ull, 256ull, 2048ull}) {
        for (const auto& [label, codec] : codecs) {
          ExchangeSignature sig;
          sig.p = p;
          sig.gpn = gpn;
          sig.pair_bytes = kib * 1024;
          sig.codec = codec;
          const TuneDecision d = tuner.decide(sig);
          const double picked =
              evaluate(sig, TuneCandidate{d.path, d.workers, d.parity}, k);
          double best = -1.0;
          for (const TuneCandidate& c : candidate_space(sig, k)) {
            const double cost = evaluate(sig, c, k);
            if (best < 0.0 || cost < best) best = cost;
          }
          EXPECT_LE(picked, best * 1.10 + 1e-12)
              << "p=" << p << " gpn=" << gpn << " KiB=" << kib
              << " codec=" << label << " picked=" << to_string(d.path)
              << " w=" << d.workers;
        }
      }
    }
  }
}

// --- Straggler model: the parity axis and the coded/uncoded pick -----------

namespace {

// Summit defaults with a probabilistic straggler source attached: each
// inbound flow stalls `seconds` late with probability `prob`.
CostConstants straggler_constants(double prob, double seconds) {
  CostConstants k;
  k.net.straggler_prob = prob;
  k.net.straggler_seconds = seconds;
  return k;
}

}  // namespace

TEST(TunerStraggler, ParityAxisRequiresAStragglerModel) {
  ExchangeSignature sig;
  sig.p = 8;
  sig.gpn = 2;
  sig.pair_bytes = 256 * 1024;
  sig.codec = std::make_shared<CastFp32Codec>();

  // Without a straggler source parity is pure overhead, so the grid never
  // prices it and every decision is uncoded by construction.
  const CostConstants plain;
  for (const TuneCandidate& c : candidate_space(sig, plain)) {
    EXPECT_EQ(c.parity, 0) << to_string(c.path) << " w=" << c.workers;
  }
  EXPECT_EQ(decide(sig, plain).parity, 0);

  // With one, every path is crossed with m in {0, 1, 2}.
  const CostConstants k = straggler_constants(0.05, 200e-6);
  bool saw_m1 = false, saw_m2 = false;
  for (const TuneCandidate& c : candidate_space(sig, k)) {
    EXPECT_GE(c.parity, 0);
    EXPECT_LE(c.parity, 2);
    saw_m1 |= c.parity == 1;
    saw_m2 |= c.parity == 2;
  }
  EXPECT_TRUE(saw_m1);
  EXPECT_TRUE(saw_m2);

  // A per-rank injected delay is an equally valid straggler source.
  CostConstants kd;
  kd.net.rank_delay_seconds.assign(static_cast<std::size_t>(sig.p), 0.0);
  kd.net.rank_delay_seconds[3] = 1e-3;
  bool delayed_m = false;
  for (const TuneCandidate& c : candidate_space(sig, kd)) {
    delayed_m |= c.parity > 0;
  }
  EXPECT_TRUE(delayed_m);
}

TEST(TunerStraggler, DecisionMatchesExhaustiveArgminOverTheCodedGrid) {
  const CostConstants k = straggler_constants(0.08, 150e-6);
  const auto codecs = sweep_codecs();
  for (const int p : {4, 8, 16}) {
    for (const std::uint64_t kib : {16ull, 256ull, 2048ull}) {
      for (const auto& [label, codec] : codecs) {
        ExchangeSignature sig;
        sig.p = p;
        sig.gpn = 2;
        sig.pair_bytes = kib * 1024;
        sig.codec = codec;
        const TuneDecision d = decide(sig, k);
        double best = -1.0;
        TuneCandidate arg;
        for (const TuneCandidate& c : candidate_space(sig, k)) {
          const double cost = evaluate(sig, c, k);
          if (best < 0.0 || cost < best) {
            best = cost;
            arg = c;
          }
        }
        EXPECT_EQ(static_cast<int>(d.path), static_cast<int>(arg.path))
            << "p=" << p << " KiB=" << kib << " codec=" << label;
        EXPECT_EQ(d.workers, arg.workers)
            << "p=" << p << " KiB=" << kib << " codec=" << label;
        EXPECT_EQ(d.parity, arg.parity)
            << "p=" << p << " KiB=" << kib << " codec=" << label;
        EXPECT_DOUBLE_EQ(d.modeled_seconds, best);
      }
    }
  }
}

TEST(TunerStraggler, HeavyStallsFavorCodedAndCleanNetworksDoNot) {
  ExchangeSignature sig;
  sig.p = 16;
  sig.gpn = 2;
  sig.pair_bytes = 64 * 1024;
  sig.codec = std::make_shared<CastFp32Codec>();

  // Frequent millisecond stalls dwarf the parity wire/encode overhead of a
  // 64 KiB message: absorbing even one straggler per round must win.
  const CostConstants heavy = straggler_constants(0.25, 2e-3);
  const TuneDecision coded = decide(sig, heavy);
  EXPECT_GT(coded.parity, 0) << to_string(coded.path);

  // The same signature priced with a vanishing stall keeps the parity
  // axis open but the argmin lands back on the uncoded plan.
  const CostConstants light = straggler_constants(1e-4, 1e-6);
  EXPECT_EQ(decide(sig, light).parity, 0);

  // Sanity on the model itself: with the heavy constants, the winning
  // coded candidate really does price below its uncoded twin.
  const double coded_cost =
      evaluate(sig, {coded.path, coded.workers, coded.parity}, heavy);
  const double uncoded_cost =
      evaluate(sig, {coded.path, coded.workers, 0}, heavy);
  EXPECT_LT(coded_cost, uncoded_cost);
}

// --- Persistent cache: write -> reload -> identical, probe-free ------------

TEST(TunerCache, RoundTripReloadsIdenticalDecisionsWithoutProbing) {
  const std::string path = ::testing::TempDir() + "lossyfft_tune_rt.txt";
  std::remove(path.c_str());
  const auto codecs = sweep_codecs();
  std::vector<ExchangeSignature> sigs;
  for (const int p : {4, 8}) {
    for (const std::uint64_t kib : {16ull, 512ull}) {
      for (const auto& [label, codec] : codecs) {
        ExchangeSignature sig;
        sig.p = p;
        sig.gpn = 2;
        sig.pair_bytes = kib * 1024;
        sig.codec = codec;
        sigs.push_back(sig);
      }
    }
  }

  std::vector<TuneDecision> first;
  {
    TunerOptions to;
    to.cache_path = path;
    to.constants = CostConstants{};  // No probing in the writer either.
    Tuner writer(std::move(to));
    for (const auto& sig : sigs) first.push_back(writer.decide(sig));
  }
  const std::string written = read_file(path);
  ASSERT_FALSE(written.empty());
  const std::string header = std::string("lossyfft-tune-cache ") +
                             std::to_string(Tuner::kCacheVersion) + " " +
                             lossyfft::simd_level_name() + "\n";
  EXPECT_EQ(written.rfind(header, 0), 0u);

  // A fresh tuner with NO injected constants: on any cache miss it would
  // have to calibrate, and a hit must not rewrite the file — so decisions
  // matching bit-for-bit plus an untouched file proves every query was
  // served from the reloaded cache.
  TunerOptions ro;
  ro.cache_path = path;
  Tuner reader(std::move(ro));
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    const TuneDecision d = reader.decide(sigs[i]);
    EXPECT_EQ(static_cast<int>(d.path), static_cast<int>(first[i].path)) << i;
    EXPECT_EQ(d.workers, first[i].workers) << i;
    EXPECT_EQ(d.parity, first[i].parity) << i;
    EXPECT_EQ(d.rendezvous_threshold, first[i].rendezvous_threshold) << i;
    EXPECT_EQ(d.modeled_seconds, first[i].modeled_seconds) << i;
  }
  EXPECT_EQ(read_file(path), written);

  // Size-class bucketing: every payload in a bucket maps to the bucket
  // representative's decision, so nearby sizes reuse cache rows.
  ExchangeSignature a = sigs[0], b = sigs[0];
  a.pair_bytes = 5000;
  b.pair_bytes = 8000;  // Same bucket [4096, 8192).
  const TuneDecision da = reader.decide(a);
  const TuneDecision db = reader.decide(b);
  EXPECT_EQ(static_cast<int>(da.path), static_cast<int>(db.path));
  EXPECT_EQ(da.workers, db.workers);
  EXPECT_EQ(da.modeled_seconds, db.modeled_seconds);
}

TEST(TunerCache, CodedDecisionsSurviveTheRoundTrip) {
  // A straggler model strong enough that some decisions carry parity > 0;
  // the cache row must persist that column and a cold reader must serve
  // it back without re-deciding.
  const std::string path = ::testing::TempDir() + "lossyfft_tune_coded.txt";
  std::remove(path.c_str());
  CostConstants k;
  k.net.straggler_prob = 0.25;
  k.net.straggler_seconds = 2e-3;

  std::vector<ExchangeSignature> sigs;
  for (const std::uint64_t kib : {16ull, 64ull, 1024ull}) {
    ExchangeSignature sig;
    sig.p = 16;
    sig.gpn = 2;
    sig.pair_bytes = kib * 1024;
    sig.codec = std::make_shared<CastFp32Codec>();
    sigs.push_back(sig);
  }

  std::vector<TuneDecision> first;
  {
    TunerOptions to;
    to.cache_path = path;
    to.constants = k;
    Tuner writer(std::move(to));
    for (const auto& sig : sigs) first.push_back(writer.decide(sig));
  }
  bool any_coded = false;
  for (const auto& d : first) any_coded |= d.parity > 0;
  ASSERT_TRUE(any_coded) << "straggler constants too weak to exercise parity";

  // The reader gets NO constants: a cache miss would force a calibration
  // with a clean network model and could never reproduce parity > 0.
  TunerOptions ro;
  ro.cache_path = path;
  Tuner reader(std::move(ro));
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    const TuneDecision d = reader.decide(sigs[i]);
    EXPECT_EQ(static_cast<int>(d.path), static_cast<int>(first[i].path)) << i;
    EXPECT_EQ(d.workers, first[i].workers) << i;
    EXPECT_EQ(d.parity, first[i].parity) << i;
    EXPECT_EQ(d.modeled_seconds, first[i].modeled_seconds) << i;
  }
}

TEST(TunerCache, StaleVersionFileIsIgnoredWholesale) {
  const std::string path = ::testing::TempDir() + "lossyfft_tune_stale.txt";
  ExchangeSignature sig;  // Raw signature: cache key "8 2 <sc> raw 0".
  sig.p = 8;
  sig.gpn = 2;
  sig.pair_bytes = 64 * 1024;
  sig.codec = nullptr;

  // The reference decision from a clean tuner.
  TunerOptions co;
  co.constants = CostConstants{};
  Tuner clean(std::move(co));
  const TuneDecision want = clean.decide(sig);

  // A stale-version file carrying a poisoned row under this signature's
  // exact key: workers = 77, which decide() can never produce for a raw
  // exchange. If the version gate leaked, this row would be returned
  // verbatim.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "lossyfft-tune-cache 99\n";
    out << sig.p << " " << sig.gpn << " " << size_class(sig.pair_bytes)
        << " raw 0 " << static_cast<int>(TunePath::kTwoSidedFused)
        << " 77 4096 1e-9\n";
  }
  TunerOptions so;
  so.cache_path = path;
  so.constants = CostConstants{};
  Tuner stale(std::move(so));
  const TuneDecision got = stale.decide(sig);
  EXPECT_EQ(static_cast<int>(got.path), static_cast<int>(want.path));
  EXPECT_EQ(got.workers, want.workers);
  EXPECT_NE(got.workers, 77);
  // The recomputed decision replaces the stale file, current version first.
  const std::string header = std::string("lossyfft-tune-cache ") +
                             std::to_string(Tuner::kCacheVersion) + " " +
                             lossyfft::simd_level_name() + "\n";
  EXPECT_EQ(read_file(path).rfind(header, 0), 0u);
}

// Regression for the clobbering bug: concurrent tuner instances sharing
// one cache path used to truncate-and-rewrite the file from their own
// memo only, so the last store won and every other instance's rows
// vanished — and a reader racing the rewrite could observe a torn table.
// The fix (advisory flock + merge-on-store + temp-file/atomic-rename)
// must keep EVERY writer's rows and never publish a partial image.
TEST(TunerCache, ConcurrentTunersNeitherClobberNorTearTheCache) {
  const std::string path = ::testing::TempDir() + "lossyfft_tune_mt.txt";
  std::remove(path.c_str());
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;

  // Thread t owns the disjoint signatures with p = 4 + 2t (two size
  // classes each), plus one signature every thread shares. Deterministic
  // injected constants make all decisions pure functions of the
  // signature, so the shared row is identical no matter who stores last.
  const auto sig_for = [](int p, std::uint64_t pair_bytes) {
    ExchangeSignature sig;
    sig.p = p;
    sig.gpn = 2;
    sig.pair_bytes = pair_bytes;
    sig.codec = nullptr;
    return sig;
  };
  std::vector<std::vector<std::pair<ExchangeSignature, TuneDecision>>> made(
      kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // A fresh Tuner per round forces repeated load -> decide -> store
      // cycles racing the other threads on the one file.
      for (int round = 0; round < kRounds; ++round) {
        TunerOptions to;
        to.cache_path = path;
        to.constants = CostConstants{};
        Tuner tuner(std::move(to));
        for (const std::uint64_t kib : {16ull, 512ull}) {
          const ExchangeSignature own = sig_for(4 + 2 * t, kib * 1024);
          const TuneDecision d = tuner.decide(own);
          if (round == 0) made[std::size_t(t)].emplace_back(own, d);
        }
        (void)tuner.decide(sig_for(64, 256 * 1024));  // The contended row.
      }
    });
  }
  for (auto& th : threads) th.join();

  // The surviving file: current header, and one complete 10-field row per
  // distinct key — 2 per thread plus the shared one. A torn or truncated
  // row would change the line shape; a clobbered store would drop rows.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("lossyfft-tune-cache ", 0), 0u);
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tok;
    std::size_t n = 0;
    while (fields >> tok) ++n;
    EXPECT_EQ(n, 10u) << "torn cache row: '" << line << "'";
    ++rows;
  }
  EXPECT_EQ(rows, std::size_t(2 * kThreads + 1));

  // And a cold constants-free reader serves every thread's decisions
  // verbatim (a lost row would force a calibration whose modeled cost
  // could never match bit-for-bit).
  TunerOptions ro;
  ro.cache_path = path;
  Tuner reader(std::move(ro));
  for (const auto& thread_rows : made) {
    for (const auto& [sig, want] : thread_rows) {
      const TuneDecision got = reader.decide(sig);
      EXPECT_EQ(static_cast<int>(got.path), static_cast<int>(want.path));
      EXPECT_EQ(got.workers, want.workers);
      EXPECT_EQ(got.parity, want.parity);
      EXPECT_EQ(got.modeled_seconds, want.modeled_seconds);
    }
  }
}

// --- kAuto integration ------------------------------------------------------

// Seed the process-wide tuner's cache with a pinned decision for the
// reshape signature the steady-state test constructs, before anything
// touches Tuner::global(). This is the warm-cache production scenario:
// plan construction must run zero probes and apply the cached row.
const std::string& global_cache_path() {
  static const std::string path =
      ::testing::TempDir() + "lossyfft_tune_global.txt";
  static std::once_flag once;
  std::call_once(once, [] {
    const std::array<int, 3> n{12, 10, 8};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 1, 4);
    const auto pair = reshape_pair_bytes(bricks, pencils);
    // fp32's rate bucket: lround(log2(nominal_rate) * 4), as keyed by the
    // tuner (quarter-octave buckets).
    const CastFp32Codec fp32;
    const long rb = std::lround(std::log2(fp32.nominal_rate()) * 4.0);
    std::ofstream out(path, std::ios::trunc);
    out << "lossyfft-tune-cache " << Tuner::kCacheVersion << " "
        << lossyfft::simd_level_name() << "\n";
    // Pin: one-sided fence, serial workers, uncoded (the config whose
    // steady-state budgets the counter asserts below encode). Row layout:
    // p gpn sc cls rb path workers parity rendezvous seconds.
    out << "4 6 " << size_class(pair) << " " << fp32.name() << " " << rb
        << " " << static_cast<int>(TunePath::kOneSidedFence)
        << " 1 0 4096 1e-3\n";
    ::setenv("LOSSYFFT_TUNE_CACHE", path.c_str(), 1);
  });
  return path;
}

TEST(TunerAuto, SteadyStateExecuteIsCollectiveAndAllocationFree) {
  global_cache_path();
  run_ranks(4, [](Comm& comm) {
    // Bricks to y-pencils: the {1, 2, 2} brick grid equals the x-pencil
    // grid, so brick -> x-pencil would be self-only and build no plan.
    const std::array<int, 3> n{12, 10, 8};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 1, 4);
    ReshapeOptions ro;
    ro.backend = ExchangeBackend::kOsc;
    ro.codec = std::make_shared<CastFp32Codec>();
    ro.osc_sync = osc::OscSync::kAuto;
    Reshape<double> shape(comm, bricks, pencils, ro);
    // The pinned cache row resolved the plan: fence, one-sided, serial.
    ASSERT_TRUE(shape.tuned_decision().has_value());
    EXPECT_EQ(static_cast<int>(shape.tuned_decision()->path),
              static_cast<int>(TunePath::kOneSidedFence));
    EXPECT_EQ(shape.tuned_decision()->workers, 1);
    std::vector<double> in(static_cast<std::size_t>(shape.inbox().count())),
        out(static_cast<std::size_t>(shape.outbox().count()));
    Xoshiro256 rng(29 + static_cast<std::uint64_t>(comm.rank()));
    fill_uniform(rng, in);
    shape.execute(std::span<const double>(in), std::span<double>(out));
    comm.barrier();
    const std::uint64_t w0 = comm.state().window_begin_count();
    const std::uint64_t m0 = comm.state().message_post_count();
    t_allocs = 0;
    t_count_allocs = true;
    for (int it = 0; it < 3; ++it) {
      shape.execute(std::span<const double>(in), std::span<double>(out));
    }
    t_count_allocs = false;
    comm.barrier();
    // Steady state on the autotuned path: no window churn, no messages
    // (fenced epochs are barrier-only), no heap allocation.
    EXPECT_EQ(comm.state().window_begin_count(), w0);
    EXPECT_EQ(comm.state().message_post_count(), m0);
    EXPECT_EQ(t_allocs, 0u);
  });
}

TEST(TunerAuto, ReshapeMatchesFixedConfigForEveryCodecClass) {
  global_cache_path();
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{10, 9, 8};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 1, 4);
    std::vector<CodecPtr> codecs;
    codecs.push_back(nullptr);
    codecs.push_back(std::make_shared<CastFp32Codec>());
    codecs.push_back(std::make_shared<BitTrimCodec>(20));
    codecs.push_back(std::make_shared<SzqCodec>(1e-6));
    codecs.push_back(std::make_shared<ByteplaneRleCodec>());
    for (const CodecPtr& codec : codecs) {
      ReshapeOptions fixed;
      fixed.backend = ExchangeBackend::kOsc;
      fixed.codec = codec;
      ReshapeOptions tuned = fixed;
      tuned.osc_sync = osc::OscSync::kAuto;
      Reshape<double> f(comm, bricks, pencils, fixed);
      Reshape<double> t(comm, bricks, pencils, tuned);
      const auto in_n = static_cast<std::size_t>(f.inbox().count());
      const auto out_n = static_cast<std::size_t>(f.outbox().count());
      std::vector<double> in(in_n), fo(out_n, -1.0), to(out_n, -2.0);
      Xoshiro256 rng(31 + static_cast<std::uint64_t>(comm.rank()));
      fill_uniform(rng, in);
      for (int it = 0; it < 2; ++it) {
        f.execute(std::span<const double>(in), std::span<double>(fo));
        t.execute(std::span<const double>(in), std::span<double>(to));
        for (std::size_t i = 0; i < out_n; ++i) {
          EXPECT_EQ(to[i], fo[i]) << "codec=" << (codec ? codec->name() : "raw")
                                  << " it=" << it << " i=" << i;
        }
      }
    }
  });
}

TEST(TunerAuto, Fft3dAutotuneRoundTrips) {
  global_cache_path();
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 6, 6};
    Fft3dOptions fo;
    fo.backend = ExchangeBackend::kOsc;
    fo.osc_sync = osc::OscSync::kAuto;
    Fft3d<double> fft(comm, n, /*e_tol=*/1e-6, fo);
    const auto count = fft.local_count();
    std::vector<std::complex<double>> u(count), spec(count), back(count);
    Xoshiro256 rng(37 + static_cast<std::uint64_t>(comm.rank()));
    for (auto& c : u) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    fft.forward(u, spec);
    fft.backward(spec, back);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_NEAR(back[i].real(), u[i].real(), 1e-4) << i;
      EXPECT_NEAR(back[i].imag(), u[i].imag(), 1e-4) << i;
    }
  });
}

// --- Decomposition decisions: exhaustive pick, cache rows, memoization ------

TEST(TunerDecomp, PickMatchesExhaustiveBestOverCandidateSpace) {
  const CostConstants k;  // Summit defaults: deterministic.
  TunerOptions to;
  to.constants = k;
  Tuner tuner(std::move(to));
  const auto codecs = sweep_codecs();
  const std::array<std::array<int, 3>, 3> grids = {
      std::array<int, 3>{32, 32, 32}, std::array<int, 3>{64, 32, 16},
      std::array<int, 3>{16, 48, 64}};
  for (const int p : {4, 8, 12, 16}) {
    for (const int gpn : {1, 2}) {
      for (const auto& n : grids) {
        for (const auto& [label, codec] : codecs) {
          DecompSignature sig;
          sig.n = n;
          sig.p = p;
          sig.gpn = gpn;
          sig.codec = codec;
          const DecompDecision d = tuner.decide_decomp(sig);
          const double picked =
              evaluate_decomp(sig, DecompCandidate{d.algorithm, d.grid}, k)
                  .seconds;
          double best = -1.0;
          for (const DecompCandidate& c : decomp_candidate_space(sig)) {
            const double cost = evaluate_decomp(sig, c, k).seconds;
            if (best < 0.0 || cost < best) best = cost;
          }
          ASSERT_GT(best, 0.0);
          EXPECT_LE(picked, best * 1.10 + 1e-12)
              << "p=" << p << " gpn=" << gpn << " n=" << n[0] << "x" << n[1]
              << "x" << n[2] << " codec=" << label << " picked "
              << to_string(d.algorithm) << " " << d.grid[0] << "x"
              << d.grid[1];
          EXPECT_NEAR(d.modeled_seconds, picked, picked * 1e-9);
        }
      }
    }
  }
}

TEST(TunerDecompCache, DecompRowsRoundTripAlongsideExchangeRows) {
  const std::string path = ::testing::TempDir() + "lossyfft_tune_decomp.txt";
  std::remove(path.c_str());
  const auto codecs = sweep_codecs();
  std::vector<DecompSignature> sigs;
  for (const int p : {4, 8}) {
    for (const auto& n :
         {std::array<int, 3>{32, 32, 32}, std::array<int, 3>{16, 48, 64}}) {
      for (const auto& [label, codec] : codecs) {
        DecompSignature sig;
        sig.n = n;
        sig.p = p;
        sig.gpn = 2;
        sig.codec = codec;
        sigs.push_back(sig);
      }
    }
  }

  std::vector<DecompDecision> first;
  {
    TunerOptions to;
    to.cache_path = path;
    to.constants = CostConstants{};
    Tuner writer(std::move(to));
    // Mix in an exchange decision so both row kinds share one file.
    ExchangeSignature xsig;
    xsig.p = 8;
    xsig.gpn = 2;
    xsig.pair_bytes = 64 * 1024;
    writer.decide(xsig);
    for (const auto& sig : sigs) first.push_back(writer.decide_decomp(sig));
  }
  const std::string written = read_file(path);
  ASSERT_FALSE(written.empty());
  EXPECT_NE(written.find("\nd "), std::string::npos)
      << "no tagged decomposition rows in cache";

  // A fresh tuner with no injected constants: decisions matching
  // bit-for-bit plus an untouched file proves the decomp rows were served
  // from the reloaded cache (a miss would re-price and rewrite).
  TunerOptions ro;
  ro.cache_path = path;
  Tuner reader(std::move(ro));
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    const DecompDecision d = reader.decide_decomp(sigs[i]);
    EXPECT_EQ(static_cast<int>(d.algorithm),
              static_cast<int>(first[i].algorithm))
        << i;
    EXPECT_EQ(d.grid[0], first[i].grid[0]) << i;
    EXPECT_EQ(d.grid[1], first[i].grid[1]) << i;
    EXPECT_EQ(d.modeled_seconds, first[i].modeled_seconds) << i;
  }
  EXPECT_EQ(read_file(path), written);
}

TEST(TunerDecomp, SlabWinsWhenItMovesFewerModeledBytes) {
  // Sanity on the axis itself: both algorithms are genuinely priced, and
  // candidates carry distinct costs (slab's three reshapes vs pencil's
  // four). Whichever wins, the decision must carry its candidate's cost.
  const CostConstants k;
  DecompSignature sig;
  sig.n = {32, 32, 32};
  sig.p = 8;
  sig.gpn = 2;
  const auto cands = decomp_candidate_space(sig);
  bool saw_slab = false, saw_pencil = false;
  for (const auto& c : cands) {
    if (c.algorithm == DecompAlgorithm::kSlab) saw_slab = true;
    if (c.algorithm == DecompAlgorithm::kPencil) saw_pencil = true;
    const DecompCost cost = evaluate_decomp(sig, c, k);
    EXPECT_GT(cost.seconds, 0.0);
    EXPECT_EQ(cost.reshapes.size(),
              c.algorithm == DecompAlgorithm::kSlab ? 3u : 4u);
  }
  EXPECT_TRUE(saw_slab);
  EXPECT_TRUE(saw_pencil);
  // Pack elision can only help: pricing with elision disabled is never
  // cheaper for any candidate.
  for (const auto& c : cands) {
    const double with = evaluate_decomp(sig, c, k, true).seconds;
    const double without = evaluate_decomp(sig, c, k, false).seconds;
    EXPECT_LE(with, without + 1e-15);
  }
}

TEST(TunerDecomp, SelfBlocksPayOneCopyAndNoWire) {
  // 64^3 on 4 ranks, pencil grid {2, 2}: the {1, 2, 2} bricks equal the
  // x-pencils, so brick -> x-pencil is self-only (one copy, no codec, no
  // network or sync term); x -> y-pencil keeps half of each pencil and
  // sends the other half, and only that half pays the codec.
  const CostConstants k;
  DecompSignature sig;
  sig.n = {64, 64, 64};
  sig.p = 4;
  sig.gpn = 6;
  sig.codec = std::make_shared<BitTrimCodec>(20);
  const DecompCost cost = evaluate_decomp(
      sig, DecompCandidate{DecompAlgorithm::kPencil, {2, 2}}, k);
  ASSERT_EQ(cost.reshapes.size(), 4u);
  const double field = 64.0 * 64 * 64 / 4 * 16;  // Bytes per rank.
  const ReshapeCost& self_only = cost.reshapes[0];
  EXPECT_EQ(self_only.net_seconds, 0.0);
  EXPECT_EQ(self_only.codec_seconds, 0.0);
  EXPECT_EQ(self_only.wire_bytes, 0u);
  EXPECT_EQ(self_only.messages, 0u);
  EXPECT_DOUBLE_EQ(self_only.copy_seconds, field / k.copy_bw);
  const ReshapeCost& half = cost.reshapes[1];
  EXPECT_GT(half.net_seconds, 0.0);
  EXPECT_EQ(half.messages, 4u);
  EXPECT_DOUBLE_EQ(half.codec_seconds,
                   field / 2 / k.encode_bw + field / 2 / k.decode_bw);
  // BitTrim is row-addressable: no pack, no unpack, only the kept half.
  EXPECT_DOUBLE_EQ(half.copy_seconds, 0.5 * field / k.copy_bw);
}

TEST(TunerDecomp, RowAddressableCodecsPayOnlyTheSelfCopy) {
  // The x -> y-pencil reshape of 64^3 on 4 ranks keeps half of each
  // pencil and sends the other half. Raw and variable-rate wires pay the
  // packed send half, the unpacked receive half and the kept half; a
  // row-addressable codec (fp32, BitTrim, zfpx fixed-rate) pays the kept
  // half alone.
  const CostConstants k;
  const double field = 64.0 * 64 * 64 / 4 * 16;
  const auto copy_of = [&](CodecPtr codec) {
    DecompSignature sig;
    sig.n = {64, 64, 64};
    sig.p = 4;
    sig.gpn = 6;
    sig.codec = std::move(codec);
    return evaluate_decomp(
               sig, DecompCandidate{DecompAlgorithm::kPencil, {2, 2}}, k)
        .reshapes[1]
        .copy_seconds;
  };
  EXPECT_DOUBLE_EQ(copy_of(nullptr), 1.5 * field / k.copy_bw);
  EXPECT_DOUBLE_EQ(copy_of(std::make_shared<SzqCodec>(1e-6)),
                   1.5 * field / k.copy_bw);
  EXPECT_DOUBLE_EQ(copy_of(std::make_shared<CastFp16Codec>(true)),
                   1.5 * field / k.copy_bw);
  EXPECT_DOUBLE_EQ(copy_of(std::make_shared<CastFp32Codec>()),
                   0.5 * field / k.copy_bw);
  EXPECT_DOUBLE_EQ(copy_of(std::make_shared<Zfpx1dCodec>(16)),
                   0.5 * field / k.copy_bw);
}

}  // namespace
}  // namespace lossyfft::tuner
