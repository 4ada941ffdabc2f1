// Failure injection: malformed wire streams, corrupted headers, misuse of
// the APIs. A library that ships compressed bytes across a network must
// fail loudly on truncated or inconsistent input instead of reading out of
// bounds.
//
// The second half of this file is the resilience conformance suite for the
// erasure-coded exchange (OscOptions::parity + minimpi::FaultPlan): every
// transport path × every codec class × every injected fault kind at every
// (src, dst) pair position must either recover bitwise-identical to a
// clean run (≤ m erasures) or raise a loud Error (> m), never deliver
// silently wrong bytes. Runs under the `resilience` ctest label.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/lossless.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/window.hpp"
#include "osc/coded_group.hpp"
#include "osc/exchange_plan.hpp"
#include "osc/osc_alltoall.hpp"

namespace lossyfft {
namespace {

std::vector<double> data(std::size_t n) {
  Xoshiro256 rng(1);
  std::vector<double> v(n);
  fill_uniform(rng, v);
  return v;
}

TEST(FailureCodec, SzqTruncatedStreamRejected) {
  SzqCodec c(1e-6);
  const auto in = data(300);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  std::vector<double> out(in.size());
  // Cut the stream short: must throw, not read past the end.
  EXPECT_THROW(
      c.decompress(std::span<const std::byte>(wire.data(), used / 2), out),
      Error);
}

TEST(FailureCodec, SzqCountMismatchRejected) {
  SzqCodec c(1e-6);
  const auto in = data(128);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  std::vector<double> wrong(64);
  EXPECT_THROW(
      c.decompress(std::span<const std::byte>(wire.data(), used), wrong),
      Error);
}

TEST(FailureCodec, RleTruncatedStreamRejected) {
  ByteplaneRleCodec c;
  const auto in = data(200);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  std::vector<double> out(in.size());
  EXPECT_THROW(
      c.decompress(std::span<const std::byte>(wire.data(), used - 9), out),
      Error);
}

TEST(FailureCodec, RleCorruptedRunLengthRejected) {
  ByteplaneRleCodec c;
  std::vector<double> in(64, 1.0);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  c.compress(in, wire);
  // Blow up the first plane's run count so the runs overflow the plane.
  wire[16] = std::byte{0xFF};
  wire[17] = std::byte{0xFF};
  std::vector<double> out(in.size());
  EXPECT_THROW(c.decompress(wire, out), Error);
}

TEST(FailureCodec, ZfpxAccuracyCountMismatchRejected) {
  ZfpxAccuracyCodec c(1e-6);
  const auto in = data(64);
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  std::vector<double> wrong(32);
  EXPECT_THROW(
      c.decompress(std::span<const std::byte>(wire.data(), used), wrong),
      Error);
}

TEST(FailureCodec, OutputBufferTooSmallRejected) {
  CastFp32Codec c;
  const auto in = data(100);
  std::vector<std::byte> tiny(10);
  EXPECT_THROW(c.compress(in, tiny), Error);
}

TEST(FailureCodec, SzqNonFiniteBecomesExactOutlier) {
  SzqCodec c(1e-6);
  std::vector<double> in = {1.0, std::numeric_limits<double>::infinity(),
                            std::nan(""), -2.0};
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  const std::size_t used = c.compress(in, wire);
  std::vector<double> out(in.size());
  c.decompress(std::span<const std::byte>(wire.data(), used), out);
  EXPECT_TRUE(std::isinf(out[1]));
  EXPECT_TRUE(std::isnan(out[2]));
  EXPECT_NEAR(out[3], -2.0, 1e-6);
}

TEST(FailureCodec, TruncationPropagatesNonFinite) {
  // Casting codecs keep inf/NaN as inf/NaN (IEEE semantics), so a receiver
  // can still detect the upstream problem.
  CastFp16Codec c;
  std::vector<double> in = {std::numeric_limits<double>::infinity(),
                            std::nan("")};
  std::vector<std::byte> wire(c.max_compressed_bytes(in.size()));
  c.compress(in, wire);
  std::vector<double> out(in.size());
  c.decompress(wire, out);
  EXPECT_TRUE(std::isinf(out[0]));
  EXPECT_TRUE(std::isnan(out[1]));
}

TEST(FailureOsc, MismatchedCountsRejectedBeforeAnyExchange) {
  minimpi::run_ranks(2, [](minimpi::Comm& comm) {
    std::vector<std::uint64_t> one(1, 0), two(2, 0);
    osc::OscOptions o;
    EXPECT_THROW(osc::ExchangePlan(comm, osc::PlanBackend::kTwoSided, two,
                                   one, two, two, {}, o),
                 Error);
    comm.barrier();
  });
}

TEST(FailureOsc, CodedChunksAboveGroupLimitRejectedOnEveryRank) {
  // Only rank 1 receives, so a limit checked per received message would
  // throw on rank 1 alone and strand rank 0 in the offset exchange. The
  // option is shared, so every rank must reject it before any collective.
  minimpi::run_ranks(2, [](minimpi::Comm& comm) {
    const bool sender = comm.rank() == 0;
    const std::vector<std::uint64_t> sc{0, sender ? 4000u : 0u};
    const std::vector<std::uint64_t> rc{sender ? 0u : 4000u, 0};
    const std::vector<std::uint64_t> zero(2, 0);
    std::vector<double> recv(sender ? 0 : 4000);
    osc::OscOptions o;
    o.codec = std::make_shared<CastFp32Codec>();
    o.chunks = osc::coded::kMaxDataChunks + 36;
    o.parity = 1;
    EXPECT_THROW(osc::ExchangePlan(comm, osc::PlanBackend::kOneSided, sc,
                                   zero, rc, zero, recv, o),
                 Error);
    comm.barrier();
  });
}

TEST(FailureWindow, OverlongPutAndGetRejected) {
  minimpi::run_ranks(2, [](minimpi::Comm& comm) {
    std::vector<std::byte> store(16);
    minimpi::Window win(comm, store);
    win.fence();
    std::vector<std::byte> big(32);
    const int peer = (comm.rank() + 1) % 2;
    EXPECT_THROW(win.put(big, peer, 0), Error);
    EXPECT_THROW(win.get(big, peer, 0), Error);
    EXPECT_THROW(win.put(std::span<const std::byte>(big.data(), 8), peer, 12),
                 Error);
    win.fence();
  });
}

TEST(FailureRuntime, BadRankArgumentsRejected) {
  minimpi::run_ranks(2, [](minimpi::Comm& comm) {
    const double v = 0;
    EXPECT_THROW(comm.send(std::as_bytes(std::span<const double>(&v, 1)), 7, 0),
                 Error);
    EXPECT_THROW(comm.bcast(std::span<std::byte>{}, -1), Error);
    comm.barrier();
  });
}

// ===========================================================================
// Resilience conformance suite: the erasure-coded exchange under injected
// faults. All layouts and fault plans are deterministic, so every rank
// agrees on the injection schedule without communicating, and a failing
// configuration reproduces from the test name alone.
// ===========================================================================

using minimpi::Comm;
using minimpi::FaultKind;
using minimpi::FaultPlan;
using minimpi::FaultSpec;
using osc::ExchangePlan;
using osc::OscOptions;
using osc::OscSync;
using osc::PlanBackend;

struct RLayout {
  std::vector<std::uint64_t> sc, sd, rc, rd;
  std::vector<double> send;
  std::vector<double> recv;
};

double rcell(int s, int d, std::uint64_t k) {
  return std::sin(0.31 * s + 0.07 * d + 0.011 * static_cast<double>(k)) * 3.0;
}

// Uneven per-pair counts, large enough that fixed codecs split into
// multiple pipeline chunks (so put_index > 0 positions exist). A free
// function so fault plans can locate a pair's frames on every rank.
std::uint64_t rcount(int s, int d) {
  return static_cast<std::uint64_t>(17 + 5 * s + 3 * d);
}

RLayout resilience_layout(int p, int me) {
  RLayout l;
  const auto count = [](int s, int d) { return rcount(s, d); };
  l.sc.resize(static_cast<std::size_t>(p));
  l.sd.resize(static_cast<std::size_t>(p));
  l.rc.resize(static_cast<std::size_t>(p));
  l.rd.resize(static_cast<std::size_t>(p));
  std::uint64_t st = 0, rt = 0;
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    l.sc[i] = count(me, r);
    l.rc[i] = count(r, me);
    l.sd[i] = st;
    l.rd[i] = rt;
    st += l.sc[i];
    rt += l.rc[i];
  }
  l.send.resize(st);
  l.recv.resize(rt, -999.0);
  for (int d = 0; d < p; ++d) {
    const auto i = static_cast<std::size_t>(d);
    for (std::uint64_t k = 0; k < l.sc[i]; ++k) {
      l.send[l.sd[i] + k] = rcell(me, d, k);
    }
  }
  return l;
}

struct ResiliencePath {
  const char* name;
  PlanBackend backend;
  OscSync sync;
  int workers;
};

// The transport matrix the tentpole promises: one-sided fence, one-sided
// PSCW (inline decode), PSCW with pool-pipelined decode, two-sided fused.
constexpr ResiliencePath kResiliencePaths[] = {
    {"osc-fence", PlanBackend::kOneSided, OscSync::kFence, 1},
    {"osc-pscw", PlanBackend::kOneSided, OscSync::kPscw, 1},
    {"osc-pscw-piped", PlanBackend::kOneSided, OscSync::kPscw, 2},
    {"twosided-fused", PlanBackend::kTwoSided, OscSync::kFence, 1},
};

struct ResilienceCodec {
  const char* name;
  CodecPtr codec;
};

// All six codec classes plus the raw exchange (which the coded wire routes
// through an identity codec, so it frames and checksums the same way).
std::vector<ResilienceCodec> resilience_codecs() {
  return {
      {"raw", nullptr},
      {"fp32", std::make_shared<CastFp32Codec>()},
      {"fp16", std::make_shared<CastFp16Codec>(true)},
      {"bittrim", std::make_shared<BitTrimCodec>(20)},
      {"szq", std::make_shared<SzqCodec>(1e-7)},
      {"zfpxacc", std::make_shared<ZfpxAccuracyCodec>(1e-7)},
      {"lossless", std::make_shared<ByteplaneRleCodec>()},
  };
}

OscOptions resilience_options(const ResiliencePath& path, const CodecPtr& c) {
  OscOptions o;
  o.codec = c;
  o.chunks = 3;
  o.gpus_per_node = 2;
  o.sync = path.sync;
  o.workers = path.workers;
  return o;
}

void expect_recv_equal(const RLayout& got, const RLayout& want,
                       const std::string& tag) {
  ASSERT_EQ(got.recv.size(), want.recv.size()) << tag;
  int reported = 0;
  for (std::size_t i = 0; i < want.recv.size() && reported < 5; ++i) {
    if (got.recv[i] != want.recv[i]) {
      ++reported;
      EXPECT_EQ(got.recv[i], want.recv[i]) << tag << " i=" << i;
    }
  }
}

// --- Invariant 0: the Reed–Solomon layer itself -----------------------------
// Every multi-erasure pattern must solve, not just the α = 1 (pure XOR)
// column: the GF(256) log/exp tables are only exercised when an erased
// chunk sits at index ≥ 1, which is exactly the case a bad table generator
// breaks while all single-chunk-0 tests keep passing.

TEST(Resilience, GfFieldArithmeticIsConsistent) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(osc::coded::gf_mul(ua, osc::coded::gf_inv(ua)), 1) << a;
    EXPECT_EQ(osc::coded::gf_mul(ua, 1), ua) << a;
  }
  // Spot-check associativity through the tables against the XOR shortcut:
  // a*(b^c) == a*b ^ a*c for a sample grid.
  for (int a = 1; a < 256; a += 17) {
    for (int b = 1; b < 256; b += 23) {
      for (int c = 1; c < 256; c += 29) {
        const auto ua = static_cast<std::uint8_t>(a);
        const auto ub = static_cast<std::uint8_t>(b);
        const auto uc = static_cast<std::uint8_t>(c);
        EXPECT_EQ(osc::coded::gf_mul(ua, ub ^ uc),
                  osc::coded::gf_mul(ua, ub) ^ osc::coded::gf_mul(ua, uc))
            << a << " " << b << " " << c;
      }
    }
  }
}

TEST(Resilience, RsReconstructsEveryErasurePattern) {
  const std::size_t L = 96;
  for (int k = 2; k <= 6; ++k) {
    std::vector<std::vector<std::byte>> chunks(static_cast<std::size_t>(k));
    std::vector<std::span<const std::byte>> dsp(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      auto& ch = chunks[static_cast<std::size_t>(i)];
      // Ragged payloads: the encoder zero-pads to L.
      ch.resize(L - static_cast<std::size_t>(7 * i));
      for (std::size_t b = 0; b < ch.size(); ++b) {
        ch[b] = static_cast<std::byte>(b * 31 + static_cast<std::size_t>(i) * 5 + 1);
      }
      dsp[static_cast<std::size_t>(i)] = ch;
    }
    std::vector<std::byte> p0(L), p1(L);
    osc::coded::rs_encode(0, dsp, p0);
    osc::coded::rs_encode(1, dsp, p1);
    // Every 2-erasure pattern, recovered from rows {0, 1}.
    for (int a = 0; a < k; ++a) {
      for (int b = a + 1; b < k; ++b) {
        auto data = dsp;
        data[static_cast<std::size_t>(a)] = {};
        data[static_cast<std::size_t>(b)] = {};
        const int prows[2] = {0, 1};
        const std::span<const std::byte> parity[2] = {p0, p1};
        const int erased[2] = {a, b};
        std::vector<std::byte> s0(L), s1(L);
        std::span<std::byte> scratch[2] = {s0, s1};
        std::span<const std::byte> solved[2];
        osc::coded::rs_reconstruct(
            data, prows, parity, erased,
            std::span<std::span<std::byte>>(scratch, 2),
            std::span<std::span<const std::byte>>(solved, 2));
        for (int t = 0; t < 2; ++t) {
          const auto& want = chunks[static_cast<std::size_t>(erased[t])];
          ASSERT_EQ(solved[t].size(), L) << "k=" << k << " a=" << a
                                         << " b=" << b;
          EXPECT_EQ(std::memcmp(solved[t].data(), want.data(), want.size()),
                    0)
              << "k=" << k << " erased=" << erased[t];
          for (std::size_t z = want.size(); z < L; ++z) {
            EXPECT_EQ(solved[t][z], std::byte{0}) << "pad k=" << k;
          }
        }
      }
    }
    // Single erasures from the non-XOR row alone (row 1: coefficients
    // α_i ≠ 1 for every chunk past the first).
    for (int a = 0; a < k; ++a) {
      auto data = dsp;
      data[static_cast<std::size_t>(a)] = {};
      const int prows[1] = {1};
      const std::span<const std::byte> parity[1] = {p1};
      const int erased[1] = {a};
      std::vector<std::byte> s0(L);
      std::span<std::byte> scratch[1] = {s0};
      std::span<const std::byte> solved[1];
      osc::coded::rs_reconstruct(
          data, prows, parity, erased,
          std::span<std::span<std::byte>>(scratch, 1),
          std::span<std::span<const std::byte>>(solved, 1));
      const auto& want = chunks[static_cast<std::size_t>(a)];
      EXPECT_EQ(std::memcmp(solved[0].data(), want.data(), want.size()), 0)
          << "k=" << k << " erased=" << a << " via row 1";
    }
  }
}

// --- Invariant 1: coded, zero faults == uncoded, bitwise --------------------

TEST(Resilience, CodedZeroFaultsBitwiseIdenticalToUncoded) {
  const int p = 4;
  minimpi::run_ranks(p, [&](Comm& comm) {
    for (const ResiliencePath& path : kResiliencePaths) {
      for (const ResilienceCodec& cc : resilience_codecs()) {
        auto ref = resilience_layout(p, comm.rank());
        const OscOptions base = resilience_options(path, cc.codec);
        {
          ExchangePlan rp(comm, path.backend, ref.sc, ref.sd, ref.rc, ref.rd,
                          std::span<double>(ref.recv), base);
          rp.execute(ref.send, ref.recv);
        }
        for (const int m : {1, 2}) {
          auto l = resilience_layout(p, comm.rank());
          OscOptions o = base;
          o.parity = m;
          ExchangePlan plan(comm, path.backend, l.sc, l.sd, l.rc, l.rd,
                            std::span<double>(l.recv), o);
          for (int it = 0; it < 2; ++it) {
            std::fill(l.recv.begin(), l.recv.end(), -1.0);
            const auto st = plan.execute(l.send, l.recv);
            const std::string tag = std::string("path=") + path.name +
                                    " codec=" + cc.name +
                                    " m=" + std::to_string(m);
            expect_recv_equal(l, ref, tag);
            EXPECT_GT(st.parity_bytes, 0u) << tag;
            EXPECT_EQ(st.chunks_reconstructed, 0u) << tag;
            EXPECT_EQ(st.straggler_waits, 0u) << tag;
          }
        }
      }
    }
  });
}

// --- Invariant 2: ≤ m faults recover bitwise at every (src, dst) position ---

class ResilienceFaultKind
    : public ::testing::TestWithParam<minimpi::FaultKind> {};

TEST_P(ResilienceFaultKind, RecoveryBitwiseIdenticalAtEveryPairPosition) {
  const FaultKind kind = GetParam();
  const int p = 4;
  minimpi::run_ranks(p, [&](Comm& comm) {
    const int me = comm.rank();
    for (const ResiliencePath& path : kResiliencePaths) {
      for (const ResilienceCodec& cc : resilience_codecs()) {
        auto ref = resilience_layout(p, me);
        const OscOptions base = resilience_options(path, cc.codec);
        {
          ExchangePlan rp(comm, path.backend, ref.sc, ref.sd, ref.rc, ref.rd,
                          std::span<double>(ref.recv), base);
          rp.execute(ref.send, ref.recv);
        }
        // One execute per ordered (src, dst) pair: epoch t faults the
        // first frame of pair t's message group. The ring visits every
        // pair in some round, so this sweeps every (round, src) position.
        FaultPlan fp;
        std::vector<std::pair<int, int>> pairs;
        for (int s = 0; s < p; ++s) {
          for (int d = 0; d < p; ++d) {
            if (s == d) continue;
            FaultSpec spec;
            spec.epoch = static_cast<std::uint64_t>(pairs.size()) + 1;
            spec.src = s;
            spec.dst = d;
            spec.put_index = 0;
            spec.kind = kind;
            fp.targeted.push_back(spec);
            pairs.emplace_back(s, d);
          }
        }
        auto l = resilience_layout(p, me);
        OscOptions o = base;
        o.parity = 1;
        o.fault_plan = &fp;
        ExchangePlan plan(comm, path.backend, l.sc, l.sd, l.rc, l.rd,
                          std::span<double>(l.recv), o);
        for (std::size_t t = 0; t < pairs.size(); ++t) {
          std::fill(l.recv.begin(), l.recv.end(), -1.0);
          const auto st = plan.execute(l.send, l.recv);
          const std::string tag =
              std::string("path=") + path.name + " codec=" + cc.name +
              " pair=" + std::to_string(pairs[t].first) + "->" +
              std::to_string(pairs[t].second) +
              " epoch=" + std::to_string(t + 1);
          expect_recv_equal(l, ref, tag);
          // The faulted pair's target must have actually exercised the
          // recovery machinery (a two-sided delay is only a stall — the
          // frame arrives intact, nothing to reconstruct).
          const bool two_sided = path.backend == PlanBackend::kTwoSided;
          if (me == pairs[t].second &&
              !(two_sided && kind == FaultKind::kDelay)) {
            EXPECT_GE(st.chunks_reconstructed, 1u) << tag;
          }
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, ResilienceFaultKind,
                         ::testing::Values(FaultKind::kDrop,
                                           FaultKind::kDelay,
                                           FaultKind::kCorrupt),
                         [](const auto& info) {
                           switch (info.param) {
                             case FaultKind::kDrop: return "drop";
                             case FaultKind::kDelay: return "delay";
                             case FaultKind::kCorrupt: return "corrupt";
                             default: return "none";
                           }
                         });

// --- Invariant 2b: double erasures at non-XOR columns solve end to end ------
// The transport-level regression for the GF table bug: dropping chunks at
// indices ≥ 1 puts coefficients α > 1 into the solve, which pure-XOR-only
// coverage (chunk 0, row 0) never touches.

TEST(Resilience, DoubleErasureAtNonXorColumnsRecovers) {
  const int p = 3;
  minimpi::run_ranks(p, [&](Comm& comm) {
    for (const ResiliencePath& path : kResiliencePaths) {
      if (path.backend == PlanBackend::kTwoSided) continue;  // k = 1 there.
      for (const std::pair<int, int>& drops :
           {std::pair<int, int>{1, 2}, std::pair<int, int>{0, 2}}) {
        auto ref = resilience_layout(p, comm.rank());
        OscOptions base =
            resilience_options(path, std::make_shared<CastFp32Codec>());
        {
          ExchangePlan rp(comm, path.backend, ref.sc, ref.sd, ref.rc, ref.rd,
                          std::span<double>(ref.recv), base);
          rp.execute(ref.send, ref.recv);
        }
        FaultPlan fp;
        for (const int idx : {drops.first, drops.second}) {
          FaultSpec spec;
          spec.epoch = 1;
          spec.src = 0;
          spec.dst = 1;
          spec.put_index = idx;
          spec.kind = FaultKind::kDrop;
          fp.targeted.push_back(spec);
        }
        auto l = resilience_layout(p, comm.rank());
        OscOptions o = base;
        o.parity = 2;
        o.fault_plan = &fp;
        ExchangePlan plan(comm, path.backend, l.sc, l.sd, l.rc, l.rd,
                          std::span<double>(l.recv), o);
        std::fill(l.recv.begin(), l.recv.end(), -1.0);
        const auto st = plan.execute(l.send, l.recv);
        const std::string tag = std::string("path=") + path.name + " drops=" +
                                std::to_string(drops.first) + "," +
                                std::to_string(drops.second);
        expect_recv_equal(l, ref, tag);
        if (comm.rank() == 1) {
          EXPECT_EQ(st.chunks_reconstructed, 2u) << tag;
        }
      }
    }
  });
}

// --- Invariant 3: > m erasures fail loudly, on the target only --------------

TEST(Resilience, ErasuresBeyondParityBudgetFailLoudly) {
  const int p = 3;
  minimpi::run_ranks(p, [&](Comm& comm) {
    const std::vector<ResilienceCodec> codecs = {
        {"fp32", std::make_shared<CastFp32Codec>()},  // fixed rate, k > 1
        {"szq", std::make_shared<SzqCodec>(1e-7)},    // variable rate, k = 1
    };
    for (const ResiliencePath& path : kResiliencePaths) {
      for (const ResilienceCodec& cc : codecs) {
        // Two faults on the 0 -> 1 group with m = 1: fixed codecs lose two
        // data chunks, variable codecs lose the data chunk and its only
        // parity replica. Either way the budget is exceeded.
        FaultPlan fp;
        for (int idx = 0; idx < 2; ++idx) {
          FaultSpec spec;
          spec.epoch = 1;
          spec.src = 0;
          spec.dst = 1;
          spec.put_index = idx;
          spec.kind = FaultKind::kDrop;
          fp.targeted.push_back(spec);
        }
        auto l = resilience_layout(p, comm.rank());
        OscOptions o = resilience_options(path, cc.codec);
        o.parity = 1;
        o.fault_plan = &fp;
        ExchangePlan plan(comm, path.backend, l.sc, l.sd, l.rc, l.rd,
                          std::span<double>(l.recv), o);
        // The Error is deferred until the collective protocol completes,
        // so every rank runs the same execute and only the faulted
        // target rank observes the throw — no deadlock, no global abort.
        bool threw = false;
        try {
          plan.execute(l.send, l.recv);
        } catch (const Error&) {
          threw = true;
        }
        EXPECT_EQ(threw, comm.rank() == 1)
            << "path=" << path.name << " codec=" << cc.name;
        comm.barrier();
      }
    }
  });
}

// --- Invariant 4: straggler fallback — flush resolves parked puts -----------

TEST(Resilience, DelayedDataAndParityRecoverViaFlush) {
  // Delay *every* frame of one group (data and parity): the scan sees
  // fewer clean parity frames than erasures, falls back to
  // Window::flush_delayed, and the rescan comes back fully clean — the
  // recovery path that waits instead of reconstructing.
  const int p = 3;
  minimpi::run_ranks(p, [&](Comm& comm) {
    const std::vector<ResilienceCodec> codecs = {
        {"fp32", std::make_shared<CastFp32Codec>()},
        {"szq", std::make_shared<SzqCodec>(1e-7)},
    };
    for (const ResiliencePath& path : kResiliencePaths) {
      if (path.backend == PlanBackend::kTwoSided) continue;  // No parking.
      for (const ResilienceCodec& cc : codecs) {
        auto ref = resilience_layout(p, comm.rank());
        const OscOptions base = resilience_options(path, cc.codec);
        {
          ExchangePlan rp(comm, path.backend, ref.sc, ref.sd, ref.rc, ref.rd,
                          std::span<double>(ref.recv), base);
          rp.execute(ref.send, ref.recv);
        }
        FaultPlan fp;
        FaultSpec spec;
        spec.epoch = 1;
        spec.src = 0;
        spec.dst = 1;
        spec.put_index = -1;  // Every put of the pair: all frames park.
        spec.kind = FaultKind::kDelay;
        fp.targeted.push_back(spec);
        auto l = resilience_layout(p, comm.rank());
        OscOptions o = base;
        o.parity = 1;
        o.fault_plan = &fp;
        ExchangePlan plan(comm, path.backend, l.sc, l.sd, l.rc, l.rd,
                          std::span<double>(l.recv), o);
        std::fill(l.recv.begin(), l.recv.end(), -1.0);
        const auto st = plan.execute(l.send, l.recv);
        const std::string tag =
            std::string("path=") + path.name + " codec=" + cc.name;
        expect_recv_equal(l, ref, tag);
        if (comm.rank() == 1) {
          EXPECT_GE(st.straggler_waits, 1u) << tag;
          EXPECT_EQ(st.chunks_reconstructed, 0u) << tag;
        }
        // A second, fault-free epoch proves the purged parked puts of
        // epoch 1 cannot clobber fresh data.
        std::fill(l.recv.begin(), l.recv.end(), -1.0);
        plan.execute(l.send, l.recv);
        expect_recv_equal(l, ref, tag + " epoch2");
      }
    }
  });
}

// --- Invariant 5: a corrupted header word reads as an erasure ---------------
// The FailureHeader regression: a header bit flipped in flight must never
// be trusted as a payload length — the frame scan classifies it as an
// erasure and the reconstruction re-validates the recovered chunk's
// metadata against the parity headers before any decode touches it.

TEST(Resilience, CorruptHeaderReadsAsErasureAndRecovers) {
  const int p = 3;
  minimpi::run_ranks(p, [&](Comm& comm) {
    const std::vector<ResilienceCodec> codecs = {
        {"fp32", std::make_shared<CastFp32Codec>()},
        {"szq", std::make_shared<SzqCodec>(1e-7)},
    };
    for (const ResiliencePath& path : kResiliencePaths) {
      if (path.backend == PlanBackend::kTwoSided) continue;  // Window-only.
      for (const ResilienceCodec& cc : codecs) {
        auto ref = resilience_layout(p, comm.rank());
        const OscOptions base = resilience_options(path, cc.codec);
        {
          ExchangePlan rp(comm, path.backend, ref.sc, ref.sd, ref.rc, ref.rd,
                          std::span<double>(ref.recv), base);
          rp.execute(ref.send, ref.recv);
        }
        FaultPlan fp;
        // Epoch 1: the data frame's header word is corrupted.
        FaultSpec data_hdr;
        data_hdr.epoch = 1;
        data_hdr.src = 0;
        data_hdr.dst = 1;
        data_hdr.put_index = 0;
        data_hdr.kind = FaultKind::kCorrupt;
        data_hdr.header = true;
        fp.targeted.push_back(data_hdr);
        // Epoch 2 (m = 2): the data frame drops AND the first parity
        // frame's header is corrupted — recovery must come from the
        // second parity frame, with the corrupt parity header excluded
        // from the metadata re-validation.
        FaultSpec drop;
        drop.epoch = 2;
        drop.src = 0;
        drop.dst = 1;
        drop.put_index = 0;
        drop.kind = FaultKind::kDrop;
        fp.targeted.push_back(drop);
        // Pin the first parity frame of the 0 -> 1 group: puts run data
        // chunks first, so its index is the group's data chunk count
        // (variable codecs ship one data frame, replicas follow at 1).
        FaultSpec parity_hdr = data_hdr;
        parity_hdr.epoch = 2;
        parity_hdr.put_index =
            cc.codec->fixed_size()
                ? static_cast<int>(
                      osc::chunk_partition(rcount(0, 1), base.chunks).size())
                : 1;
        fp.targeted.push_back(parity_hdr);
        auto l = resilience_layout(p, comm.rank());
        OscOptions o = base;
        o.parity = 2;
        o.fault_plan = &fp;
        ExchangePlan plan(comm, path.backend, l.sc, l.sd, l.rc, l.rd,
                          std::span<double>(l.recv), o);
        for (int epoch = 1; epoch <= 2; ++epoch) {
          std::fill(l.recv.begin(), l.recv.end(), -1.0);
          const auto st = plan.execute(l.send, l.recv);
          const std::string tag = std::string("path=") + path.name +
                                  " codec=" + cc.name +
                                  " epoch=" + std::to_string(epoch);
          expect_recv_equal(l, ref, tag);
          if (comm.rank() == 1) {
            EXPECT_GE(st.chunks_reconstructed, 1u) << tag;
          }
        }
      }
    }
  });
}

}  // namespace
}  // namespace lossyfft
