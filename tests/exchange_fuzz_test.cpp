// Randomized exchange conformance suite: every transport path must produce
// byte-identical receive buffers for the same layout and codec. The
// reference is the test-only naive exchange (naive_exchange.hpp: whole-
// block encode, alltoallv, whole-block decode); the two-sided, one-sided
// fence and one-sided PSCW (inline and pool-pipelined decode) plans must
// match it bit for bit — lossy codecs included, since lossiness is decided
// at encode time and every path ships the same encoded stream.
//
// Layouts are drawn from common/rng seeded by LOSSYFFT_FUZZ_SEED (decimal;
// default fixed so `ctest -L fuzz` is reproducible in tier-1, overridable
// for soak runs). They sweep zero-size blocks, self-only communication,
// padded (non-uniform) displacements, and varying ranks-per-node ring
// shapes across {2, 3, 4, 8} ranks and all codec classes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <array>
#include <atomic>
#include <complex>
#include <cstring>
#include <tuple>

#include "common/cpu_dispatch.hpp"
#include "common/rng.hpp"
#include "compress/lossless.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "dfft/fft3d.hpp"
#include "minimpi/runtime.hpp"
#include "naive_exchange.hpp"
#include "osc/exchange_plan.hpp"
#include "osc/osc_alltoall.hpp"

namespace lossyfft::osc {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

std::uint64_t fuzz_seed() {
  if (const char* s = std::getenv("LOSSYFFT_FUZZ_SEED")) {
    if (const auto v = std::strtoull(s, nullptr, 10); v != 0) return v;
  }
  return 20260805;  // Fixed tier-1 seed.
}

// A randomized alltoallv layout. Counts and displacement padding are drawn
// from a seed every rank shares, so all ranks agree on the global matrix
// without communicating — displs include random gaps (non-prefix-sum), and
// roughly a third of the blocks are empty.
struct FuzzLayout {
  std::vector<std::uint64_t> sc, sd, rc, rd;
  std::vector<double> send;
  std::vector<double> recv;
};

// Deterministic per-pair block values any rank can regenerate.
void fill_block(std::uint64_t seed, int s, int d, std::span<double> out) {
  Xoshiro256 rng(seed ^ (static_cast<std::uint64_t>(s) * 1000003 +
                         static_cast<std::uint64_t>(d) * 7919 + 1));
  fill_uniform(rng, out, -4.0, 4.0);
}

FuzzLayout make_fuzz_layout(std::uint64_t seed, int p, int me,
                            bool self_only) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(p) *
                                    static_cast<std::size_t>(p));
  std::vector<std::uint64_t> gaps(counts.size());
  for (int s = 0; s < p; ++s) {
    for (int d = 0; d < p; ++d) {
      const auto i =
          static_cast<std::size_t>(s) * static_cast<std::size_t>(p) +
          static_cast<std::size_t>(d);
      const bool zero = rng.uniform() < 0.3 || (self_only && s != d);
      counts[i] =
          zero ? 0 : static_cast<std::uint64_t>(rng.uniform(1.0, 41.0));
      gaps[i] = static_cast<std::uint64_t>(rng.uniform(0.0, 4.0));
    }
  }
  const auto at = [&](int s, int d) {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(p) +
           static_cast<std::size_t>(d);
  };
  FuzzLayout l;
  l.sc.resize(static_cast<std::size_t>(p));
  l.sd.resize(static_cast<std::size_t>(p));
  l.rc.resize(static_cast<std::size_t>(p));
  l.rd.resize(static_cast<std::size_t>(p));
  std::uint64_t st = 0, rt = 0;
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    st += gaps[at(me, r)];  // Padding before the block: non-uniform displs.
    rt += gaps[at(r, me)];
    l.sc[i] = counts[at(me, r)];
    l.rc[i] = counts[at(r, me)];
    l.sd[i] = st;
    l.rd[i] = rt;
    st += l.sc[i];
    rt += l.rc[i];
  }
  l.send.resize(st, -777.0);
  l.recv.resize(rt, -999.0);
  for (int d = 0; d < p; ++d) {
    const auto i = static_cast<std::size_t>(d);
    fill_block(seed, me, d, std::span<double>(l.send).subspan(l.sd[i],
                                                              l.sc[i]));
  }
  return l;
}

struct PathSpec {
  const char* name;
  PlanBackend backend;
  OscSync sync;
  int workers;
};

// The conformance matrix: every plan path, uncoded and coded.
constexpr PathSpec kPaths[] = {
    {"twosided", PlanBackend::kTwoSided, OscSync::kFence, 1},
    {"osc-fence", PlanBackend::kOneSided, OscSync::kFence, 1},
    {"osc-pscw", PlanBackend::kOneSided, OscSync::kPscw, 1},
    {"osc-pscw-pool", PlanBackend::kOneSided, OscSync::kPscw, 2},
};

struct CodecCase {
  std::string name;
  CodecPtr codec;
};

std::vector<CodecCase> codec_cases(Xoshiro256& rng) {
  const int trim = static_cast<int>(rng.uniform(10.0, 40.0));
  std::vector<CodecCase> cs;
  cs.push_back({"raw", nullptr});
  cs.push_back({"fp32", std::make_shared<CastFp32Codec>()});
  cs.push_back({"fp16", std::make_shared<CastFp16Codec>(true)});
  cs.push_back({"bittrim(" + std::to_string(trim) + ")",
                std::make_shared<BitTrimCodec>(trim)});
  cs.push_back({"szq", std::make_shared<SzqCodec>(1e-7)});
  cs.push_back({"zfpxacc", std::make_shared<ZfpxAccuracyCodec>(1e-7)});
  cs.push_back({"lossless", std::make_shared<ByteplaneRleCodec>()});
  return cs;
}

// Run one (layout, codec) configuration through every path twice (plan
// reuse) and demand bitwise identity against the naive reference.
void check_conformance(Comm& comm, std::uint64_t seed, bool self_only,
                       int gpn, const CodecCase& cc) {
  const int p = comm.size();
  auto ref = make_fuzz_layout(seed, p, comm.rank(), self_only);
  const std::uint64_t encoded = naive_exchange(
      comm, cc.codec, ref.send, ref.sc, ref.sd, ref.recv, ref.rc, ref.rd);
  // Raw and variable-rate messages go out as one stream on every path, so
  // their wire bytes are the oracle's; the one-sided wire chunks
  // fixed-rate codecs, whose totals differ.
  const bool whole = !cc.codec || !cc.codec->fixed_size();
  OscOptions base;
  base.codec = cc.codec;
  base.gpus_per_node = gpn;
  base.chunks = 1 + static_cast<int>(seed % 4);

  for (const PathSpec& ps : kPaths) {
    auto l = make_fuzz_layout(seed, p, comm.rank(), self_only);
    OscOptions o = base;
    o.sync = ps.sync;
    o.workers = ps.workers;
    ExchangePlan plan(comm, ps.backend, l.sc, l.sd, l.rc, l.rd,
                      std::span<double>(l.recv), o);
    for (int it = 0; it < 2; ++it) {
      std::fill(l.recv.begin(), l.recv.end(), -999.0);
      const ExchangeStats st = plan.execute(l.send, l.recv);
      // EXPECT (not ASSERT): plans are collective, so every rank must keep
      // walking the same construct/execute sequence even after a mismatch —
      // an early return here would deadlock the other ranks. Cap the spam.
      if (whole) {
        EXPECT_EQ(st.wire_bytes, encoded) << ps.name << " " << cc.name;
      }
      if (ps.backend == PlanBackend::kTwoSided) {
        EXPECT_EQ(st.chunks_issued, st.messages) << cc.name;
      }
      EXPECT_EQ(l.recv.size(), ref.recv.size());
      int reported = 0;
      for (std::size_t i = 0; i < ref.recv.size() && reported < 5; ++i) {
        if (l.recv[i] != ref.recv[i]) {
          ++reported;
          EXPECT_EQ(l.recv[i], ref.recv[i])
              << "path=" << ps.name << " codec=" << cc.name << " p=" << p
              << " gpn=" << gpn << " seed=" << seed << " it=" << it
              << " i=" << i;
        }
      }
    }
  }

  // Exactness oracle for the non-lossy classes: the reference itself must
  // deliver the sender-generated block values untouched.
  if (!cc.codec || cc.name == "lossless") {
    std::vector<double> expect(64);
    for (int s = 0; s < p; ++s) {
      const auto i = static_cast<std::size_t>(s);
      expect.resize(ref.rc[i]);
      fill_block(seed, s, comm.rank(), expect);
      for (std::uint64_t k = 0; k < ref.rc[i]; ++k) {
        EXPECT_EQ(ref.recv[ref.rd[i] + k], expect[k])
            << "codec=" << cc.name << " src=" << s << " k=" << k;
      }
    }
  }
}

class ExchangeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExchangeFuzz, AllPathsBitwiseAgree) {
  const int p = GetParam();
  run_ranks(p, [&](Comm& comm) {
    Xoshiro256 meta(fuzz_seed() + static_cast<std::uint64_t>(p) * 101);
    const auto codecs = codec_cases(meta);
    // Ring shapes: flat (every rank its own node), packed pairs, one node.
    const int gpns[] = {1, 2, p};
    for (int variant = 0; variant < 3; ++variant) {
      const bool self_only = variant == 2;
      const std::uint64_t seed =
          fuzz_seed() + static_cast<std::uint64_t>(p) * 1009 +
          static_cast<std::uint64_t>(variant) * 17;
      const int gpn = gpns[variant % 3];
      for (const CodecCase& cc : codecs) {
        check_conformance(comm, seed, self_only, gpn, cc);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // Ragged ring shapes: gpn that does not divide p leaves the last node
    // short, so the PSCW exposure groups differ per round (3+3+2 and 5+3
    // node splits at p = 8). The self-only pass additionally drives the
    // exactness oracle through the ragged rounds, where every off-node
    // slot is empty.
    if (p == 8) {
      int variant = 3;
      for (const int gpn : {3, 5}) {
        for (const bool self_only : {false, true}) {
          const std::uint64_t seed =
              fuzz_seed() + static_cast<std::uint64_t>(p) * 1009 +
              static_cast<std::uint64_t>(variant) * 17;
          ++variant;
          for (const CodecCase& cc : codecs) {
            check_conformance(comm, seed, self_only, gpn, cc);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ExchangeFuzz, ::testing::Values(2, 3, 4, 8),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

// --- Layout axis ------------------------------------------------------------
// Every path sends from and receives into strided RunLayouts with canary
// gaps: each message is `planes` planes of `runs` runs, with the sender
// and the receiver cutting the same count into different runs, so codec
// groups straddle runs on both sides. Row-addressable codecs encode and
// decode run by run: runs under 64 values through the plan's gather
// block, longer ones (merged rows, single-run cuts) in place; the rest
// stage through the plan's run walker. Each element must equal naive_exchange run on the packed values,
// and no gap element may change.

constexpr double kCanary = -12345.0;

// Message (s -> d)'s run shape, drawn from a seed every rank shares: run
// lengths 1..13 (mostly not multiples of any codec granularity), so both
// sides agree on the count; `recv` picks the receiver's cut of it.
RunLayout message_shape(std::uint64_t seed, int s, int d, bool recv) {
  Xoshiro256 rng(seed ^ (static_cast<std::uint64_t>(s) * 7368787 +
                         static_cast<std::uint64_t>(d) * 2750159 + 3));
  if (rng.uniform() < 0.25) return {};
  const auto a = static_cast<std::uint64_t>(rng.uniform(1.0, 14.0));
  const auto b = static_cast<std::uint64_t>(rng.uniform(1.0, 7.0));
  const auto k = static_cast<std::uint64_t>(rng.uniform(1.0, 4.0));
  const auto cut = static_cast<int>(rng.uniform(0.0, 4.0));
  RunLayout l;
  l.run = a;
  l.runs = b;
  l.planes = k;
  if (recv && cut == 1) l = {0, a * b, k, 0, 1, 0};
  if (recv && cut == 2) l = {0, b, a, 0, k, 0};
  if (recv && cut == 3) l = {0, a * b * k, 1, 0, 1, 0};
  return l;
}

// One rank's side of the layout axis: a layout per peer, placed with
// random gaps (zero gaps let rows and planes merge), and the field extent.
struct StridedSide {
  std::vector<RunLayout> lay;
  std::uint64_t extent = 0;
};

StridedSide make_strided_side(std::uint64_t seed, int p, int me, bool recv) {
  Xoshiro256 gaps(seed ^ (static_cast<std::uint64_t>(me) * 31 + (recv ? 7 : 1)));
  StridedSide side;
  side.lay.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    RunLayout l = recv ? message_shape(seed, r, me, true)
                       : message_shape(seed, me, r, false);
    if (l.count() == 0) continue;
    l.first = side.extent + static_cast<std::uint64_t>(gaps.uniform(0.0, 4.0));
    l.run_stride = l.run + static_cast<std::uint64_t>(gaps.uniform(0.0, 4.0));
    l.plane_stride = l.runs * l.run_stride +
                     static_cast<std::uint64_t>(gaps.uniform(0.0, 6.0));
    side.extent = l.extent();
    side.lay[static_cast<std::size_t>(r)] = l;
  }
  side.extent += 3;  // Trailing canaries.
  return side;
}

// The test's own element walk (independent of the plan's): element k of
// layout `l` sits at field index at(l, k).
std::uint64_t at(const RunLayout& l, std::uint64_t k) {
  const std::uint64_t plane = k / (l.run * l.runs);
  const std::uint64_t row = k / l.run % l.runs;
  return l.first + plane * l.plane_stride + row * l.run_stride + k % l.run;
}

void check_layout_axis(Comm& comm, std::uint64_t seed) {
  const int p = comm.size();
  const int me = comm.rank();
  const auto up = static_cast<std::size_t>(p);
  const StridedSide snd = make_strided_side(seed, p, me, false);
  const StridedSide rcv = make_strided_side(seed, p, me, true);
  constexpr int kFields = 2;

  // Send images: every message's values in message order, canaries in
  // the gaps; packed copies (displacements = prefix sums) feed the oracle.
  std::vector<double> send(kFields * snd.extent, kCanary);
  std::vector<std::vector<double>> packed(kFields);
  std::vector<std::uint64_t> sc(up), sd(up), rc(up), rd(up);
  std::uint64_t st = 0, rt = 0;
  for (std::size_t r = 0; r < up; ++r) {
    sc[r] = snd.lay[r].count();
    rc[r] = rcv.lay[r].count();
    sd[r] = st;
    rd[r] = rt;
    st += sc[r];
    rt += rc[r];
  }
  for (int f = 0; f < kFields; ++f) {
    auto& pk = packed[static_cast<std::size_t>(f)];
    pk.resize(st);
    for (std::size_t d = 0; d < up; ++d) {
      fill_block(seed + static_cast<std::uint64_t>(f) * 977, me,
                 static_cast<int>(d),
                 std::span<double>(pk).subspan(sd[d], sc[d]));
      for (std::uint64_t k = 0; k < sc[d]; ++k) {
        send[f * snd.extent + at(snd.lay[d], k)] = pk[sd[d] + k];
      }
    }
  }

  const std::vector<CodecCase> codecs = {
      {"raw", nullptr},
      {"fp32", std::make_shared<CastFp32Codec>()},
      {"fp16", std::make_shared<CastFp16Codec>(false)},
      {"fp16-scaled", std::make_shared<CastFp16Codec>(true)},
      {"bf16", std::make_shared<CastBf16Codec>()},
      {"bittrim(7)", std::make_shared<BitTrimCodec>(7)},
      {"bittrim(19)", std::make_shared<BitTrimCodec>(19)},
      {"bittrim(40)", std::make_shared<BitTrimCodec>(40)},
      {"zfpx(20bpv)", std::make_shared<Zfpx1dCodec>(20)},
      {"szq", std::make_shared<SzqCodec>(1e-7)},
      {"lossless", std::make_shared<ByteplaneRleCodec>()},
  };
  // Explicit chunk counts {3, 5, 7}: chunk_partition rounds chunks to
  // multiples of 4, so BitTrim sees chunk offsets that are 4 mod 8.
  const int chunks = 3 + 2 * static_cast<int>(seed % 3);
  bool odd_group_offset = false;
  for (int s = 0; s < p; ++s) {
    for (int d = 0; d < p; ++d) {
      const std::uint64_t c = message_shape(seed, s, d, false).count();
      const auto part = chunk_partition(c, chunks);
      odd_group_offset |= part.size() > 1 && part[0] % 8 == 4;
    }
  }
  if (p >= 3) {
    EXPECT_TRUE(odd_group_offset) << "seed=" << seed << " chunks=" << chunks;
  }

  for (const CodecCase& cc : codecs) {
    // Oracle: the packed values through the naive exchange, scattered
    // into canary-filled receive images through the test's own walk.
    std::vector<double> expect(kFields * rcv.extent, kCanary);
    std::uint64_t encoded = 0;
    for (int f = 0; f < kFields; ++f) {
      std::vector<double> got(rt);
      encoded += naive_exchange(comm, cc.codec,
                                packed[static_cast<std::size_t>(f)], sc, sd,
                                got, rc, rd);
      for (std::size_t s = 0; s < up; ++s) {
        for (std::uint64_t k = 0; k < rc[s]; ++k) {
          expect[f * rcv.extent + at(rcv.lay[s], k)] = got[rd[s] + k];
        }
      }
    }
    const bool whole = !cc.codec || !cc.codec->fixed_size();
    for (const PathSpec& ps : kPaths) {
      for (const int parity : {0, 1}) {
        OscOptions o;
        o.codec = cc.codec;
        o.gpus_per_node = 2;
        o.chunks = chunks;
        o.sync = ps.sync;
        o.workers = ps.workers;
        o.parity = parity;
        o.batch = kFields;
        ExchangePlan plan(comm, ps.backend, snd.lay, rcv.lay, sizeof(double),
                          o);
        std::vector<double> recv(kFields * rcv.extent);
        for (int it = 0; it < 2; ++it) {
          std::fill(recv.begin(), recv.end(), kCanary);
          const ExchangeStats stats = plan.execute_batch(
              std::span<const double>(send), std::span<double>(recv),
              kFields);
          if (whole && parity == 0) {
            EXPECT_EQ(stats.wire_bytes, encoded) << ps.name << " " << cc.name;
          }
          // EXPECT (not ASSERT): collective lockstep, see above.
          int reported = 0;
          for (std::size_t i = 0; i < expect.size() && reported < 5; ++i) {
            if (std::memcmp(&recv[i], &expect[i], sizeof(double)) != 0) {
              ++reported;
              EXPECT_EQ(recv[i], expect[i])
                  << "layout path=" << ps.name << " codec=" << cc.name
                  << " parity=" << parity << " p=" << p << " seed=" << seed
                  << " chunks=" << chunks << " it=" << it << " field="
                  << i / rcv.extent << " i=" << i % rcv.extent
                  << (expect[i] == kCanary ? " (gap)" : "");
            }
          }
        }
      }
    }
  }
}

class ExchangeFuzzLayout : public ::testing::TestWithParam<int> {};

TEST_P(ExchangeFuzzLayout, StridedLayoutsMatchPackedOracleAndKeepGaps) {
  const int p = GetParam();
  run_ranks(p, [&](Comm& comm) {
    for (std::uint64_t v = 0; v < 2; ++v) {
      check_layout_axis(comm, fuzz_seed() + static_cast<std::uint64_t>(p) *
                                                 4099 +
                                  v * 53);
      if (::testing::Test::HasFatalFailure()) return;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ExchangeFuzzLayout, ::testing::Values(2, 3, 4),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

// --- Coded-exchange axis ----------------------------------------------------
// The erasure-coded wire under seed-randomized fault plans: every coded
// path must deliver the uncoded receive buffers bit for bit, faults or not.
// The fault schedule is drawn from LOSSYFFT_FAULT_SEED (default derived
// from the fuzz seed; tools/fuzz_soak.sh rotates it alongside SIMD levels)
// and is recoverable by construction: targeted drop/corrupt injections are
// bounded to the first two frames of a group under parity m = 2, and the
// probabilistic layer is delay-only, which one-sided targets resolve via
// flush_delayed and two-sided targets simply ride out.

std::uint64_t fault_seed() {
  if (const char* s = std::getenv("LOSSYFFT_FAULT_SEED")) {
    if (const auto v = std::strtoull(s, nullptr, 10); v != 0) return v;
  }
  return fuzz_seed() ^ 0xc0dedfau;  // Derived tier-1 default.
}

// Seed-driven but budget-respecting fault plan: per (epoch, src, dst)
// group at most two targeted faults, pinned to put indices 0 and 1 (data
// chunk 0 plus either data chunk 1 or the first parity frame — both
// within an m = 2 budget for either rate class), kinds and header-bit
// targeting drawn from the hash. Probabilistic delays layer on top.
minimpi::FaultPlan make_fuzz_fault_plan(std::uint64_t seed, int p,
                                        int epochs) {
  using minimpi::FaultKind;
  using minimpi::FaultPlan;
  using minimpi::FaultSpec;
  FaultPlan fp;
  fp.seed = seed;
  fp.delay_prob = 0.2;
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    for (int s = 0; s < p; ++s) {
      for (int d = 0; d < p; ++d) {
        if (s == d) continue;
        for (int idx = 0; idx < 2; ++idx) {
          const double u = FaultPlan::hash_unit(
              seed ^ 0x7a11, static_cast<std::uint64_t>(epoch), s, d,
              static_cast<std::uint32_t>(idx));
          if (u >= (idx == 0 ? 0.5 : 0.25)) continue;
          FaultSpec spec;
          spec.epoch = static_cast<std::uint64_t>(epoch);
          spec.src = s;
          spec.dst = d;
          spec.put_index = idx;
          spec.kind = u < 0.1 ? FaultKind::kCorrupt : FaultKind::kDrop;
          spec.header = spec.kind == FaultKind::kCorrupt && u < 0.03;
          fp.targeted.push_back(spec);
        }
      }
    }
  }
  return fp;
}

class ExchangeFuzzCoded : public ::testing::TestWithParam<int> {};

TEST_P(ExchangeFuzzCoded, FaultedAndCleanCodedRunsMatchUncodedBitwise) {
  const int p = GetParam();
  const int kEpochs = 3;
  run_ranks(p, [&](Comm& comm) {
    Xoshiro256 meta(fuzz_seed() + static_cast<std::uint64_t>(p) * 211);
    const auto codecs = codec_cases(meta);
    const std::uint64_t seed =
        fuzz_seed() + static_cast<std::uint64_t>(p) * 1009 + 23;
    const auto fp =
        make_fuzz_fault_plan(fault_seed() + static_cast<std::uint64_t>(p), p,
                             kEpochs);
    for (const CodecCase& cc : codecs) {
      // Uncoded naive reference.
      auto ref = make_fuzz_layout(seed, p, comm.rank(), false);
      naive_exchange(comm, cc.codec, ref.send, ref.sc, ref.sd, ref.recv,
                     ref.rc, ref.rd);
      OscOptions base;
      base.codec = cc.codec;
      base.gpus_per_node = 2;
      base.chunks = 1 + static_cast<int>(seed % 4);
      const auto expect_ref = [&](const FuzzLayout& l, const char* path,
                                  const char* mode, int epoch) {
        // EXPECT (not ASSERT): collective lockstep, same as above.
        EXPECT_EQ(l.recv.size(), ref.recv.size());
        int reported = 0;
        for (std::size_t i = 0; i < ref.recv.size() && reported < 5; ++i) {
          if (l.recv[i] != ref.recv[i]) {
            ++reported;
            EXPECT_EQ(l.recv[i], ref.recv[i])
                << "path=" << path << " codec=" << cc.name << " mode=" << mode
                << " p=" << p << " epoch=" << epoch << " fault_seed="
                << fault_seed() << " i=" << i;
          }
        }
      };
      for (const PathSpec& ps : kPaths) {
        OscOptions o = base;
        o.sync = ps.sync;
        o.workers = ps.workers;
        o.parity = 2;
        {
          // Coded, zero faults: bit-identical, parity on the wire, nothing
          // reconstructed, and the uncoded wire's skew epochs.
          auto l = make_fuzz_layout(seed, p, comm.rank(), false);
          OscOptions uo = o;
          uo.parity = 0;
          ExchangePlan uplan(comm, ps.backend, l.sc, l.sd, l.rc, l.rd,
                             std::span<double>(l.recv), uo);
          const auto ust = uplan.execute(l.send, l.recv);
          ExchangePlan plan(comm, ps.backend, l.sc, l.sd, l.rc, l.rd,
                            std::span<double>(l.recv), o);
          std::fill(l.recv.begin(), l.recv.end(), -999.0);
          const auto st = plan.execute(l.send, l.recv);
          expect_ref(l, ps.name, "clean", 1);
          // Parity only travels on cross-rank messages; a rank whose
          // random layout sends nothing off-rank legitimately reports 0.
          int cross = 0;
          for (int d = 0; d < p; ++d) {
            if (d != comm.rank() && l.sc[static_cast<std::size_t>(d)] > 0) {
              ++cross;
            }
          }
          if (cross > 0) {
            EXPECT_GT(st.parity_bytes, 0u) << ps.name << " " << cc.name;
          }
          if (ps.backend == PlanBackend::kTwoSided) {
            // Every message is one chunk, the self message included, and
            // each off-rank one adds its parity replicas.
            EXPECT_EQ(st.chunks_issued, st.messages + o.parity * cross)
                << cc.name;
          }
          EXPECT_EQ(st.skew_epochs, ust.skew_epochs)
              << ps.name << " " << cc.name;
          EXPECT_EQ(st.chunks_reconstructed, 0u) << ps.name << " " << cc.name;
        }
        {
          // Coded under the fault plan: every epoch recovers bitwise.
          auto l = make_fuzz_layout(seed, p, comm.rank(), false);
          OscOptions fo = o;
          fo.fault_plan = &fp;
          ExchangePlan plan(comm, ps.backend, l.sc, l.sd, l.rc, l.rd,
                            std::span<double>(l.recv), fo);
          for (int epoch = 1; epoch <= kEpochs; ++epoch) {
            std::fill(l.recv.begin(), l.recv.end(), -999.0);
            plan.execute(l.send, l.recv);
            expect_ref(l, ps.name, "faulted", epoch);
          }
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ExchangeFuzzCoded,
                         ::testing::Values(2, 3, 4, 8),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

// --- SIMD dispatch cross-check ---------------------------------------------
// The codec kernels exist once per dispatch tier (scalar reference, AVX2,
// AVX-512); the wire format is frozen, so a full exchange must deliver
// bit-identical receive buffers whichever level encoded and decoded it.
// Run the same fuzz layout once per level the build + host supports (the
// scalar pass is the reference), every codec class, and compare per-rank
// buffers bitwise.
TEST(ExchangeFuzzSimd, ScalarAndSimdLevelsDeliverIdenticalBuffers) {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (detected_simd_level() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (detected_simd_level() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  if (levels.size() < 2) {
    GTEST_SKIP() << "no SIMD level available in this build/host";
  }
  const int p = 4;
  const std::uint64_t seed = fuzz_seed() + 555;
  Xoshiro256 meta(seed);
  const auto codecs = codec_cases(meta);
  for (const CodecCase& cc : codecs) {
    std::vector<std::vector<double>> recv_at(levels.size());
    for (std::size_t pass = 0; pass < levels.size(); ++pass) {
      std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(p));
      const SimdLevel prev = set_simd_level(levels[pass]);
      run_ranks(p, [&](Comm& comm) {
        auto l = make_fuzz_layout(seed, p, comm.rank(), false);
        OscOptions o;
        o.codec = cc.codec;
        o.gpus_per_node = 2;
        o.sync = OscSync::kPscw;
        ExchangePlan plan(comm, PlanBackend::kOneSided, l.sc, l.sd, l.rc,
                          l.rd, std::span<double>(l.recv), o);
        plan.execute(l.send, l.recv);
        per_rank[static_cast<std::size_t>(comm.rank())] = l.recv;
      });
      set_simd_level(prev);
      // Flatten rank buffers in rank order for the cross-level compare.
      std::vector<double> flat;
      for (const auto& r : per_rank) flat.insert(flat.end(), r.begin(), r.end());
      recv_at[pass] = std::move(flat);
    }
    for (std::size_t pass = 1; pass < levels.size(); ++pass) {
      ASSERT_EQ(recv_at[pass].size(), recv_at[0].size())
          << cc.name << " level=" << simd_level_name(levels[pass]);
      int reported = 0;
      for (std::size_t i = 0; i < recv_at[0].size() && reported < 5; ++i) {
        if (recv_at[0][i] != recv_at[pass][i]) {
          ++reported;
          EXPECT_EQ(recv_at[0][i], recv_at[pass][i])
              << "codec=" << cc.name << " i=" << i
              << " level=" << simd_level_name(levels[pass]);
        }
      }
    }
  }
}

// --- Decomposition matrix: slab vs pencil vs tuner-chosen -------------------
//
// The slab pipeline applies the same 1-D transforms in the same x, y, z
// order as the pencil pipeline — only the data motion between them differs.
// With an exact wire (raw or lossless codec) the two must therefore be
// *bitwise* identical, forward and backward, which pins the reshape layer
// (including pack elision on compatible stages) to pure data movement.
// Lossy wires get a determinism check (two runs bitwise equal) plus a
// tolerance agreement, since each pipeline quantizes different payloads.

// Deterministic brick field from global coordinates: every algorithm and
// rank regenerates the same global volume without communicating.
std::vector<std::complex<double>> decomp_brick_field(const Box3& b,
                                                     std::uint64_t seed) {
  std::vector<std::complex<double>> v(static_cast<std::size_t>(b.count()));
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z)
    for (int y = b.lo[1]; y < b.hi(1); ++y)
      for (int x = b.lo[0]; x < b.hi(0); ++x) {
        Xoshiro256 rng(seed ^ (static_cast<std::uint64_t>(x) * 73856093 +
                               static_cast<std::uint64_t>(y) * 19349663 +
                               static_cast<std::uint64_t>(z) * 83492791 + 1));
        v[i++] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      }
  return v;
}

bool bitwise_equal(const std::vector<std::complex<double>>& a,
                   const std::vector<std::complex<double>>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

double max_abs_diff(const std::vector<std::complex<double>>& a,
                    const std::vector<std::complex<double>>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

struct DecompCodecCase {
  std::string name;
  CodecPtr codec;
  bool exact;   // bitwise slab == pencil expected
  double tol;   // agreement tolerance when not exact
};

class ExchangeFuzzDecomp : public ::testing::TestWithParam<int> {};

TEST_P(ExchangeFuzzDecomp, SlabAndPencilForwardBackwardAgree) {
  const int p = GetParam();
  // p = 8 on an 8-deep z extent keeps every slab busy; the smaller grid at
  // p <= 4 still splits unevenly (6 and 4 do not divide by 4).
  const std::array<int, 3> n = p == 8 ? std::array<int, 3>{8, 6, 8}
                                      : std::array<int, 3>{8, 6, 4};
  run_ranks(p, [&](Comm& comm) {
    const std::uint64_t seed = fuzz_seed() + static_cast<std::uint64_t>(p) * 31;
    const std::vector<DecompCodecCase> cases = {
        {"raw", nullptr, true, 0.0},
        {"lossless", std::make_shared<ByteplaneRleCodec>(), true, 0.0},
        {"fp32", std::make_shared<CastFp32Codec>(), false, 1e-4},
        {"szq", std::make_shared<SzqCodec>(1e-7), false, 1e-4},
    };
    for (const auto& cc : cases) {
      auto run = [&](FftAlgorithm algo) {
        Fft3dOptions o;
        o.backend = ExchangeBackend::kOsc;
        o.gpus_per_node = 2;
        o.codec = cc.codec;
        o.algorithm = algo;
        Fft3d<double> fft(comm, n, o);
        auto in = decomp_brick_field(fft.inbox(), seed);
        std::vector<std::complex<double>> spec(fft.local_count());
        std::vector<std::complex<double>> back(fft.local_count());
        fft.forward(in, spec);
        fft.backward(spec, back);
        return std::tuple(std::move(in), std::move(spec), std::move(back));
      };
      const auto [in_p, spec_p, back_p] = run(FftAlgorithm::kPencil);
      const auto [in_s, spec_s, back_s] = run(FftAlgorithm::kSlab);
      // Determinism: a second pass of each pipeline is bitwise identical.
      const auto [in_p2, spec_p2, back_p2] = run(FftAlgorithm::kPencil);
      const auto [in_s2, spec_s2, back_s2] = run(FftAlgorithm::kSlab);
      EXPECT_TRUE(bitwise_equal(spec_p, spec_p2)) << cc.name;
      EXPECT_TRUE(bitwise_equal(back_p, back_p2)) << cc.name;
      EXPECT_TRUE(bitwise_equal(spec_s, spec_s2)) << cc.name;
      EXPECT_TRUE(bitwise_equal(back_s, back_s2)) << cc.name;
      ASSERT_TRUE(bitwise_equal(in_p, in_s)) << cc.name;
      if (cc.exact) {
        EXPECT_TRUE(bitwise_equal(spec_p, spec_s)) << cc.name;
        EXPECT_TRUE(bitwise_equal(back_p, back_s)) << cc.name;
        EXPECT_LT(max_abs_diff(back_p, in_p), 1e-9) << cc.name;
      } else {
        EXPECT_LT(max_abs_diff(spec_p, spec_s),
                  cc.tol * static_cast<double>(n[0] * n[1] * n[2]))
            << cc.name;
        EXPECT_LT(max_abs_diff(back_p, in_p), cc.tol) << cc.name;
        EXPECT_LT(max_abs_diff(back_s, in_s), cc.tol) << cc.name;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ExchangeFuzzDecomp, ::testing::Values(2, 4, 8),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

TEST(ExchangeFuzzDecomp, AutoMatchesItsResolvedFixedConfiguration) {
  // kAuto must be a pure planning-time choice: an Fft3d configured
  // explicitly with the decomposition kAuto resolved to (same algorithm,
  // same pencil grid) produces bitwise-identical spectra and inverses.
  for (const int p : {2, 4, 8}) {
    run_ranks(p, [&](Comm& comm) {
      const std::array<int, 3> n{8, 8, 8};
      Fft3dOptions ao;
      ao.backend = ExchangeBackend::kOsc;
      ao.gpus_per_node = 2;
      ao.algorithm = FftAlgorithm::kAuto;
      Fft3d<double> tuned(comm, n, ao);
      ASSERT_TRUE(tuned.decomp_decision().has_value()) << "p=" << p;
      ASSERT_NE(tuned.algorithm(), FftAlgorithm::kAuto) << "p=" << p;
      Fft3dOptions fo = ao;
      fo.algorithm = tuned.algorithm();
      fo.pencil_grid = tuned.pencil_grid();
      Fft3d<double> fixed(comm, n, fo);
      const auto in =
          decomp_brick_field(tuned.inbox(),
                             fuzz_seed() + static_cast<std::uint64_t>(p) * 7);
      std::vector<std::complex<double>> spec_a(tuned.local_count());
      std::vector<std::complex<double>> spec_f(fixed.local_count());
      std::vector<std::complex<double>> back_a(tuned.local_count());
      std::vector<std::complex<double>> back_f(fixed.local_count());
      tuned.forward(in, spec_a);
      fixed.forward(in, spec_f);
      tuned.backward(spec_a, back_a);
      fixed.backward(spec_f, back_f);
      EXPECT_TRUE(bitwise_equal(spec_a, spec_f)) << "p=" << p;
      EXPECT_TRUE(bitwise_equal(back_a, back_f)) << "p=" << p;
      EXPECT_LT(max_abs_diff(back_a, in), 1e-9) << "p=" << p;
    });
  }
}

}  // namespace
}  // namespace lossyfft::osc
