#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/lossless.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/window.hpp"
#include "osc/exchange_plan.hpp"
#include "osc/schedule.hpp"

namespace lossyfft::osc {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

struct Layout {
  std::vector<std::uint64_t> sc, sd, rc, rd;
  std::vector<double> send;
  std::vector<double> recv;

  // One exchange of send into recv through a one-off plan.
  ExchangeStats exchange(Comm& comm, PlanBackend backend,
                         const OscOptions& o) {
    return ExchangePlan(comm, backend, sc, sd, rc, rd, recv, o)
        .execute(send, recv);
  }
};

// Triangular per-pair counts with unique cell values.
Layout make_layout(int p, int me, bool uneven) {
  Layout l;
  const auto count = [&](int s, int d) {
    return uneven ? static_cast<std::uint64_t>(3 * s + 2 * d + 1)
                  : std::uint64_t{32};
  };
  l.sc.resize(static_cast<std::size_t>(p));
  l.sd.resize(static_cast<std::size_t>(p));
  l.rc.resize(static_cast<std::size_t>(p));
  l.rd.resize(static_cast<std::size_t>(p));
  std::uint64_t st = 0, rt = 0;
  for (int r = 0; r < p; ++r) {
    l.sc[static_cast<std::size_t>(r)] = count(me, r);
    l.rc[static_cast<std::size_t>(r)] = count(r, me);
    l.sd[static_cast<std::size_t>(r)] = st;
    l.rd[static_cast<std::size_t>(r)] = rt;
    st += l.sc[static_cast<std::size_t>(r)];
    rt += l.rc[static_cast<std::size_t>(r)];
  }
  l.send.resize(st);
  l.recv.resize(rt, -999.0);
  for (int d = 0; d < p; ++d) {
    for (std::uint64_t k = 0; k < l.sc[static_cast<std::size_t>(d)]; ++k) {
      l.send[l.sd[static_cast<std::size_t>(d)] + k] =
          std::sin(0.1 * me + 0.01 * d + 0.001 * static_cast<double>(k)) + 1.5;
    }
  }
  return l;
}

double expected_cell(int s, int me, std::uint64_t k) {
  return std::sin(0.1 * s + 0.01 * me + 0.001 * static_cast<double>(k)) + 1.5;
}

void expect_delivery(int p, int me, const Layout& l, double tol) {
  for (int s = 0; s < p; ++s) {
    for (std::uint64_t k = 0; k < l.rc[static_cast<std::size_t>(s)]; ++k) {
      EXPECT_NEAR(l.recv[l.rd[static_cast<std::size_t>(s)] + k],
                  expected_cell(s, me, k), tol)
          << "src=" << s << " k=" << k;
    }
  }
}

TEST(ChunkPartition, CoversExactlyAndAlignsToFour) {
  for (const std::uint64_t n : {0ull, 1ull, 4ull, 5ull, 63ull, 64ull, 1000ull}) {
    for (const int c : {1, 2, 8, 16}) {
      const auto parts = chunk_partition(n, c);
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        sum += parts[i];
        if (i + 1 < parts.size()) {
          EXPECT_EQ(parts[i] % 4, 0u);
        }
      }
      EXPECT_EQ(sum, n) << n << "/" << c;
      EXPECT_LE(parts.size(), static_cast<std::size_t>(c) + 1);
    }
  }
}

TEST(ChunkPartition, RejectsZeroChunks) {
  EXPECT_THROW(chunk_partition(10, 0), Error);
}

struct OscCase {
  int ranks;
  int gpn;
  int chunks;
  bool uneven;
  OscSync sync = OscSync::kFence;
};

class OscSweep : public ::testing::TestWithParam<OscCase> {};

TEST_P(OscSweep, UncompressedMatchesExactly) {
  const auto c = GetParam();
  run_ranks(c.ranks, [&](Comm& comm) {
    auto l = make_layout(c.ranks, comm.rank(), c.uneven);
    OscOptions o;
    o.chunks = c.chunks;
    o.gpus_per_node = c.gpn;
    o.sync = c.sync;
    const auto st = l.exchange(comm, PlanBackend::kOneSided, o);
    expect_delivery(c.ranks, comm.rank(), l, 0.0);
    EXPECT_EQ(st.wire_bytes, st.payload_bytes);  // Identity codec.
    EXPECT_EQ(st.rounds, ring_rounds(c.ranks, c.gpn));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OscSweep,
    ::testing::Values(OscCase{1, 6, 1, false}, OscCase{2, 6, 4, true},
                      OscCase{6, 6, 2, true}, OscCase{8, 2, 8, true},
                      OscCase{12, 6, 1, true}, OscCase{12, 6, 8, false},
                      OscCase{9, 4, 3, true},
                      OscCase{1, 6, 1, false, OscSync::kPscw},
                      OscCase{6, 6, 2, true, OscSync::kPscw},
                      OscCase{8, 2, 8, true, OscSync::kPscw},
                      OscCase{12, 6, 8, false, OscSync::kPscw},
                      OscCase{9, 4, 3, true, OscSync::kPscw}),
    [](const auto& info) {
      return "p" + std::to_string(info.param.ranks) + "_g" +
             std::to_string(info.param.gpn) + "_c" +
             std::to_string(info.param.chunks) +
             (info.param.uneven ? "_uneven" : "_even") +
             (info.param.sync == OscSync::kPscw ? "_pscw" : "");
    });

TEST(OscAlltoallv, Fp32CodecHalvesWireAndBoundsError) {
  run_ranks(6, [](Comm& comm) {
    auto l = make_layout(6, comm.rank(), true);
    OscOptions o;
    o.codec = std::make_shared<CastFp32Codec>();
    o.chunks = 4;
    const auto st = l.exchange(comm, PlanBackend::kOneSided, o);
    expect_delivery(6, comm.rank(), l, 3e-7);  // Values are O(1).
    EXPECT_NEAR(st.compression_ratio(), 2.0, 1e-9);
  });
}

TEST(OscAlltoallv, Fp16CodecQuartersWire) {
  run_ranks(6, [](Comm& comm) {
    auto l = make_layout(6, comm.rank(), false);
    OscOptions o;
    o.codec = std::make_shared<CastFp16Codec>();
    o.chunks = 2;
    const auto st = l.exchange(comm, PlanBackend::kOneSided, o);
    expect_delivery(6, comm.rank(), l, 2e-3);
    EXPECT_NEAR(st.compression_ratio(), 4.0, 1e-9);
  });
}

TEST(OscAlltoallv, BitTrimCodecWorksChunked) {
  run_ranks(4, [](Comm& comm) {
    auto l = make_layout(4, comm.rank(), true);
    OscOptions o;
    o.codec = std::make_shared<BitTrimCodec>(20);  // Rate 2 exactly.
    o.chunks = 8;
    const auto st = l.exchange(comm, PlanBackend::kOneSided, o);
    expect_delivery(4, comm.rank(), l, std::ldexp(1.0, -20));
    EXPECT_NEAR(st.compression_ratio(), 2.0, 0.05);  // Byte padding slack.
  });
}

TEST(OscAlltoallv, VariableRateCodecUsesOneChunkPath) {
  run_ranks(4, [](Comm& comm) {
    auto l = make_layout(4, comm.rank(), true);
    OscOptions o;
    o.codec = std::make_shared<SzqCodec>(1e-8);
    o.chunks = 8;  // Must be ignored for variable-rate codecs.
    const auto st = l.exchange(comm, PlanBackend::kOneSided, o);
    expect_delivery(4, comm.rank(), l, 1e-8 * (1 + 1e-9));
    EXPECT_EQ(st.chunks_issued, st.messages);
  });
}

TEST(OscAlltoallv, LosslessCodecDeliversExactly) {
  run_ranks(4, [](Comm& comm) {
    auto l = make_layout(4, comm.rank(), false);
    OscOptions o;
    o.codec = std::make_shared<ByteplaneRleCodec>();
    l.exchange(comm, PlanBackend::kOneSided, o);
    expect_delivery(4, comm.rank(), l, 0.0);
  });
}

TEST(OscAlltoallv, ZfpxCodecChunksOnBlockBoundaries) {
  run_ranks(4, [](Comm& comm) {
    auto l = make_layout(4, comm.rank(), true);
    OscOptions o;
    o.codec = std::make_shared<Zfpx1dCodec>(32);
    o.chunks = 4;
    l.exchange(comm, PlanBackend::kOneSided, o);
    expect_delivery(4, comm.rank(), l, 1e-6);
  });
}

TEST(PlanPipelineChunks, LargeMessagesGetMoreChunks) {
  const int small = plan_pipeline_chunks(32 * 1024, 2.0);
  const int large = plan_pipeline_chunks(256ull << 20, 2.0);
  EXPECT_GE(large, small);
  EXPECT_GE(small, 1);
  EXPECT_LE(large, 64);
  // Tiny messages must not be shredded into launch-overhead confetti.
  EXPECT_LE(plan_pipeline_chunks(1024, 4.0), 2);
}

TEST(OscAlltoallv, AutoChunksDeliverCorrectly) {
  run_ranks(6, [](Comm& comm) {
    auto l = make_layout(6, comm.rank(), true);
    OscOptions o;
    o.codec = std::make_shared<CastFp32Codec>();
    o.chunks = 0;  // Model-driven per-message chunking.
    const auto st = l.exchange(comm, PlanBackend::kOneSided, o);
    expect_delivery(6, comm.rank(), l, 3e-7);
    EXPECT_GE(st.chunks_issued, st.messages);
  });
}

TEST(OscAlltoallv, PscwSyncMatchesFenceSync) {
  run_ranks(12, [](Comm& comm) {
    auto a = make_layout(12, comm.rank(), true);
    auto b = make_layout(12, comm.rank(), true);
    OscOptions fence;
    fence.gpus_per_node = 6;
    OscOptions pscw = fence;
    pscw.sync = OscSync::kPscw;
    a.exchange(comm, PlanBackend::kOneSided, fence);
    b.exchange(comm, PlanBackend::kOneSided, pscw);
    ASSERT_EQ(a.recv.size(), b.recv.size());
    for (std::size_t i = 0; i < a.recv.size(); ++i) {
      EXPECT_EQ(a.recv[i], b.recv[i]) << i;
    }
  });
}

TEST(OscAlltoallv, PscwWithCompressionAndUnevenNodes) {
  run_ranks(10, [](Comm& comm) {  // 3 nodes of 4/4/2 ranks.
    auto l = make_layout(10, comm.rank(), true);
    OscOptions o;
    o.gpus_per_node = 4;
    o.sync = OscSync::kPscw;
    o.codec = std::make_shared<CastFp32Codec>();
    o.chunks = 4;
    const auto st = l.exchange(comm, PlanBackend::kOneSided, o);
    expect_delivery(10, comm.rank(), l, 3e-7);
    EXPECT_NEAR(st.compression_ratio(), 2.0, 1e-9);
  });
}

TEST(WindowPscw, ScopedEpochSynchronizesOnlyParticipants) {
  run_ranks(4, [](Comm& comm) {
    std::vector<double> store(4, 0.0);
    minimpi::Window win(
        comm, std::as_writable_bytes(std::span<double>(store)));
    // Pairwise epochs: 0 <-> 1 and 2 <-> 3, no global synchronization.
    const int partner = comm.rank() ^ 1;
    const int origins[1] = {partner};
    win.post(std::span<const int>(origins, 1));
    win.start(std::span<const int>(origins, 1));
    const double v = 10.0 + comm.rank();
    win.put(std::as_bytes(std::span<const double>(&v, 1)), partner,
            static_cast<std::size_t>(comm.rank()) * sizeof(double));
    win.complete();
    win.wait_posted();
    EXPECT_DOUBLE_EQ(store[static_cast<std::size_t>(partner)], 10.0 + partner);
  });
}

TEST(WindowPscw, DoubleStartRejected) {
  run_ranks(2, [](Comm& comm) {
    std::vector<std::byte> store(8);
    minimpi::Window win(comm, store);
    const int peer[1] = {(comm.rank() + 1) % 2};
    win.post(std::span<const int>(peer, 1));
    win.start(std::span<const int>(peer, 1));
    EXPECT_THROW(win.start(std::span<const int>(peer, 1)), Error);
    EXPECT_THROW(win.post(std::span<const int>(peer, 1)), Error);
    win.complete();
    win.wait_posted();
  });
}

TEST(WindowAccumulate, SumsContributionsFromAllRanks) {
  run_ranks(4, [](Comm& comm) {
    std::vector<double> store(3, 1.0);
    minimpi::Window win(
        comm, std::as_writable_bytes(std::span<double>(store)));
    win.fence();
    const double mine[3] = {1.0 * comm.rank(), 10.0, 0.5};
    for (int r = 0; r < 4; ++r) {
      win.accumulate_add(std::span<const double>(mine, 3), r, 0);
    }
    win.fence();
    EXPECT_DOUBLE_EQ(store[0], 1.0 + 0 + 1 + 2 + 3);
    EXPECT_DOUBLE_EQ(store[1], 1.0 + 4 * 10.0);
    EXPECT_DOUBLE_EQ(store[2], 1.0 + 4 * 0.5);
  });
}

TEST(WindowAccumulate, RejectsMisalignedOffset) {
  run_ranks(2, [](Comm& comm) {
    std::vector<double> store(2);
    minimpi::Window win(
        comm, std::as_writable_bytes(std::span<double>(store)));
    win.fence();
    const double v = 1.0;
    EXPECT_THROW(win.accumulate_add(std::span<const double>(&v, 1),
                                    (comm.rank() + 1) % 2, 4),
                 Error);
    win.fence();
  });
}

TEST(OscAlltoallv, RepeatedExchangesAccumulateStats) {
  run_ranks(4, [](Comm& comm) {
    OscOptions o;
    o.codec = std::make_shared<CastFp32Codec>();
    std::uint64_t wire = 0;
    for (int it = 0; it < 3; ++it) {
      auto l = make_layout(4, comm.rank(), false);
      const auto st = l.exchange(comm, PlanBackend::kOneSided, o);
      if (it == 0) {
        wire = st.wire_bytes;
      } else {
        EXPECT_EQ(st.wire_bytes, wire);  // Deterministic per call.
      }
    }
  });
}

TEST(CompressedAlltoallv, MatchesOscResults) {
  run_ranks(6, [](Comm& comm) {
    auto a = make_layout(6, comm.rank(), true);
    auto b = make_layout(6, comm.rank(), true);
    OscOptions o;
    o.codec = std::make_shared<CastFp32Codec>();
    a.exchange(comm, PlanBackend::kOneSided, o);
    b.exchange(comm, PlanBackend::kTwoSided, o);
    // Same codec, same payload: identical lossy results.
    ASSERT_EQ(a.recv.size(), b.recv.size());
    for (std::size_t i = 0; i < a.recv.size(); ++i) {
      EXPECT_EQ(a.recv[i], b.recv[i]) << i;
    }
  });
}

TEST(CompressedAlltoallv, VariableCodecSizesExchanged) {
  run_ranks(5, [](Comm& comm) {
    auto l = make_layout(5, comm.rank(), true);
    OscOptions o;
    o.codec = std::make_shared<SzqCodec>(1e-6);
    const auto st = l.exchange(comm, PlanBackend::kTwoSided, o);
    expect_delivery(5, comm.rank(), l, 1e-6 * (1 + 1e-9));
    EXPECT_GT(st.compression_ratio(), 1.0);  // Smooth-ish payload shrinks.
  });
}

TEST(OscAlltoallv, RejectsWrongArity) {
  run_ranks(2, [](Comm& comm) {
    std::vector<std::uint64_t> one(1, 0), two(2, 0);
    OscOptions o;
    EXPECT_THROW(ExchangePlan(comm, PlanBackend::kOneSided, one, two, two,
                              two, {}, o),
                 Error);
    comm.barrier();
  });
}

}  // namespace
}  // namespace lossyfft::osc
