#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/truncate.hpp"
#include "dfft/decomp.hpp"
#include "dfft/reshape.hpp"
#include "minimpi/runtime.hpp"

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

namespace lossyfft {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

// Global-index fingerprint: value at global (x, y, z) is unique, so any
// misplaced element is detected after redistribution.
std::complex<double> fingerprint(int x, int y, int z) {
  return {x + 100.0 * y + 10000.0 * z, 0.5 * x - 0.25 * y + z};
}

std::vector<std::complex<double>> fill_box(const Box3& b) {
  std::vector<std::complex<double>> v(static_cast<std::size_t>(b.count()));
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z)
    for (int y = b.lo[1]; y < b.hi(1); ++y)
      for (int x = b.lo[0]; x < b.hi(0); ++x) v[i++] = fingerprint(x, y, z);
  return v;
}

void expect_box(const Box3& b, std::span<const std::complex<double>> v,
                double tol) {
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z)
    for (int y = b.lo[1]; y < b.hi(1); ++y)
      for (int x = b.lo[0]; x < b.hi(0); ++x) {
        const auto want = fingerprint(x, y, z);
        EXPECT_NEAR(std::abs(v[i] - want), 0.0, tol)
            << "(" << x << "," << y << "," << z << ")";
        ++i;
      }
}

struct RCase {
  std::array<int, 3> n;
  int ranks;
  ExchangeBackend backend;
};

class ReshapeSweep : public ::testing::TestWithParam<RCase> {};

TEST_P(ReshapeSweep, BrickToPencilDeliversEveryElement) {
  const auto c = GetParam();
  run_ranks(c.ranks, [&](Comm& comm) {
    const auto bricks = split_brick(c.n, proc_grid3(c.ranks));
    for (int dir = 0; dir < 3; ++dir) {
      const auto pencils = split_pencil(c.n, dir, c.ranks);
      ReshapeOptions o;
      o.backend = c.backend;
      o.gpus_per_node = 3;
      Reshape<std::complex<double>> rs(comm, bricks, pencils, o);
      const auto in = fill_box(rs.inbox());
      std::vector<std::complex<double>> out(
          static_cast<std::size_t>(rs.outbox().count()));
      rs.execute(in, out);
      expect_box(rs.outbox(), out, 0.0);
    }
  });
}

TEST_P(ReshapeSweep, PencilToPencilChain) {
  const auto c = GetParam();
  run_ranks(c.ranks, [&](Comm& comm) {
    const auto xp = split_pencil(c.n, 0, c.ranks);
    const auto yp = split_pencil(c.n, 1, c.ranks);
    ReshapeOptions o;
    o.backend = c.backend;
    Reshape<std::complex<double>> rs(comm, xp, yp, o);
    const auto in = fill_box(rs.inbox());
    std::vector<std::complex<double>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);
    expect_box(rs.outbox(), out, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ReshapeSweep,
    ::testing::Values(RCase{{8, 8, 8}, 1, ExchangeBackend::kPairwise},
                      RCase{{8, 8, 8}, 4, ExchangeBackend::kPairwise},
                      RCase{{8, 8, 8}, 4, ExchangeBackend::kOsc},
                      RCase{{12, 6, 10}, 6, ExchangeBackend::kPairwise},
                      RCase{{12, 6, 10}, 6, ExchangeBackend::kOsc},
                      RCase{{7, 9, 5}, 5, ExchangeBackend::kPairwise},
                      RCase{{7, 9, 5}, 5, ExchangeBackend::kOsc},
                      RCase{{16, 16, 16}, 8, ExchangeBackend::kPairwise}),
    [](const auto& info) {
      const auto& c = info.param;
      return std::string(to_string(c.backend)) + "_p" +
             std::to_string(c.ranks) + "_n" + std::to_string(c.n[0]) + "x" +
             std::to_string(c.n[1]) + "x" + std::to_string(c.n[2]);
    });

TEST(Reshape, RoundTripBrickPencilBrickIsIdentity) {
  run_ranks(6, [](Comm& comm) {
    const std::array<int, 3> n{10, 12, 6};
    const auto bricks = split_brick(n, proc_grid3(6));
    const auto pencils = split_pencil(n, 2, 6);
    ReshapeOptions o;
    Reshape<std::complex<double>> fwd(comm, bricks, pencils, o);
    Reshape<std::complex<double>> bwd(comm, pencils, bricks, o);
    const auto in = fill_box(fwd.inbox());
    std::vector<std::complex<double>> mid(
        static_cast<std::size_t>(fwd.outbox().count()));
    std::vector<std::complex<double>> back(in.size());
    fwd.execute(in, mid);
    bwd.execute(mid, back);
    for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(back[i], in[i]);
  });
}

TEST(Reshape, CompressedExchangeBoundsError) {
  run_ranks(4, [](Comm& comm) {
    // Bricks to y-pencils: the {1, 2, 2} brick grid equals the x-pencil
    // grid, so brick -> x-pencil would never touch the codec.
    const std::array<int, 3> n{8, 8, 8};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 1, 4);
    ReshapeOptions o;
    o.backend = ExchangeBackend::kOsc;
    o.codec = std::make_shared<CastFp32Codec>();
    Reshape<std::complex<double>> rs(comm, bricks, pencils, o);
    const auto in = fill_box(rs.inbox());
    std::vector<std::complex<double>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);
    // Fingerprint magnitudes reach ~7e4; FP32 keeps ~7 digits.
    expect_box(rs.outbox(), out, 1e-2);
    EXPECT_NEAR(rs.stats().compression_ratio(), 2.0, 1e-9);
  });
}

// Float images of fill_box(): the real part for float, both parts for
// complex<float>, negated in odd fields so a field mix-up shows. The
// fingerprints of grids up to 9x7x5 are exact in float.
template <typename E>
std::vector<E> float_box(const Box3& b, int fields) {
  std::vector<E> v;
  for (int f = 0; f < fields; ++f) {
    for (const auto& c : fill_box(b)) {
      const auto s = f % 2 == 0 ? c : -c;
      if constexpr (std::is_same_v<E, float>) {
        v.push_back(static_cast<float>(s.real()));
      } else {
        v.emplace_back(static_cast<float>(s.real()),
                       static_cast<float>(s.imag()));
      }
    }
  }
  return v;
}

template <typename E>
void check_float_reshape(Comm& comm, const std::vector<Box3>& from,
                         const std::vector<Box3>& to, const ReshapeOptions& o,
                         const std::string& where) {
  Reshape<E> rs(comm, from, to, o);
  const int fields = o.batch;
  const auto in = float_box<E>(rs.inbox(), fields);
  const auto want = float_box<E>(rs.outbox(), fields);
  std::vector<E> out(want.size());
  for (int it = 0; it < 2; ++it) {
    std::fill(out.begin(), out.end(), E(-7));
    if (fields == 1) {
      rs.execute(in, out);
    } else {
      rs.execute_batch(in, out, fields);
    }
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (std::memcmp(&out[i], &want[i], sizeof(E)) != 0) ++wrong;
    }
    EXPECT_EQ(wrong, 0u) << where << " it=" << it;
  }
}

TEST(Reshape, FloatFieldsExchangeRaw) {
  // Float fields travel raw on both backends. Bricks -> y-pencils of a
  // 9x7x5 grid on 4 ranks give odd float message counts; every element
  // must land at its fill position on every transport, single-field and
  // batched, over two executes of one plan.
  struct Transport {
    ExchangeBackend backend;
    osc::OscSync sync;
    const char* name;
  };
  const Transport transports[] = {
      {ExchangeBackend::kPairwise, osc::OscSync::kFence, "pairwise"},
      {ExchangeBackend::kOsc, osc::OscSync::kFence, "osc-fence"},
      {ExchangeBackend::kOsc, osc::OscSync::kPscw, "osc-pscw"}};
  run_ranks(4, [&](Comm& comm) {
    const std::array<int, 3> n{9, 7, 5};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 1, 4);
    for (const auto& t : transports) {
      for (const int batch : {1, 2}) {
        ReshapeOptions o;
        o.backend = t.backend;
        o.osc_sync = t.sync;
        o.gpus_per_node = 2;
        o.batch = batch;
        const std::string where =
            std::string(t.name) + " batch=" + std::to_string(batch);
        check_float_reshape<float>(comm, bricks, pencils, o,
                                   "float " + where);
        check_float_reshape<std::complex<float>>(comm, bricks, pencils, o,
                                                 "complex<float> " + where);
      }
    }
  });
}

TEST(Reshape, RawPairwiseExecuteAllocatesNothingAfterWarmup) {
  // After one warm execute, the raw pairwise exchange of a double-based
  // and a float field allocates nothing, single-field or batched.
  const auto check = []<typename E>(Comm& comm, Reshape<E>& rs, int fields) {
    const auto in_n = static_cast<std::size_t>(rs.inbox().count());
    const auto out_n = static_cast<std::size_t>(rs.outbox().count());
    std::vector<E> in(in_n * static_cast<std::size_t>(fields), E(1));
    std::vector<E> out(out_n * static_cast<std::size_t>(fields));
    const std::span<const E> one(in.data(), in_n);
    const std::span<E> one_out(out.data(), out_n);
    rs.execute(one, one_out);
    rs.execute_batch(in, out, fields);
    comm.barrier();
    t_allocs = 0;
    t_count_allocs = true;
    for (int it = 0; it < 2; ++it) {
      rs.execute(one, one_out);
      rs.execute_batch(in, out, fields);
    }
    t_count_allocs = false;
    comm.barrier();
    EXPECT_EQ(t_allocs, 0u) << "rank " << comm.rank() << " elem " << sizeof(E);
  };
  run_ranks(4, [&](Comm& comm) {
    const std::array<int, 3> n{9, 7, 5};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 1, 4);
    ReshapeOptions o;
    o.batch = 2;
    Reshape<std::complex<double>> rc(comm, bricks, pencils, o);
    check(comm, rc, 2);
    Reshape<float> rf(comm, bricks, pencils, o);
    check(comm, rf, 2);
  });
}

TEST(Reshape, RawPairwiseDeliversEveryElementAcrossThresholds) {
  // The raw pairwise plan (its sink unpacking inside recv_consume straight
  // from the sender's buffer, no recvbuf_) must deliver every element at every
  // transport regime: all-eager, the default crossover, and
  // all-rendezvous (true zero-copy from the peer's send slice).
  const std::size_t thresholds[] = {minimpi::kEagerOnlyThreshold, 4096, 0};
  for (const std::size_t threshold : thresholds) {
    minimpi::MinimpiOptions mo;
    mo.rendezvous_threshold = threshold;
    run_ranks(6, mo, [&](Comm& comm) {
      const std::array<int, 3> n{12, 10, 6};
      const auto bricks = split_brick(n, proc_grid3(6));
      const auto pencils = split_pencil(n, 1, 6);
      ReshapeOptions o;
      o.batch = 2;  // Two packed banks, exchanged field by field.
      Reshape<std::complex<double>> rs(comm, bricks, pencils, o);
      EXPECT_FALSE(rs.pack_elided());
      auto in = fill_box(rs.inbox());
      const auto in_n = in.size();
      in.resize(2 * in_n);
      std::copy_n(in.begin(), in_n, in.begin() + in_n);
      const auto out_n = static_cast<std::size_t>(rs.outbox().count());
      std::vector<std::complex<double>> out(2 * out_n);
      for (int it = 0; it < 2; ++it) {
        std::fill(out.begin(), out.end(), std::complex<double>{-1, -1});
        rs.execute_batch(in, out, 2);
        expect_box(rs.outbox(), std::span(out).first(out_n), 0.0);
        expect_box(rs.outbox(), std::span(out).last(out_n), 0.0);
      }
      // Float fields ride the same raw path; check the element-size
      // genericity of the unpack as well (real parts of the fingerprint).
      Reshape<float> rf(comm, bricks, pencils, {});
      std::vector<float> fin;
      for (const auto& v : fill_box(rf.inbox())) {
        fin.push_back(static_cast<float>(v.real()));
      }
      std::vector<float> fout(static_cast<std::size_t>(rf.outbox().count()));
      rf.execute(std::span<const float>(fin), std::span<float>(fout));
      const auto want = fill_box(rf.outbox());
      for (std::size_t i = 0; i < fout.size(); ++i) {
        ASSERT_EQ(fout[i], static_cast<float>(want[i].real()))
            << "threshold=" << threshold << " i=" << i;
      }
    });
  }
}

TEST(Reshape, PackElisionFiresOnCompatibleGeometryAndDeliversEveryElement) {
  // z-pencils {2, 4} -> bricks {2, 2, 2} on a cubic grid: every sub-volume
  // a rank sends spans full x and y of its pencil, so the pack stage is an
  // identity copy and elides — the exchange reads straight out of the
  // field. Every backend must put each fingerprint in place: raw pairwise,
  // one-sided raw, and the fp32 wire (the fingerprints of this grid are
  // exact in fp32, so their per-element cast is the raw value).
  run_ranks(8, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    const auto zp = split_pencil(n, 2, std::array<int, 2>{2, 4});
    const auto bricks = split_brick(n, {2, 2, 2});
    ReshapeOptions osc;
    osc.backend = ExchangeBackend::kOsc;
    osc.gpus_per_node = 2;
    ReshapeOptions codec = osc;
    codec.codec = std::make_shared<CastFp32Codec>();
    for (const auto& o : {ReshapeOptions{}, osc, codec}) {
      Reshape<std::complex<double>> rs(comm, zp, bricks, o);
      EXPECT_TRUE(rs.pack_elided()) << to_string(o.backend);
      const auto in = fill_box(rs.inbox());
      std::vector<std::complex<double>> out(
          static_cast<std::size_t>(rs.outbox().count()), {-1, -1});
      for (int it = 0; it < 2; ++it) {
        rs.execute(in, out);
        expect_box(rs.outbox(), out, 0.0);
      }
    }

    // Incompatible geometry (x-pencils -> y-pencils: sends take a partial
    // x range over multiple rows) keeps packing.
    Reshape<std::complex<double>> strided(comm, split_pencil(n, 0, 8),
                                          split_pencil(n, 1, 8),
                                          ReshapeOptions{});
    EXPECT_FALSE(strided.pack_elided());
  });
}

TEST(Reshape, FloatWithCodecRejected) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{4, 4, 4};
    ReshapeOptions o;
    o.codec = std::make_shared<CastFp32Codec>();
    EXPECT_THROW(Reshape<std::complex<float>>(comm, split_brick(n, proc_grid3(2)),
                                split_pencil(n, 0, 2), o),
                 Error);
    comm.barrier();
  });
}

TEST(Reshape, MismatchedSpansRejected) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{4, 4, 4};
    Reshape<std::complex<double>> rs(comm, split_brick(n, proc_grid3(2)),
                       split_pencil(n, 0, 2), ReshapeOptions{});
    std::vector<std::complex<double>> wrong(3), out(
        static_cast<std::size_t>(rs.outbox().count()));
    EXPECT_THROW(rs.execute(wrong, out), Error);
    comm.barrier();
  });
}

TEST(Reshape, RandomDecompositionsRoundTrip) {
  // Property: for ANY pair of tilings of the grid (not just bricks and
  // pencils), reshape A->B followed by B->A is the identity. Random
  // brick-grid tilings with uneven splits exercise degenerate overlaps.
  const std::array<int, 3> n{12, 10, 8};
  const int p = 6;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // Random process-grid tiling: pick a random factorization of p and
    // (deterministically) uneven interval splits.
    Xoshiro256 rng(seed);
    const std::array<std::array<int, 3>, 4> grids = {
        std::array<int, 3>{6, 1, 1}, {1, 6, 1}, {2, 3, 1}, {3, 1, 2}};
    const auto ga = grids[rng.below(4)];
    const auto gb = grids[rng.below(4)];
    const auto boxes_a = split_brick(n, ga);
    const auto boxes_b = split_brick(n, gb);
    run_ranks(p, [&](Comm& comm) {
      ReshapeOptions o;
      o.backend = seed % 2 == 0 ? ExchangeBackend::kOsc
                                : ExchangeBackend::kPairwise;
      Reshape<std::complex<double>> fwd(comm, boxes_a, boxes_b, o);
      Reshape<std::complex<double>> bwd(comm, boxes_b, boxes_a, o);
      const auto in = fill_box(fwd.inbox());
      std::vector<std::complex<double>> mid(
          static_cast<std::size_t>(fwd.outbox().count()));
      std::vector<std::complex<double>> back(in.size());
      fwd.execute(in, mid);
      expect_box(fwd.outbox(), mid, 0.0);
      bwd.execute(mid, back);
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(back[i], in[i]);
      }
    });
  }
}

TEST(Reshape, RecordsExchangeTime) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    Reshape<std::complex<double>> rs(comm, split_brick(n, proc_grid3(2)),
                                     split_pencil(n, 0, 2), ReshapeOptions{});
    const auto in = fill_box(rs.inbox());
    std::vector<std::complex<double>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);
    EXPECT_GT(rs.stats().seconds, 0.0);
  });
}

TEST(Reshape, StatsAccumulatePayload) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    for (int dir = 0; dir < 3; ++dir) {
      Reshape<std::complex<double>> rs(comm, split_brick(n, proc_grid3(4)),
                                       split_pencil(n, dir, 4),
                                       ReshapeOptions{});
      const auto in = fill_box(rs.inbox());
      std::vector<std::complex<double>> out(
          static_cast<std::size_t>(rs.outbox().count()));
      rs.execute(in, out);
      rs.execute(in, out);
      // Two executions, each moving the rank's off-rank volume: its inbox
      // minus the self-block (16 bytes/elem). x-pencils share the brick
      // grid, so that reshape moves nothing.
      const auto off =
          rs.inbox().count() - Box3::intersect(rs.inbox(), rs.outbox()).count();
      if (dir > 0) {
        EXPECT_GT(off, 0);
      }
      EXPECT_EQ(rs.stats().payload_bytes,
                2ull * static_cast<std::uint64_t>(off) * 16)
          << "dir=" << dir;
      EXPECT_EQ(rs.stats().wire_bytes, rs.stats().payload_bytes);
    }
  });
}

// O(1) pseudo-random values keyed by global index and field: lossy codecs
// need bounded magnitudes (fingerprint() reaches ~7e4, past FP16's range).
std::complex<double> noise_at(int x, int y, int z, int field) {
  Xoshiro256 rng(1 + static_cast<std::uint64_t>(x) +
                 (static_cast<std::uint64_t>(y) << 12) +
                 (static_cast<std::uint64_t>(z) << 24) +
                 (static_cast<std::uint64_t>(field) << 36));
  return {rng.uniform(-1, 1), rng.uniform(-1, 1)};
}

std::vector<std::complex<double>> noise_box(const Box3& b, int fields) {
  std::vector<std::complex<double>> v;
  v.reserve(static_cast<std::size_t>(b.count() * fields));
  for (int f = 0; f < fields; ++f)
    for (int z = b.lo[2]; z < b.hi(2); ++z)
      for (int y = b.lo[1]; y < b.hi(1); ++y)
        for (int x = b.lo[0]; x < b.hi(0); ++x)
          v.push_back(noise_at(x, y, z, f));
  return v;
}

TEST(Reshape, SelfBlockIsExactOnEveryLossyTransport) {
  // x-pencils -> y-pencils on 4 ranks: each rank keeps a quarter of its
  // pencil. That self-block is copied from `in` to `out` and must arrive
  // bitwise exact; only the off-rank regions cross the lossy wire, and
  // they must show codec error within the codec's bound.
  struct LossyCodec {
    CodecPtr codec;
    double rel;  // Relative bound per component.
  };
  const LossyCodec codecs[] = {
      {std::make_shared<CastFp16Codec>(), 0x1p-11},
      {std::make_shared<BitTrimCodec>(20), 0x1p-20}};
  struct Transport {
    ExchangeBackend backend;
    osc::OscSync sync;
  };
  const Transport transports[] = {
      {ExchangeBackend::kPairwise, osc::OscSync::kFence},
      {ExchangeBackend::kOsc, osc::OscSync::kFence},
      {ExchangeBackend::kOsc, osc::OscSync::kPscw}};
  constexpr int kFields = 2;
  run_ranks(4, [&](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    const auto xp = split_pencil(n, 0, 4);
    const auto yp = split_pencil(n, 1, 4);
    for (const auto& c : codecs) {
      for (const auto& t : transports) {
        ReshapeOptions o;
        o.backend = t.backend;
        o.osc_sync = t.sync;
        o.codec = c.codec;
        o.batch = kFields;
        Reshape<std::complex<double>> rs(comm, xp, yp, o);
        const Box3& ob = rs.outbox();
        const Box3 self = Box3::intersect(rs.inbox(), ob);
        ASSERT_FALSE(self.empty());
        ASSERT_LT(self.count(), ob.count());
        const auto in = noise_box(rs.inbox(), kFields);
        const auto want = noise_box(ob, kFields);
        const auto out_n = static_cast<std::size_t>(ob.count());
        for (const bool batched : {false, true}) {
          const int fields = batched ? kFields : 1;
          std::vector<std::complex<double>> out(out_n * fields, {9, 9});
          if (batched) {
            rs.execute_batch(in, out, kFields);
          } else {
            rs.execute(std::span(in).first(in.size() / kFields), out);
          }
          const std::string where = c.codec->name() + " " +
                                    to_string(t.backend) + " sync=" +
                                    std::to_string(static_cast<int>(t.sync)) +
                                    (batched ? " batch" : " single");
          std::size_t lossy = 0;
          for (std::size_t i = 0; i < out.size(); ++i) {
            const std::size_t e = i % out_n;
            const int x = ob.lo[0] + static_cast<int>(e % ob.size[0]);
            const int y = ob.lo[1] +
                          static_cast<int>(e / ob.size[0] % ob.size[1]);
            const int z = ob.lo[2] + static_cast<int>(e / ob.size[0] /
                                                      ob.size[1]);
            if (self.contains(x, y, z)) {
              ASSERT_EQ(std::memcmp(&out[i], &want[i], sizeof(out[i])), 0)
                  << where << " self (" << x << "," << y << "," << z << ")";
              continue;
            }
            if (out[i] != want[i]) ++lossy;
            // FP16 flushes |v| < 2^-14 to subnormals: 2^-25 absolute slack.
            const double tol_re = c.rel * std::abs(want[i].real()) + 0x1p-25;
            const double tol_im = c.rel * std::abs(want[i].imag()) + 0x1p-25;
            ASSERT_LE(std::abs(out[i].real() - want[i].real()), tol_re)
                << where << " off-rank i=" << i;
            ASSERT_LE(std::abs(out[i].imag() - want[i].imag()), tol_im)
                << where << " off-rank i=" << i;
          }
          // The off-rank regions did cross the lossy wire.
          EXPECT_GT(lossy, 0u) << where;
        }
      }
    }
  });
}

TEST(Reshape, SelfOnlyPlannedReshapeRunsNoExchange) {
  // brick -> x-pencil on 4 ranks (the {1, 2, 2} brick grid equals the
  // x-pencil grid) and any reshape on 1 rank move nothing off-rank: no
  // plan, no window, and execute is the self copy alone — no barrier, no
  // message, no allocation.
  const auto check = [](Comm& comm, const std::vector<Box3>& from,
                        const std::vector<Box3>& to, ReshapeOptions o) {
    const std::uint64_t w0 = comm.state().window_begin_count();
    o.batch = 2;
    Reshape<std::complex<double>> rs(comm, from, to, o);
    comm.barrier();
    EXPECT_EQ(comm.state().window_begin_count(), w0);
    EXPECT_EQ(rs.footprint_bytes(), 0u);
    const auto in = fill_box(rs.inbox());
    std::vector<std::complex<double>> in2(in);
    in2.insert(in2.end(), in.begin(), in.end());
    const auto out_n = static_cast<std::size_t>(rs.outbox().count());
    std::vector<std::complex<double>> out(out_n), out2(2 * out_n);

    // Barrier budget: the counter bumps at barrier entry, so the reads are
    // bracketed with bcasts (message-based) instead of barriers.
    std::array<std::byte, 1> tok{};
    comm.barrier();
    std::uint64_t b0 = 0;
    if (comm.rank() == 0) b0 = comm.state().barrier_count();
    comm.bcast(std::span<std::byte>(tok), 0);
    rs.execute(in, out);
    rs.execute_batch(in2, out2, 2);
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.state().barrier_count(), b0);
    }
    comm.bcast(std::span<std::byte>(tok), 0);

    // Message and allocation budget: barriers post no messages.
    comm.barrier();
    const std::uint64_t m0 = comm.state().message_post_count();
    comm.barrier();
    t_allocs = 0;
    t_count_allocs = true;
    rs.execute(in, out);
    rs.execute_batch(in2, out2, 2);
    t_count_allocs = false;
    comm.barrier();
    EXPECT_EQ(comm.state().message_post_count(), m0);
    EXPECT_EQ(t_allocs, 0u);
    // No rank may post (the next construction's allreduce) before every
    // rank has read the counter.
    comm.barrier();

    expect_box(rs.outbox(), out, 0.0);
    expect_box(rs.outbox(), std::span(out2).first(out_n), 0.0);
    expect_box(rs.outbox(), std::span(out2).last(out_n), 0.0);
    EXPECT_EQ(rs.stats().payload_bytes, 0u);
    EXPECT_EQ(rs.stats().wire_bytes, 0u);
    EXPECT_EQ(rs.stats().messages, 0);
    EXPECT_EQ(rs.stats().rounds, 0);
  };
  ReshapeOptions osc;
  osc.backend = ExchangeBackend::kOsc;
  ReshapeOptions trimmed = osc;
  trimmed.codec = std::make_shared<BitTrimCodec>(20);
  ReshapeOptions two_sided;
  two_sided.codec = std::make_shared<CastFp16Codec>();
  const std::array<int, 3> n{8, 8, 8};
  run_ranks(4, [&](Comm& comm) {
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto xp = split_pencil(n, 0, 4);
    for (const auto& o : {osc, trimmed, two_sided}) check(comm, bricks, xp, o);
  });
  run_ranks(1, [&](Comm& comm) {
    const auto bricks = split_brick(n, proc_grid3(1));
    const auto yp = split_pencil(n, 1, 1);
    for (const auto& o : {osc, trimmed, two_sided}) check(comm, bricks, yp, o);
  });
}

TEST(Reshape, PackElisionBatchedSelfBlockFirstMatchesPerFieldExecute) {
  // z-pencils {2, 2} -> bricks {1, 2, 2} on 6x4x8: rank 0's self-block is
  // the lower z-half of its pencil, ahead of the off-rank upper half in the
  // field. An elided batch reads each off-rank block at its field-linear
  // offset inside bank f of `in` (bank stride = the whole field, not the
  // off-rank total); results must match per-field execute() exactly.
  constexpr int kFields = 3;
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{6, 4, 8};
    const auto zp = split_pencil(n, 2, std::array<int, 2>{2, 2});
    const auto bricks = split_brick(n, {1, 2, 2});
    ReshapeOptions raw;
    raw.backend = ExchangeBackend::kOsc;
    raw.gpus_per_node = 2;
    raw.batch = kFields;
    ReshapeOptions trimmed = raw;
    trimmed.codec = std::make_shared<BitTrimCodec>(20);
    ReshapeOptions two_sided = trimmed;
    two_sided.backend = ExchangeBackend::kPairwise;
    for (const auto& o : {raw, trimmed, two_sided}) {
      Reshape<std::complex<double>> rs(comm, zp, bricks, o);
      ASSERT_TRUE(rs.pack_elided());
      const Box3 self = Box3::intersect(rs.inbox(), rs.outbox());
      if (comm.rank() == 0) {
        ASSERT_EQ(self.lo, rs.inbox().lo);
        ASSERT_LT(self.count(), rs.inbox().count());
      }
      const auto in_n = static_cast<std::size_t>(rs.inbox().count());
      const auto out_n = static_cast<std::size_t>(rs.outbox().count());
      std::vector<std::complex<double>> in(kFields * in_n);
      Xoshiro256 rng(11 + static_cast<std::uint64_t>(comm.rank()));
      fill_uniform_complex(rng, in);
      std::vector<std::complex<double>> bout(kFields * out_n, {-1, -1});
      std::vector<std::complex<double>> fout(kFields * out_n, {-2, -2});
      rs.execute_batch(in, bout, kFields);
      for (std::size_t f = 0; f < kFields; ++f) {
        rs.execute(std::span(in).subspan(f * in_n, in_n),
                   std::span(fout).subspan(f * out_n, out_n));
      }
      for (std::size_t i = 0; i < bout.size(); ++i) {
        ASSERT_EQ(std::memcmp(&bout[i], &fout[i], sizeof(bout[i])), 0)
            << (o.codec ? o.codec->name() : "raw") << " " << i;
      }
    }
  });
}

// --- Direct path: row-addressable codecs skip pack and unpack --------------

struct DirectTransport {
  ExchangeBackend backend;
  osc::OscSync sync;
  const char* name;
};
constexpr DirectTransport kDirectTransports[] = {
    {ExchangeBackend::kPairwise, osc::OscSync::kFence, "pairwise"},
    {ExchangeBackend::kOsc, osc::OscSync::kFence, "osc-fence"},
    {ExchangeBackend::kOsc, osc::OscSync::kPscw, "osc-pscw"}};

// One reshape of the direct-path oracle: on every transport at batch 1 and
// 2, the codec reshape must equal the raw one with each off-rank element
// passed through decompress(compress(x)); the self-block stays exact.
void check_direct_stage(Comm& comm, const std::vector<Box3>& from,
                        const std::vector<Box3>& to, const CodecPtr& codec,
                        Xoshiro256& rng, const std::string& where) {
  const auto roundtrip = [&](double x) {
    std::array<std::byte, 16> b{};
    codec->compress(std::span<const double>(&x, 1), b);
    double y = 0.0;
    codec->decompress(b, std::span<double>(&y, 1));
    return y;
  };
  for (const auto& t : kDirectTransports) {
    for (const int batch : {1, 2}) {
      ReshapeOptions o;
      o.backend = t.backend;
      o.osc_sync = t.sync;
      o.gpus_per_node = 2;
      o.osc_chunks = 3;
      o.batch = batch;
      Reshape<std::complex<double>> raw(comm, from, to, o);
      o.codec = codec;
      Reshape<std::complex<double>> direct(comm, from, to, o);
      const auto fb = static_cast<std::size_t>(batch);
      const auto in_n = static_cast<std::size_t>(raw.inbox().count());
      const auto out_n = static_cast<std::size_t>(raw.outbox().count());
      std::vector<std::complex<double>> in(in_n * fb);
      for (auto& v : in) v = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
      std::vector<std::complex<double>> want(out_n * fb), got(out_n * fb);
      raw.execute_batch(in, want, batch);
      direct.execute_batch(in, got, batch);
      const Box3& ob = raw.outbox();
      const Box3 self = Box3::intersect(raw.inbox(), ob);
      int bad = 0;
      for (std::size_t i = 0; i < got.size() && bad < 5; ++i) {
        const std::size_t k = i % out_n;
        const int x = ob.lo[0] + static_cast<int>(k % ob.size[0]);
        const int y = ob.lo[1] + static_cast<int>(k / ob.size[0] % ob.size[1]);
        const int z = ob.lo[2] + static_cast<int>(k / ob.size[0] / ob.size[1]);
        const std::complex<double> w =
            self.contains(x, y, z)
                ? want[i]
                : std::complex<double>{roundtrip(want[i].real()),
                                       roundtrip(want[i].imag())};
        if (std::memcmp(&got[i], &w, sizeof(w)) != 0) {
          ++bad;
          ADD_FAILURE() << where << " " << t.name << " batch=" << batch
                        << " i=" << i;
        }
      }
    }
  }
}

TEST(Reshape, DirectCodecEqualsRawReshapeThroughElementwiseCodec) {
  // BitTrim and the casts code every double on its own, so a direct
  // reshape (encode from `in` run by run, decode into `out`) must equal
  // the raw reshape with each off-rank element passed through
  // decompress(compress(x)) — an oracle independent of either path. The
  // four reshapes of Fft3d's default pencil chain on 9x7x5 and 27x25x9
  // cut odd runs on both sides, so codec groups straddle runs.
  const std::vector<CodecPtr> codecs = {
      std::make_shared<BitTrimCodec>(7), std::make_shared<BitTrimCodec>(19),
      std::make_shared<CastFp32Codec>(), std::make_shared<CastFp16Codec>(),
      std::make_shared<CastBf16Codec>()};
  const std::array<int, 3> grids[] = {{9, 7, 5}, {27, 25, 9}};
  run_ranks(4, [&](Comm& comm) {
    Xoshiro256 rng(71 + static_cast<std::uint64_t>(comm.rank()));
    for (const auto& n : grids) {
      const std::vector<std::vector<Box3>> chain = {
          split_brick(n, proc_grid3_for(4, n)),
          split_pencil_for(n, 0, 4, {0, 0}), split_pencil_for(n, 1, 4, {0, 0}),
          split_pencil_for(n, 2, 4, {0, 0}),
          split_brick(n, proc_grid3_for(4, n))};
      for (std::size_t stage = 0; stage + 1 < chain.size(); ++stage) {
        for (const auto& codec : codecs) {
          check_direct_stage(comm, chain[stage], chain[stage + 1], codec, rng,
                             "n=" + std::to_string(n[0]) + " stage=" +
                                 std::to_string(stage) + " " +
                                 codec->name());
        }
      }
    }
  });
}

TEST(Reshape, DirectBitTrimReshapePinsNoStaging) {
  // A BitTrim kOsc reshape neither packs nor unpacks, so it pins no send
  // or receive staging: its footprint (window slots at the coded size
  // plus the round slab) stays below the off-rank payload it would stage,
  // send and receive together.
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{16, 12, 10};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 1, 4);
    ReshapeOptions o;
    o.backend = ExchangeBackend::kOsc;
    o.gpus_per_node = 2;
    o.codec = std::make_shared<BitTrimCodec>(19);
    Reshape<std::complex<double>> rs(comm, bricks, pencils, o);
    ASSERT_FALSE(rs.pack_elided());
    const auto in = fill_box(rs.inbox());
    std::vector<std::complex<double>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);
    const std::uint64_t self =
        static_cast<std::uint64_t>(
            Box3::intersect(rs.inbox(), rs.outbox()).count()) *
        sizeof(std::complex<double>);
    const std::uint64_t recv_payload =
        static_cast<std::uint64_t>(rs.outbox().count()) *
            sizeof(std::complex<double>) -
        self;
    const std::uint64_t send_payload = rs.stats().payload_bytes;
    ASSERT_GT(send_payload, 0u);
    EXPECT_LT(rs.footprint_bytes(), send_payload + recv_payload)
        << "rank " << comm.rank();
    expect_box(rs.outbox(), out, 1e-2);
  });
}

TEST(Reshape, DirectCodecExecuteAllocatesNothingAfterWarmup) {
  // The direct path on every transport allocates nothing after one warm
  // execute, single-field or batched: encode and decode run over the
  // caller's fields and the plan's pinned slabs only.
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{9, 7, 5};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 1, 4);
    for (const auto& t : kDirectTransports) {
      ReshapeOptions o;
      o.backend = t.backend;
      o.osc_sync = t.sync;
      o.gpus_per_node = 2;
      o.batch = 2;
      o.codec = std::make_shared<BitTrimCodec>(19);
      Reshape<std::complex<double>> rs(comm, bricks, pencils, o);
      const auto in_n = static_cast<std::size_t>(rs.inbox().count());
      const auto out_n = static_cast<std::size_t>(rs.outbox().count());
      std::vector<std::complex<double>> in(2 * in_n, {1.0, -1.0});
      std::vector<std::complex<double>> out(2 * out_n);
      const std::span<const std::complex<double>> one(in.data(), in_n);
      const std::span<std::complex<double>> one_out(out.data(), out_n);
      rs.execute(one, one_out);
      rs.execute_batch(in, out, 2);
      comm.barrier();
      t_allocs = 0;
      t_count_allocs = true;
      for (int it = 0; it < 2; ++it) {
        rs.execute(one, one_out);
        rs.execute_batch(in, out, 2);
      }
      t_count_allocs = false;
      comm.barrier();
      EXPECT_EQ(t_allocs, 0u) << t.name << " rank " << comm.rank();
    }
  });
}

}  // namespace
}  // namespace lossyfft
