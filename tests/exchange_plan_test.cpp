// Persistent exchange plans: reuse identity, window-cache lifecycle, the
// fused two-sided transport, and the steady-state guarantees (no window
// churn, no message posts on the one-sided path, no heap allocation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "compress/lossless.hpp"
#include "compress/parallel_codec.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "dfft/decomp.hpp"
#include "dfft/reshape.hpp"
#include "minimpi/runtime.hpp"
#include "naive_exchange.hpp"
#include "osc/exchange_plan.hpp"
#include "osc/osc_alltoall.hpp"

// ---- Heap-allocation counter -----------------------------------------------
// Replaces the global (un-aligned) new/delete with a malloc shim that bumps a
// thread-local counter while armed. Only the arming thread counts, so worker
// threads and other ranks never perturb an assertion. Aligned news are not
// replaced; none of the counted paths use them.
namespace {
thread_local bool t_count_allocs = false;
thread_local std::uint64_t t_allocs = 0;
}  // namespace

// noinline keeps GCC from pairing an inlined free() with a new expression
// at call sites and warning about a mismatched allocation function.
#define LFFT_TEST_ALLOC __attribute__((noinline))
LFFT_TEST_ALLOC void* operator new(std::size_t n) {
  if (t_count_allocs) {
    ++t_allocs;
    if (std::getenv("LFFT_ALLOC_TRACE")) {
      std::fprintf(stderr, "counted alloc: %zu bytes\n", n);
    }
  }
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

namespace lossyfft::osc {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

struct Layout {
  std::vector<std::uint64_t> sc, sd, rc, rd;
  std::vector<double> send;
  std::vector<double> recv;
};

double cell_value(int s, int d, std::uint64_t k) {
  return std::sin(0.2 * s + 0.03 * d + 0.002 * static_cast<double>(k)) + 2.0;
}

// Uneven triangular counts with per-cell values every rank can recompute.
Layout make_layout(int p, int me) {
  Layout l;
  const auto count = [](int s, int d) {
    return static_cast<std::uint64_t>(2 * s + 3 * d + 1);
  };
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
      l.send[l.sd[i] + k] = cell_value(me, d, k);
    }
  }
  return l;
}

void expect_delivery(int p, int me, const Layout& l, double tol) {
  for (int s = 0; s < p; ++s) {
    const auto i = static_cast<std::size_t>(s);
    for (std::uint64_t k = 0; k < l.rc[i]; ++k) {
      EXPECT_NEAR(l.recv[l.rd[i] + k], cell_value(s, me, k), tol)
          << "src=" << s << " k=" << k;
    }
  }
}

void expect_same_recv(const Layout& a, const Layout& b) {
  ASSERT_EQ(a.recv.size(), b.recv.size());
  for (std::size_t i = 0; i < a.recv.size(); ++i) {
    EXPECT_EQ(a.recv[i], b.recv[i]) << i;
  }
}

// --- Plan reuse: repeated executes are byte-identical to a one-off plan ---

TEST(PlanReuse, OneSidedByteIdenticalAcrossExecutes) {
  run_ranks(6, [](Comm& comm) {
    auto ref = make_layout(6, comm.rank());
    auto l = make_layout(6, comm.rank());
    OscOptions o;
    o.codec = std::make_shared<CastFp32Codec>();
    o.chunks = 4;
    const auto rst =
        ExchangePlan(comm, PlanBackend::kOneSided, ref.sc, ref.sd, ref.rc,
                     ref.rd, std::span<double>(ref.recv), o)
            .execute(ref.send, ref.recv);
    ExchangePlan plan(comm, PlanBackend::kOneSided, l.sc, l.sd, l.rc, l.rd,
                      std::span<double>(l.recv), o);
    for (int it = 0; it < 3; ++it) {
      std::fill(l.recv.begin(), l.recv.end(), -1.0);
      const auto st = plan.execute(l.send, l.recv);
      expect_same_recv(ref, l);
      EXPECT_EQ(st.wire_bytes, rst.wire_bytes) << "it=" << it;
      EXPECT_EQ(st.rounds, rst.rounds) << "it=" << it;
    }
  });
}

TEST(PlanReuse, TwoSidedFusedByteIdenticalAcrossExecutes) {
  run_ranks(6, [](Comm& comm) {
    auto ref = make_layout(6, comm.rank());
    auto l = make_layout(6, comm.rank());
    OscOptions o;
    o.codec = std::make_shared<BitTrimCodec>(20);
    const auto rst =
        ExchangePlan(comm, PlanBackend::kTwoSided, ref.sc, ref.sd, ref.rc,
                     ref.rd, std::span<double>(ref.recv), o)
            .execute(ref.send, ref.recv);
    ExchangePlan plan(comm, PlanBackend::kTwoSided, l.sc, l.sd, l.rc, l.rd,
                      std::span<double>(l.recv), o);
    for (int it = 0; it < 3; ++it) {
      std::fill(l.recv.begin(), l.recv.end(), -1.0);
      const auto st = plan.execute(l.send, l.recv);
      expect_same_recv(ref, l);
      EXPECT_EQ(st.wire_bytes, rst.wire_bytes) << "it=" << it;
    }
  });
}

TEST(PlanReuse, VariableCodecPlanMatchesPerCall) {
  run_ranks(5, [](Comm& comm) {
    auto ref = make_layout(5, comm.rank());
    auto l = make_layout(5, comm.rank());
    OscOptions o;
    o.codec = std::make_shared<SzqCodec>(1e-7);
    const auto rst =
        ExchangePlan(comm, PlanBackend::kOneSided, ref.sc, ref.sd, ref.rc,
                     ref.rd, std::span<double>(ref.recv), o)
            .execute(ref.send, ref.recv);
    ExchangePlan plan(comm, PlanBackend::kOneSided, l.sc, l.sd, l.rc, l.rd,
                      std::span<double>(l.recv), o);
    for (int it = 0; it < 3; ++it) {
      std::fill(l.recv.begin(), l.recv.end(), -1.0);
      const auto st = plan.execute(l.send, l.recv);
      expect_same_recv(ref, l);
      EXPECT_EQ(st.wire_bytes, rst.wire_bytes) << "it=" << it;
    }
  });
}

TEST(PlanReuse, ReshapeRepeatedExecutesAreByteIdentical) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{12, 10, 8};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 0, 4);
    ReshapeOptions ro;
    ro.backend = ExchangeBackend::kOsc;
    ro.codec = std::make_shared<CastFp32Codec>();
    Reshape<double> shape(comm, bricks, pencils, ro);
    Reshape<double> fresh(comm, bricks, pencils, ro);
    const auto in_n = static_cast<std::size_t>(shape.inbox().count());
    const auto out_n = static_cast<std::size_t>(shape.outbox().count());
    std::vector<double> in(in_n), first(out_n), out(out_n);
    Xoshiro256 rng(17 + static_cast<std::uint64_t>(comm.rank()));
    fill_uniform(rng, in);
    shape.execute(std::span<const double>(in), std::span<double>(first));
    for (int it = 0; it < 3; ++it) {
      std::fill(out.begin(), out.end(), -1.0);
      shape.execute(std::span<const double>(in), std::span<double>(out));
      for (std::size_t i = 0; i < out_n; ++i) {
        EXPECT_EQ(out[i], first[i]) << "it=" << it << " i=" << i;
      }
    }
    // A plan-fresh Reshape of the same decomposition agrees bytewise.
    std::fill(out.begin(), out.end(), -1.0);
    fresh.execute(std::span<const double>(in), std::span<double>(out));
    for (std::size_t i = 0; i < out_n; ++i) EXPECT_EQ(out[i], first[i]) << i;
  });
}

TEST(SteadyState, ElidedReshapeExecuteIsCollectiveAndAllocationFree) {
  // A Reshape whose pack stage elides feeds the one-sided plan straight
  // from the user's field. The steady-state guarantees must survive the
  // elision: no window churn, no message posts, no heap allocation — and
  // the field-sourced puts deliver the fp32 cast of the raw reshape.
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 6, 8};
    // z-pencils {2, 2} -> bricks {1, 2, 2}: sends span full x and y of
    // each pencil, so every rank elides.
    const auto zp = split_pencil(n, 2, std::array<int, 2>{2, 2});
    const auto bricks = split_brick(n, {1, 2, 2});
    ReshapeOptions ro;
    ro.backend = ExchangeBackend::kOsc;
    ro.gpus_per_node = 2;
    Reshape<double> raw(comm, zp, bricks, ro);
    ReshapeOptions eo = ro;
    eo.codec = std::make_shared<CastFp32Codec>();
    Reshape<double> elided(comm, zp, bricks, eo);
    ASSERT_TRUE(elided.pack_elided());

    const auto in_n = static_cast<std::size_t>(elided.inbox().count());
    const auto out_n = static_cast<std::size_t>(elided.outbox().count());
    std::vector<double> in(in_n), eout(out_n), rout(out_n);
    Xoshiro256 rng(43 + static_cast<std::uint64_t>(comm.rank()));
    fill_uniform(rng, in);
    elided.execute(std::span<const double>(in), std::span<double>(eout));
    comm.barrier();
    const std::uint64_t w0 = comm.state().window_begin_count();
    const std::uint64_t m0 = comm.state().message_post_count();
    t_allocs = 0;
    t_count_allocs = true;
    for (int it = 0; it < 3; ++it) {
      elided.execute(std::span<const double>(in), std::span<double>(eout));
    }
    t_count_allocs = false;
    comm.barrier();
    EXPECT_EQ(comm.state().window_begin_count(), w0);
    EXPECT_EQ(comm.state().message_post_count(), m0);
    EXPECT_EQ(t_allocs, 0u);

    // The wire casts every off-rank element; the self-block is exact.
    raw.execute(std::span<const double>(in), std::span<double>(rout));
    const Box3& ob = elided.outbox();
    const Box3 self = Box3::intersect(elided.inbox(), ob);
    for (std::size_t i = 0; i < out_n; ++i) {
      const int x = ob.lo[0] + static_cast<int>(i % ob.size[0]);
      const int y = ob.lo[1] + static_cast<int>(i / ob.size[0] % ob.size[1]);
      const int z = ob.lo[2] + static_cast<int>(i / ob.size[0] / ob.size[1]);
      const double cast = static_cast<float>(rout[i]);
      EXPECT_EQ(eout[i], self.contains(x, y, z) ? rout[i] : cast) << i;
    }
  });
}

// --- Window cache: several live plans, out-of-order teardown ---------------

TEST(WindowCache, MultipleLivePlansAndOutOfOrderTeardown) {
  run_ranks(4, [](Comm& comm) {
    const int p = 4;
    auto la = make_layout(p, comm.rank());
    auto lb = make_layout(p, comm.rank());
    auto lc = make_layout(p, comm.rank());
    OscOptions raw;
    OscOptions fp32;
    fp32.codec = std::make_shared<CastFp32Codec>();
    OscOptions trim;
    trim.codec = std::make_shared<BitTrimCodec>(20);
    // Three plans (three cached windows) alive at once.
    auto a = std::make_unique<ExchangePlan>(comm, PlanBackend::kOneSided,
                                            la.sc, la.sd, la.rc, la.rd,
                                            std::span<double>(la.recv), raw);
    auto b = std::make_unique<ExchangePlan>(comm, PlanBackend::kOneSided,
                                            lb.sc, lb.sd, lb.rc, lb.rd,
                                            std::span<double>(lb.recv), fp32);
    auto c = std::make_unique<ExchangePlan>(comm, PlanBackend::kOneSided,
                                            lc.sc, lc.sd, lc.rc, lc.rd,
                                            std::span<double>(lc.recv), trim);
    a->execute(la.send, la.recv);
    b->execute(lb.send, lb.recv);
    c->execute(lc.send, lc.recv);
    expect_delivery(p, comm.rank(), la, 0.0);
    expect_delivery(p, comm.rank(), lb, 3e-7);
    expect_delivery(p, comm.rank(), lc, std::ldexp(1.0, -20));
    // Tear down out of creation order (collectively — all ranks agree on
    // the order), then bring up a fourth plan while C is still live.
    b.reset();
    a.reset();
    auto ld = make_layout(p, comm.rank());
    auto d = std::make_unique<ExchangePlan>(comm, PlanBackend::kOneSided,
                                            ld.sc, ld.sd, ld.rc, ld.rd,
                                            std::span<double>(ld.recv), fp32);
    d->execute(ld.send, ld.recv);
    std::fill(lc.recv.begin(), lc.recv.end(), -1.0);
    c->execute(lc.send, lc.recv);
    expect_delivery(p, comm.rank(), ld, 3e-7);
    expect_delivery(p, comm.rank(), lc, std::ldexp(1.0, -20));
  });
}

// --- Two-sided vs naive: byte identity across the eager/rendezvous crossover

TEST(TwoSidedRendezvous, MatchesNaiveAcrossThresholdsAndCodecs) {
  // SIZE_MAX forces every message through the eager (copy-through-envelope)
  // transport, 0 forces rendezvous for every nonempty message, 4096 is the
  // default crossover (this layout straddles it).
  const std::size_t thresholds[] = {minimpi::kEagerOnlyThreshold, 4096, 0};
  for (const std::size_t threshold : thresholds) {
    minimpi::MinimpiOptions mo;
    mo.rendezvous_threshold = threshold;
    run_ranks(5, mo, [&](Comm& comm) {
      const CodecPtr codecs[] = {nullptr, std::make_shared<CastFp32Codec>(),
                                 std::make_shared<BitTrimCodec>(20),
                                 std::make_shared<SzqCodec>(1e-6),
                                 std::make_shared<ByteplaneRleCodec>()};
      for (const CodecPtr& codec : codecs) {
        auto naive = make_layout(5, comm.rank());
        auto l = make_layout(5, comm.rank());
        naive_exchange(comm, codec, naive.send, naive.sc, naive.sd,
                       naive.recv, naive.rc, naive.rd);
        OscOptions o;
        o.codec = codec;
        ExchangePlan(comm, PlanBackend::kTwoSided, l.sc, l.sd, l.rc, l.rd,
                     std::span<double>(l.recv), o)
            .execute(l.send, l.recv);
        expect_same_recv(naive, l);
      }
    });
  }
}

// --- Steady state: no window churn, no message posts, no heap allocation ---

TEST(SteadyState, OneSidedExecuteIsSetupAndAllocationFree) {
  run_ranks(4, [](Comm& comm) {
    auto raw = make_layout(4, comm.rank());
    auto fix = make_layout(4, comm.rank());
    OscOptions ro;  // Raw bytes, kFence, workers = 1.
    OscOptions fo;
    fo.codec = std::make_shared<CastFp32Codec>();
    ExchangePlan rplan(comm, PlanBackend::kOneSided, raw.sc, raw.sd, raw.rc,
                       raw.rd, std::span<double>(raw.recv), ro);
    ExchangePlan fplan(comm, PlanBackend::kOneSided, fix.sc, fix.sd, fix.rc,
                       fix.rd, std::span<double>(fix.recv), fo);
    // Warm epoch: caches the barrier pointer and passes first_execute_.
    rplan.execute(raw.send, raw.recv);
    fplan.execute(fix.send, fix.recv);
    comm.barrier();
    const std::uint64_t w0 = comm.state().window_begin_count();
    const std::uint64_t m0 = comm.state().message_post_count();
    t_allocs = 0;
    t_count_allocs = true;
    for (int it = 0; it < 3; ++it) {
      rplan.execute(raw.send, raw.recv);
      fplan.execute(fix.send, fix.recv);
    }
    t_count_allocs = false;
    comm.barrier();
    // No rank created a window, posted a message, or allocated: the fenced
    // one-sided plan moves bytes with puts and barriers only.
    EXPECT_EQ(comm.state().window_begin_count(), w0);
    EXPECT_EQ(comm.state().message_post_count(), m0);
    EXPECT_EQ(t_allocs, 0u);
    expect_delivery(4, comm.rank(), raw, 0.0);
    expect_delivery(4, comm.rank(), fix, 3e-7);
  });
}

TEST(SteadyState, VariableCodecPlansAreCollectiveAndAllocationFree) {
  // The headline guarantee of the slot-header wire format: data-dependent
  // sizes ride in the put-with-notify header word, so variable-rate codec
  // plans run zero collectives in steady state. Under kFence the barrier is
  // message-free, so the message-post counter must not move at all — the
  // old per-execute u64 size all-to-all would post p*(p-1) messages.
  run_ranks(4, [](Comm& comm) {
    auto szq = make_layout(4, comm.rank());
    auto rle = make_layout(4, comm.rank());
    OscOptions so;
    so.codec = std::make_shared<SzqCodec>(1e-7);
    OscOptions lo;
    lo.codec = std::make_shared<ByteplaneRleCodec>();
    ExchangePlan splan(comm, PlanBackend::kOneSided, szq.sc, szq.sd, szq.rc,
                       szq.rd, std::span<double>(szq.recv), so);
    ExchangePlan lplan(comm, PlanBackend::kOneSided, rle.sc, rle.sd, rle.rc,
                       rle.rd, std::span<double>(rle.recv), lo);
    splan.execute(szq.send, szq.recv);
    lplan.execute(rle.send, rle.recv);
    comm.barrier();
    const std::uint64_t w0 = comm.state().window_begin_count();
    const std::uint64_t m0 = comm.state().message_post_count();
    t_allocs = 0;
    t_count_allocs = true;
    for (int it = 0; it < 3; ++it) {
      splan.execute(szq.send, szq.recv);
      lplan.execute(rle.send, rle.recv);
    }
    t_count_allocs = false;
    comm.barrier();
    EXPECT_EQ(comm.state().window_begin_count(), w0);
    EXPECT_EQ(comm.state().message_post_count(), m0);
    EXPECT_EQ(t_allocs, 0u);
    expect_delivery(4, comm.rank(), szq, 1e-6);
    expect_delivery(4, comm.rank(), rle, 0.0);
  });
}

TEST(SteadyState, CodedExecuteIsCollectiveAndAllocationFree) {
  // The tentpole's steady-state invariant: parity frames are carved into
  // the pinned window and encoded into plan-owned scratch, so a fault-free
  // coded execute() runs exactly like the uncoded one — zero collectives,
  // zero allocations — for both rate classes.
  run_ranks(4, [](Comm& comm) {
    auto fix = make_layout(4, comm.rank());
    auto var = make_layout(4, comm.rank());
    OscOptions fo;
    fo.codec = std::make_shared<CastFp32Codec>();
    fo.parity = 2;
    OscOptions vo;
    vo.codec = std::make_shared<SzqCodec>(1e-7);
    vo.parity = 2;
    ExchangePlan fplan(comm, PlanBackend::kOneSided, fix.sc, fix.sd, fix.rc,
                       fix.rd, std::span<double>(fix.recv), fo);
    ExchangePlan vplan(comm, PlanBackend::kOneSided, var.sc, var.sd, var.rc,
                       var.rd, std::span<double>(var.recv), vo);
    fplan.execute(fix.send, fix.recv);
    vplan.execute(var.send, var.recv);
    comm.barrier();
    const std::uint64_t w0 = comm.state().window_begin_count();
    const std::uint64_t m0 = comm.state().message_post_count();
    t_allocs = 0;
    t_count_allocs = true;
    osc::ExchangeStats fst, vst;
    for (int it = 0; it < 3; ++it) {
      fst = fplan.execute(fix.send, fix.recv);
      vst = vplan.execute(var.send, var.recv);
    }
    t_count_allocs = false;
    comm.barrier();
    EXPECT_EQ(comm.state().window_begin_count(), w0);
    EXPECT_EQ(comm.state().message_post_count(), m0);
    EXPECT_EQ(t_allocs, 0u);
    // The parity really was on the wire, and nothing needed recovering.
    EXPECT_GT(fst.parity_bytes, 0u);
    EXPECT_GT(vst.parity_bytes, 0u);
    EXPECT_EQ(fst.chunks_reconstructed, 0u);
    EXPECT_EQ(vst.chunks_reconstructed, 0u);
    expect_delivery(4, comm.rank(), fix, 3e-7);
    expect_delivery(4, comm.rank(), var, 1e-6);
  });
}

TEST(SteadyState, PscwPipelinedExecuteIsHandshakeOnlyAndAllocationFree) {
  // kPscw with workers = 1: per-round inline decode (pipelined against the
  // remaining rounds' puts) must stay allocation-free, and the only
  // messages are the zero-byte PSCW handshakes — one post per source plus
  // one complete per target per execute, i.e. 2p sends per rank. Any size
  // collective sneaking back in would break the exact count.
  run_ranks(4, [](Comm& comm) {
    const int p = 4;
    auto fix = make_layout(p, comm.rank());
    auto var = make_layout(p, comm.rank());
    OscOptions fo;
    fo.codec = std::make_shared<CastFp32Codec>();
    fo.sync = OscSync::kPscw;
    OscOptions vo;
    vo.codec = std::make_shared<SzqCodec>(1e-7);
    vo.sync = OscSync::kPscw;
    ExchangePlan fplan(comm, PlanBackend::kOneSided, fix.sc, fix.sd, fix.rc,
                       fix.rd, std::span<double>(fix.recv), fo);
    ExchangePlan vplan(comm, PlanBackend::kOneSided, var.sc, var.sd, var.rc,
                       var.rd, std::span<double>(var.recv), vo);
    fplan.execute(fix.send, fix.recv);
    vplan.execute(var.send, var.recv);
    comm.barrier();
    const std::uint64_t w0 = comm.state().window_begin_count();
    const std::uint64_t m0 = comm.state().message_post_count();
    // Unlike the fence suites (message-free steady state), the armed loop
    // below posts handshakes — a second barrier keeps every rank's baseline
    // read ahead of the first armed send.
    comm.barrier();
    t_allocs = 0;
    t_count_allocs = true;
    constexpr int kIters = 3;
    for (int it = 0; it < kIters; ++it) {
      fplan.execute(fix.send, fix.recv);
      vplan.execute(var.send, var.recv);
    }
    t_count_allocs = false;
    comm.barrier();
    EXPECT_EQ(comm.state().window_begin_count(), w0);
    EXPECT_EQ(t_allocs, 0u);
    // Global handshake budget: kIters executes x 2 plans x p ranks x 2p.
    const std::uint64_t handshakes =
        static_cast<std::uint64_t>(kIters) * 2 * p * 2 * p;
    EXPECT_EQ(comm.state().message_post_count() - m0, handshakes);
    expect_delivery(p, comm.rank(), fix, 3e-7);
    expect_delivery(p, comm.rank(), var, 1e-6);
  });
}

// --- Plan lifecycle: interleaved construct/execute/destroy stress ----------

TEST(PlanLifecycle, InterleavedConstructExecuteDestroyStress) {
  run_ranks(4, [](Comm& comm) {
    const int p = 4;
    for (int it = 0; it < 4; ++it) {
      auto la = make_layout(p, comm.rank());
      auto lb = make_layout(p, comm.rank());
      auto lc = make_layout(p, comm.rank());
      OscOptions ao;  // PSCW + variable codec: pipelined header-word path.
      ao.codec = std::make_shared<SzqCodec>(1e-7);
      ao.sync = OscSync::kPscw;
      OscOptions bo;  // Fenced fixed codec.
      bo.codec = std::make_shared<CastFp32Codec>();
      OscOptions co;  // Raw PSCW.
      co.sync = OscSync::kPscw;
      auto a = std::make_unique<ExchangePlan>(comm, PlanBackend::kOneSided,
                                              la.sc, la.sd, la.rc, la.rd,
                                              std::span<double>(la.recv), ao);
      auto b = std::make_unique<ExchangePlan>(comm, PlanBackend::kOneSided,
                                              lb.sc, lb.sd, lb.rc, lb.rd,
                                              std::span<double>(lb.recv), bo);
      a->execute(la.send, la.recv);
      b->execute(lb.send, lb.recv);
      auto c = std::make_unique<ExchangePlan>(comm, PlanBackend::kOneSided,
                                              lc.sc, lc.sd, lc.rc, lc.rd,
                                              std::span<double>(lc.recv), co);
      c->execute(lc.send, lc.recv);
      // Steady-state stretch across all three live plans allocates nothing.
      t_allocs = 0;
      t_count_allocs = true;
      a->execute(la.send, la.recv);
      c->execute(lc.send, lc.recv);
      b->execute(lb.send, lb.recv);
      t_count_allocs = false;
      EXPECT_EQ(t_allocs, 0u) << "it=" << it;
      expect_delivery(p, comm.rank(), la, 1e-6);
      expect_delivery(p, comm.rank(), lb, 3e-7);
      expect_delivery(p, comm.rank(), lc, 0.0);
      // Vary the (collective) teardown order per iteration.
      switch (it % 3) {
        case 0: a.reset(); b.reset(); c.reset(); break;
        case 1: c.reset(); a.reset(); b.reset(); break;
        default: b.reset(); c.reset(); a.reset(); break;
      }
    }
  });
}

// --- PSCW pipelined decode agrees with fence, inline and pooled ------------

TEST(PscwPipelined, MatchesFenceAcrossCodecClasses) {
  run_ranks(6, [](Comm& comm) {
    std::vector<CodecPtr> codecs;
    codecs.push_back(nullptr);
    codecs.push_back(std::make_shared<CastFp32Codec>());
    codecs.push_back(std::make_shared<BitTrimCodec>(20));
    codecs.push_back(std::make_shared<SzqCodec>(1e-6));
    codecs.push_back(std::make_shared<ByteplaneRleCodec>());
    for (const CodecPtr& codec : codecs) {
      for (const int workers : {1, 2}) {
        auto fen = make_layout(6, comm.rank());
        auto pip = make_layout(6, comm.rank());
        OscOptions fo;
        fo.codec = codec;
        fo.workers = workers;
        fo.gpus_per_node = 2;  // Three-node ring: real multi-round overlap.
        OscOptions po = fo;
        po.sync = OscSync::kPscw;
        ExchangePlan fence_plan(comm, PlanBackend::kOneSided, fen.sc, fen.sd,
                                fen.rc, fen.rd, std::span<double>(fen.recv),
                                fo);
        ExchangePlan pscw_plan(comm, PlanBackend::kOneSided, pip.sc, pip.sd,
                               pip.rc, pip.rd, std::span<double>(pip.recv),
                               po);
        for (int it = 0; it < 2; ++it) {
          std::fill(fen.recv.begin(), fen.recv.end(), -1.0);
          std::fill(pip.recv.begin(), pip.recv.end(), -1.0);
          const auto fst = fence_plan.execute(fen.send, fen.recv);
          const auto pst = pscw_plan.execute(pip.send, pip.recv);
          expect_same_recv(fen, pip);
          EXPECT_EQ(fst.wire_bytes, pst.wire_bytes) << "workers=" << workers;
        }
      }
    }
  });
}

// --- Per-source arrival skew (PSCW observability) ---------------------------

// The skew counters exist so a tenant can see WHICH peer it waits for:
// PSCW stamps each source's arrival per epoch, finish_skew_epoch folds the
// stamps into (epochs, total, worst) plus a per-source lag accumulation.
// Deliberately stagger the ranks and pin down the counter algebra; the
// fence path records nothing by design (no per-source completion signal).
TEST(ArrivalSkew, PscwCountsStaggeredSourcesAndFenceStaysSilent) {
  constexpr int kP = 4;
  constexpr int kEpochs = 3;
  run_ranks(kP, [](Comm& comm) {
    auto l = make_layout(kP, comm.rank());
    OscOptions o;
    o.sync = OscSync::kPscw;
    o.gpus_per_node = 2;  // Two-node shape: inter-node rounds exist.
    ExchangePlan plan(comm, PlanBackend::kOneSided, l.sc, l.sd, l.rc, l.rd,
                      std::span<double>(l.recv), o);
    ExchangeStats st;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      // Rank r posts late by ~2r ms: every receiver sees a real spread.
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * comm.rank()));
      std::fill(l.recv.begin(), l.recv.end(), -1.0);
      st.accumulate(plan.execute(l.send, l.recv));
      expect_delivery(kP, comm.rank(), l, 0.0);
    }
    // Every rank has kP-1 >= 2 remote sources, so every epoch records.
    EXPECT_EQ(st.skew_epochs, static_cast<std::uint64_t>(kEpochs));
    EXPECT_GE(st.skew_seconds, st.max_skew_seconds);
    EXPECT_LE(st.skew_seconds, st.max_skew_seconds * kEpochs + 1e-12);
    // The stagger is milliseconds; SOME receiver must observe it even if
    // round ordering absorbs part of the spread.
    const double total =
        comm.allreduce_one(st.skew_seconds, minimpi::ReduceOp::kSum);
    EXPECT_GT(total, 0.0);

    // Per-source lag algebra: self never stamps (no remote arrival), and a
    // single source's accumulated lag can never exceed the epoch-summed
    // spread (lag <= last-first in every epoch).
    const std::span<const double> lag = plan.source_lag_seconds();
    ASSERT_EQ(lag.size(), static_cast<std::size_t>(kP));
    EXPECT_EQ(lag[static_cast<std::size_t>(comm.rank())], 0.0);
    for (const double v : lag) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, st.skew_seconds + 1e-12);
    }

    // Fence: no per-source completion signal, so nothing may be recorded.
    auto f = make_layout(kP, comm.rank());
    OscOptions fo;
    fo.gpus_per_node = 2;
    ExchangePlan fence_plan(comm, PlanBackend::kOneSided, f.sc, f.sd, f.rc,
                            f.rd, std::span<double>(f.recv), fo);
    const auto fst = fence_plan.execute(f.send, f.recv);
    EXPECT_EQ(fst.skew_epochs, 0u);
    EXPECT_EQ(fst.skew_seconds, 0.0);
    for (const double v : fence_plan.source_lag_seconds()) {
      EXPECT_EQ(v, 0.0);
    }
  });
}

// A transparent decorator that counts decompress_shard fan-out and where
// it ran: the proof that one large variable-rate slot really decodes as
// independent frame shards (across the pool) instead of serially through
// the monolithic decompress entry point.
class ShardCountingCodec final : public Codec {
 public:
  explicit ShardCountingCodec(CodecPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::size_t max_compressed_bytes(std::size_t n) const override {
    return inner_->max_compressed_bytes(n);
  }
  std::size_t compress(std::span<const double> in,
                       std::span<std::byte> out) const override {
    return inner_->compress(in, out);
  }
  void decompress(std::span<const std::byte> in,
                  std::span<double> out) const override {
    inner_->decompress(in, out);
  }
  bool fixed_size() const override { return inner_->fixed_size(); }
  double nominal_rate() const override { return inner_->nominal_rate(); }
  bool lossless() const override { return inner_->lossless(); }
  std::size_t parallel_granularity() const override {
    return inner_->parallel_granularity();
  }
  std::size_t shard_payload_bound(std::size_t m) const override {
    return inner_->shard_payload_bound(m);
  }
  std::size_t compress_shard(std::span<const double> in,
                             std::span<std::byte> out) const override {
    return inner_->compress_shard(in, out);
  }
  void decompress_shard(std::span<const std::byte> in,
                        std::span<double> out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++shard_decodes_;
      threads_.insert(std::this_thread::get_id());
    }
    inner_->decompress_shard(in, out);
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    shard_decodes_ = 0;
    threads_.clear();
  }
  int shard_decodes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shard_decodes_;
  }
  int distinct_threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(threads_.size());
  }

 private:
  CodecPtr inner_;
  mutable std::mutex mu_;
  mutable int shard_decodes_ = 0;
  mutable std::set<std::thread::id> threads_;
};

TEST(PscwPipelined, LargeVariableSlotDecodesAcrossThePool) {
  run_ranks(2, [](Comm& comm) {
    // One slot of 5 zfpx-accuracy frame shards per pair. Variable codecs
    // with a granularity decode inline on the rank thread under kPscw
    // (decode_async stays off), and the ParallelCodec wrapper must spread
    // that one big slot across the worker pool as >= 4 concurrent shard
    // decodes — not run it as a single serial decompress.
    const std::uint64_t slot = 4 * ZfpxAccuracyCodec::kShardElems +
                               ZfpxAccuracyCodec::kShardElems / 2;
    const int p = comm.size();
    const int me = comm.rank();
    Layout l;
    l.sc.assign(static_cast<std::size_t>(p), slot);
    l.rc.assign(static_cast<std::size_t>(p), slot);
    l.sd.resize(static_cast<std::size_t>(p));
    l.rd.resize(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      l.sd[static_cast<std::size_t>(r)] = static_cast<std::uint64_t>(r) * slot;
      l.rd[static_cast<std::size_t>(r)] = static_cast<std::uint64_t>(r) * slot;
    }
    l.send.resize(static_cast<std::size_t>(p) * slot);
    l.recv.assign(static_cast<std::size_t>(p) * slot, -999.0);
    for (int d = 0; d < p; ++d) {
      for (std::uint64_t k = 0; k < slot; ++k) {
        l.send[l.sd[static_cast<std::size_t>(d)] + k] = cell_value(me, d, k);
      }
    }

    WorkerPool pool(4);
    auto counting = std::make_shared<ShardCountingCodec>(
        std::make_shared<ZfpxAccuracyCodec>(1e-8));
    OscOptions o;
    o.codec = std::make_shared<ParallelCodec>(counting, &pool, /*shards=*/4,
                                              /*min_shard_bytes=*/1);
    o.sync = OscSync::kPscw;
    ExchangePlan plan(comm, PlanBackend::kOneSided, l.sc, l.sd, l.rc, l.rd,
                      std::span<double>(l.recv), o);
    for (int it = 0; it < 2; ++it) {
      counting->reset();
      std::fill(l.recv.begin(), l.recv.end(), -999.0);
      plan.execute(l.send, l.recv);
      expect_delivery(p, me, l, 1e-8 * (1 + 1e-9));
      // Every received slot fanned out: ns = 5 frame shards per slot, so
      // the per-execute count must reach at least 4 shard decodes (and in
      // fact 5 per decoded slot). Zero would mean the slot fell through to
      // the serial decompress entry point.
      EXPECT_GE(counting->shard_decodes(), 4) << "it=" << it;
      EXPECT_GE(counting->distinct_threads(), 1) << "it=" << it;
    }
  });
}

// --- Batched execute: one epoch per batch, identical to per-field runs -----

// A `fields`-bank copy of `l` where bank f's cells are the base values
// shifted by f (so banks are distinguishable but share the layout).
Layout make_batched_layout(const Layout& l, int fields, double shift) {
  Layout b = l;
  b.send.resize(l.send.size() * static_cast<std::size_t>(fields));
  b.recv.assign(l.recv.size() * static_cast<std::size_t>(fields), -999.0);
  for (int f = 0; f < fields; ++f) {
    for (std::size_t i = 0; i < l.send.size(); ++i) {
      b.send[static_cast<std::size_t>(f) * l.send.size() + i] =
          l.send[i] + shift * f;
    }
  }
  return b;
}

TEST(BatchExecute, MatchesBackToBackExecutesAcrossCodecsAndSync) {
  run_ranks(4, [](Comm& comm) {
    constexpr int kFields = 3;
    std::vector<CodecPtr> codecs;
    codecs.push_back(nullptr);
    codecs.push_back(std::make_shared<CastFp32Codec>());
    codecs.push_back(std::make_shared<SzqCodec>(1e-7));
    codecs.push_back(std::make_shared<ByteplaneRleCodec>());
    for (const CodecPtr& codec : codecs) {
      for (const OscSync sync : {OscSync::kFence, OscSync::kPscw}) {
        const auto base = make_layout(4, comm.rank());
        auto ref = make_batched_layout(base, kFields, 0.125);
        auto bat = make_batched_layout(base, kFields, 0.125);
        OscOptions ro;
        ro.codec = codec;
        ro.sync = sync;
        ro.gpus_per_node = 2;  // Two-node ring: multi-round epochs.
        OscOptions bo = ro;
        bo.batch = kFields;
        // Reference: a single-field plan run once per bank, banks copied
        // out of the pinned recv between executes.
        std::vector<double> expected(bat.recv.size(), -1.0);
        ExchangePlan rplan(
            comm, PlanBackend::kOneSided, ref.sc, ref.sd, ref.rc, ref.rd,
            std::span<double>(ref.recv.data(), base.recv.size()), ro);
        for (int f = 0; f < kFields; ++f) {
          const auto fo = static_cast<std::size_t>(f);
          rplan.execute(
              std::span<const double>(ref.send.data() + fo * base.send.size(),
                                      base.send.size()),
              std::span<double>(ref.recv.data(), base.recv.size()));
          std::copy_n(ref.recv.data(), base.recv.size(),
                      expected.data() + fo * base.recv.size());
        }
        // Batched: every bank travels under one epoch sequence.
        ExchangePlan bplan(comm, PlanBackend::kOneSided, bat.sc, bat.sd,
                           bat.rc, bat.rd, std::span<double>(bat.recv), bo);
        for (int it = 0; it < 2; ++it) {
          std::fill(bat.recv.begin(), bat.recv.end(), -1.0);
          bplan.execute_batch(bat.send, std::span<double>(bat.recv), kFields);
          for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(bat.recv[i], expected[i]) << "it=" << it << " i=" << i;
          }
        }
        // A partial batch reuses the leading banks only.
        std::fill(bat.recv.begin(), bat.recv.end(), -1.0);
        bplan.execute_batch(
            std::span<const double>(bat.send.data(), 2 * base.send.size()),
            std::span<double>(bat.recv.data(), 2 * base.recv.size()), 2);
        for (std::size_t i = 0; i < 2 * base.recv.size(); ++i) {
          EXPECT_EQ(bat.recv[i], expected[i]) << i;
        }
      }
    }
  });
}

TEST(BatchExecute, SyncCostIsPerBatchNotPerField) {
  // The point of batching: a k-field batch pays the epoch synchronization
  // once, not k times. Exact budgets per batched execute (gpn = 2, so the
  // 4-rank world is a two-node ring): raw fence = 2 barriers (open +
  // close); codec fence = nodes + 1 barriers (open + one per round); PSCW
  // = 2p posts per rank (one post per source, one complete per target) —
  // all independent of the field count.
  run_ranks(4, [](Comm& comm) {
    const int p = 4;
    constexpr int kFields = 3;
    constexpr int kIters = 2;
    const auto base = make_layout(p, comm.rank());
    auto raw = make_batched_layout(base, kFields, 0.25);
    auto cod = make_batched_layout(base, kFields, 0.25);
    auto hsk = make_batched_layout(base, kFields, 0.25);
    OscOptions ro;  // Raw fence.
    ro.gpus_per_node = 2;
    ro.batch = kFields;
    OscOptions co = ro;  // Fixed codec, fence.
    co.codec = std::make_shared<CastFp32Codec>();
    OscOptions po = co;  // Fixed codec, PSCW.
    po.sync = OscSync::kPscw;
    ExchangePlan rplan(comm, PlanBackend::kOneSided, raw.sc, raw.sd, raw.rc,
                       raw.rd, std::span<double>(raw.recv), ro);
    ExchangePlan cplan(comm, PlanBackend::kOneSided, cod.sc, cod.sd, cod.rc,
                       cod.rd, std::span<double>(cod.recv), co);
    ExchangePlan pplan(comm, PlanBackend::kOneSided, hsk.sc, hsk.sd, hsk.rc,
                       hsk.rd, std::span<double>(hsk.recv), po);
    rplan.execute_batch(raw.send, std::span<double>(raw.recv), kFields);
    cplan.execute_batch(cod.send, std::span<double>(cod.recv), kFields);
    pplan.execute_batch(hsk.send, std::span<double>(hsk.recv), kFields);

    // Fence budgets. The shared counter bumps at barrier *entry*, so the
    // baseline/final reads are bracketed with bcasts (message-based — they
    // never touch the barrier counter) instead of barriers: no rank can
    // reach the next fence before rank 0 has read the counter.
    std::array<std::byte, 1> tok{};
    comm.barrier();
    std::uint64_t b0 = 0;
    if (comm.rank() == 0) b0 = comm.state().barrier_count();
    comm.bcast(std::span<std::byte>(tok), 0);
    for (int it = 0; it < kIters; ++it) {
      rplan.execute_batch(raw.send, std::span<double>(raw.recv), kFields);
      cplan.execute_batch(cod.send, std::span<double>(cod.recv), kFields);
    }
    if (comm.rank() == 0) {
      const std::uint64_t nodes = 2;
      const std::uint64_t fences_per_iter = 2 + (nodes + 1);
      EXPECT_EQ(comm.state().barrier_count() - b0,
                kIters * fences_per_iter * static_cast<std::uint64_t>(p));
    }
    comm.bcast(std::span<std::byte>(tok), 0);

    // PSCW handshake budget (mailbox messages; barriers post none).
    comm.barrier();
    const std::uint64_t m0 = comm.state().message_post_count();
    comm.barrier();
    for (int it = 0; it < kIters; ++it) {
      pplan.execute_batch(hsk.send, std::span<double>(hsk.recv), kFields);
    }
    comm.barrier();
    EXPECT_EQ(comm.state().message_post_count() - m0,
              static_cast<std::uint64_t>(kIters) * p * 2 * p);

    // Spot-check delivery of the last banks (raw is exact; fp32 rounds).
    for (int s = 0; s < p; ++s) {
      const auto i = static_cast<std::size_t>(s);
      for (std::uint64_t k = 0; k < base.rc[i]; ++k) {
        const double want =
            cell_value(s, comm.rank(), k) + 0.25 * (kFields - 1);
        const std::size_t at =
            static_cast<std::size_t>(kFields - 1) * base.recv.size() +
            base.rd[i] + k;
        EXPECT_EQ(raw.recv[at], want);
        EXPECT_NEAR(hsk.recv[at], want, 3e-7);
      }
    }
  });
}

TEST(SteadyState, ReshapeExecuteIsAllocationFree) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{12, 10, 8};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 0, 4);
    ReshapeOptions ro;
    ro.backend = ExchangeBackend::kOsc;
    ro.codec = std::make_shared<CastFp32Codec>();
    Reshape<double> shape(comm, bricks, pencils, ro);
    std::vector<double> in(static_cast<std::size_t>(shape.inbox().count())),
        out(static_cast<std::size_t>(shape.outbox().count()));
    Xoshiro256 rng(23 + static_cast<std::uint64_t>(comm.rank()));
    fill_uniform(rng, in);
    shape.execute(std::span<const double>(in), std::span<double>(out));
    comm.barrier();
    const std::uint64_t w0 = comm.state().window_begin_count();
    t_allocs = 0;
    t_count_allocs = true;
    for (int it = 0; it < 3; ++it) {
      shape.execute(std::span<const double>(in), std::span<double>(out));
    }
    t_count_allocs = false;
    comm.barrier();
    EXPECT_EQ(comm.state().window_begin_count(), w0);
    EXPECT_EQ(t_allocs, 0u);
  });
}

}  // namespace
}  // namespace lossyfft::osc
