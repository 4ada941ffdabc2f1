// Serving-layer conformance: the lossyfftd daemon, its wire protocol,
// admission/QoS scheduler, and the cross-session plan cache.
//
// The pillars pinned down here:
//   - served results are byte-identical to library-direct execution with
//     the same fft_options_for(config) (serving moves the transform, it
//     must not change it);
//   - two concurrent same-signature sessions construct exactly ONE
//     ExchangePlan, asserted via the world's SharedState window counter
//     (a plan construction registers one window per rank) and the cache's
//     hit/miss counters;
//   - a client that vanishes mid-transform cancels its queued jobs and
//     returns its plan lease without taking the daemon down (leak-freedom
//     rides the suite's ASAN runs);
//   - malformed, truncated, and oversized frames poison only their own
//     connection;
//   - an unsatisfiable QoS ask is rejected cleanly and the connection
//     survives to retry.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "compress/planner.hpp"
#include "minimpi/runtime.hpp"
#include "serve/client.hpp"

namespace {

using namespace lossyfft;
using namespace lossyfft::serve;

std::string test_socket() {
  static std::atomic<int> counter{0};
  return "/tmp/lossyfft_serve_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

DaemonOptions small_daemon() {
  DaemonOptions opt;
  opt.socket_path = test_socket();
  opt.ranks = 4;
  opt.gpus_per_node = 2;
  return opt;
}

SessionConfig lossy_config(std::array<int, 3> n, double e_tol) {
  SessionConfig cfg;
  cfg.n = n;
  cfg.family = static_cast<int>(CodecFamily::kTruncation);
  cfg.e_tol = e_tol;
  cfg.backend = static_cast<std::uint8_t>(ExchangeBackend::kOsc);
  cfg.sync = 0;  // fence
  return cfg;
}

// Global fields are x-fastest; mirror the daemon's brick staging so the
// library-direct reference produces the same global image.
void gather_box(const std::complex<double>* global,
                const std::array<int, 3>& n, const Box3& b,
                std::complex<double>* local) {
  for (int z = 0; z < b.size[2]; ++z) {
    for (int y = 0; y < b.size[1]; ++y) {
      const std::size_t src =
          std::size_t(b.lo[0]) +
          std::size_t(n[0]) * (std::size_t(b.lo[1] + y) +
                               std::size_t(n[1]) * std::size_t(b.lo[2] + z));
      std::memcpy(local, global + src,
                  std::size_t(b.size[0]) * sizeof(*local));
      local += b.size[0];
    }
  }
}

void scatter_box(const std::complex<double>* local, const Box3& b,
                 const std::array<int, 3>& n, std::complex<double>* global) {
  for (int z = 0; z < b.size[2]; ++z) {
    for (int y = 0; y < b.size[1]; ++y) {
      const std::size_t dst =
          std::size_t(b.lo[0]) +
          std::size_t(n[0]) * (std::size_t(b.lo[1] + y) +
                               std::size_t(n[1]) * std::size_t(b.lo[2] + z));
      std::memcpy(global + dst, local,
                  std::size_t(b.size[0]) * sizeof(*local));
      local += b.size[0];
    }
  }
}

std::vector<std::complex<double>> random_field(std::array<int, 3> n,
                                               std::uint64_t seed) {
  std::vector<std::complex<double>> f(std::size_t(n[0]) * n[1] * n[2]);
  Xoshiro256 rng(seed);
  fill_uniform_complex(rng, f);
  return f;
}

// --- Wire protocol units ----------------------------------------------------

TEST(ServeProtocol, WriterReaderRoundtrip) {
  WireWriter w;
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(1ull << 40);
  w.i32(-12);
  w.f64(2.5);
  w.str("hello");
  WireReader r(w.payload());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_EQ(r.i32(), -12);
  EXPECT_EQ(r.f64(), 2.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ServeProtocol, TruncatedPayloadThrows) {
  WireWriter w;
  w.u32(5);  // Claims a 5-byte string follows; nothing does.
  WireReader r(w.payload());
  EXPECT_THROW((void)r.str(), Error);
  WireReader r2(std::span<const std::byte>{});
  EXPECT_THROW((void)r2.u64(), Error);
}

TEST(ServeProtocol, ConfigCodecRoundtrip) {
  SessionConfig c = lossy_config({24, 12, 8}, 1e-5);
  c.parity = 2;
  c.sync = 1;
  c.qos.rate = 12.5;
  c.qos.priority = 6;
  c.qos.max_inflight = 9;
  WireWriter w;
  encode_config(w, c);
  WireReader r(w.payload());
  const SessionConfig d = decode_config(r);
  EXPECT_EQ(d.n, c.n);
  EXPECT_EQ(d.family, c.family);
  EXPECT_EQ(d.e_tol, c.e_tol);
  EXPECT_EQ(d.backend, c.backend);
  EXPECT_EQ(d.sync, c.sync);
  EXPECT_EQ(d.parity, c.parity);
  EXPECT_EQ(d.qos.rate, c.qos.rate);
  EXPECT_EQ(d.qos.priority, c.qos.priority);
  EXPECT_EQ(d.qos.max_inflight, c.qos.max_inflight);
}

// --- Scheduler units (no sockets: deterministic clock) ----------------------

std::shared_ptr<Session> scheduler_session(std::uint64_t id, int priority,
                                           double rate,
                                           std::uint32_t inflight = 8) {
  auto s = std::make_shared<Session>();
  s->id = id;
  s->cfg.qos.priority = priority;
  s->cfg.qos.rate = rate;
  s->cfg.qos.max_inflight = inflight;
  return s;
}

std::shared_ptr<Job> job_for(const std::shared_ptr<Session>& s) {
  auto j = std::make_shared<Job>();
  j->session = s;
  return j;
}

TEST(ServeScheduler, UnsatisfiableQosIsRejectedWithReason) {
  Scheduler sched{SchedulerLimits{}};
  SessionConfig ok = lossy_config({8, 8, 8}, 1e-4);
  EXPECT_TRUE(sched.admit(ok).empty());

  SessionConfig bad = ok;
  bad.qos.priority = 99;
  EXPECT_FALSE(sched.admit(bad).empty());
  bad = ok;
  bad.qos.max_inflight = 1u << 20;
  EXPECT_FALSE(sched.admit(bad).empty());
  bad = ok;
  bad.qos.rate = -1.0;
  EXPECT_FALSE(sched.admit(bad).empty());
  bad = ok;
  bad.n = {4096, 4096, 4096};
  EXPECT_FALSE(sched.admit(bad).empty());
  bad = ok;
  bad.e_tol = 0.0;
  EXPECT_FALSE(sched.admit(bad).empty());
  bad = ok;
  bad.family = 57;
  EXPECT_FALSE(sched.admit(bad).empty());
  bad = ok;
  bad.backend = static_cast<std::uint8_t>(ExchangeBackend::kOsc) + 1;
  EXPECT_FALSE(sched.admit(bad).empty());
  bad = ok;
  bad.sync = 2;
  EXPECT_FALSE(sched.admit(bad).empty());

  SchedulerLimits floor;
  floor.min_e_tol = 1e-6;
  Scheduler strict{floor};
  SessionConfig tight = lossy_config({8, 8, 8}, 1e-9);
  EXPECT_FALSE(strict.admit(tight).empty());
}

TEST(ServeScheduler, PriorityWinsAndTiesRoundRobin) {
  Scheduler sched{SchedulerLimits{}};
  auto lo = scheduler_session(1, 1, 0.0);
  auto hi = scheduler_session(2, 5, 0.0);
  auto hi2 = scheduler_session(3, 5, 0.0);
  ASSERT_TRUE(sched.add(lo));
  ASSERT_TRUE(sched.add(hi));
  ASSERT_TRUE(sched.add(hi2));
  std::string why;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(sched.enqueue(lo, job_for(lo), &why));
    ASSERT_TRUE(sched.enqueue(hi, job_for(hi), &why));
    ASSERT_TRUE(sched.enqueue(hi2, job_for(hi2), &why));
  }
  // Both high-priority queues drain (alternating) before the low one.
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 6; ++i) {
    auto j = sched.pick(double(i));
    ASSERT_NE(j, nullptr);
    order.push_back(j->session->id);
    sched.finish(j->session);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3, 2, 3, 1, 1}));
  EXPECT_EQ(sched.pick(100.0), nullptr);
}

TEST(ServeScheduler, TokenBucketThrottlesToRate) {
  Scheduler sched{SchedulerLimits{}};
  auto s = scheduler_session(1, 3, 2.0);  // 2 jobs/second, burst 2.
  ASSERT_TRUE(sched.add(s));
  std::string why;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(sched.enqueue(s, job_for(s), &why));
  // t=0: the full burst (2 tokens) drains, then the bucket is empty.
  ASSERT_NE(sched.pick(0.0), nullptr);
  ASSERT_NE(sched.pick(0.0), nullptr);
  EXPECT_EQ(sched.pick(0.0), nullptr);
  EXPECT_EQ(sched.pick(0.4), nullptr);  // 0.8 tokens: still short.
  ASSERT_NE(sched.pick(0.6), nullptr);  // 1.2 tokens.
  EXPECT_EQ(sched.pick(0.6), nullptr);
  ASSERT_NE(sched.pick(1.2), nullptr);
  // A long idle gap refills at most the burst, not the whole backlog.
  ASSERT_NE(sched.pick(100.0), nullptr);
  ASSERT_NE(sched.pick(100.0), nullptr);
  EXPECT_EQ(sched.pick(100.0), nullptr);
}

TEST(ServeScheduler, InflightCapDeniesEnqueue) {
  Scheduler sched{SchedulerLimits{}};
  auto s = scheduler_session(1, 3, 0.0, /*inflight=*/2);
  ASSERT_TRUE(sched.add(s));
  std::string why;
  EXPECT_TRUE(sched.enqueue(s, job_for(s), &why));
  EXPECT_TRUE(sched.enqueue(s, job_for(s), &why));
  EXPECT_FALSE(sched.enqueue(s, job_for(s), &why));
  EXPECT_FALSE(why.empty());
  // Draining the queue returns the in-flight slots.
  const auto dropped = sched.drain(s);
  EXPECT_EQ(dropped.size(), 2u);
  EXPECT_TRUE(sched.enqueue(s, job_for(s), &why));
  // A queued job holds its session, which holds the queue: drain it, as
  // the daemon's close_session does, so the cycle is released.
  EXPECT_EQ(sched.drain(s).size(), 1u);
}

// --- Served execution vs the library ---------------------------------------

TEST(ServeDaemon, RoundtripMatchesLibraryDirectExecution) {
  DaemonOptions opt = small_daemon();
  Daemon daemon(opt);
  daemon.start();
  const SessionConfig cfg = lossy_config({16, 12, 8}, 1e-6);
  const std::size_t elems = std::size_t(16) * 12 * 8;
  const auto field = random_field(cfg.n, 42);

  Client client;
  const auto open = client.open(opt.socket_path, cfg);
  ASSERT_TRUE(open.ok) << open.reason;
  EXPECT_EQ(open.ranks, 4u);
  std::vector<std::complex<double>> served(elems);
  const auto res =
      client.transform(TransformDir::kForward, field, served);
  ASSERT_TRUE(res.ok) << res.error;

  // Library-direct reference: same world size, same fft_options_for.
  std::vector<std::complex<double>> direct(elems);
  minimpi::run_ranks(opt.ranks, [&](minimpi::Comm& comm) {
    Fft3d<double> fft(comm, cfg.n,
                      fft_options_for(cfg, opt.gpus_per_node));
    std::vector<std::complex<double>> in_b(fft.local_count()),
        out_b(fft.output_count());
    gather_box(field.data(), cfg.n, fft.inbox(), in_b.data());
    fft.forward(in_b, out_b);
    scatter_box(out_b.data(), fft.outbox(), cfg.n, direct.data());
  });
  EXPECT_EQ(std::memcmp(served.data(), direct.data(),
                        elems * sizeof(served[0])),
            0)
      << "served transform must be byte-identical to library-direct";

  // Backward through the daemon matches too.
  std::vector<std::complex<double>> back(elems);
  const auto res2 = client.transform(TransformDir::kBackward, served, back);
  ASSERT_TRUE(res2.ok) << res2.error;
  double err = 0.0, den = 0.0;
  for (std::size_t i = 0; i < elems; ++i) {
    err += std::norm(back[i] - field[i]);
    den += std::norm(field[i]);
  }
  EXPECT_LT(std::sqrt(err / den), 1e-4);
  client.close();
  daemon.stop();
}

TEST(ServeDaemon, ConcurrentSameSignatureSessionsShareOnePlan) {
  DaemonOptions opt = small_daemon();
  Daemon daemon(opt);
  daemon.start();
  const SessionConfig cfg = lossy_config({12, 10, 8}, 1e-5);
  const auto field = random_field(cfg.n, 7);
  const std::size_t elems = field.size();

  const std::uint64_t w0 = daemon.world_window_begins();
  Client a;
  ASSERT_TRUE(a.open(opt.socket_path, cfg).ok);
  std::vector<std::complex<double>> out_a(elems);
  ASSERT_TRUE(a.transform(TransformDir::kForward, field, out_a).ok);
  const std::uint64_t w1 = daemon.world_window_begins();
  EXPECT_GT(w1, w0) << "first session must construct the plan";

  // Second session, same signature, while the first is still open: the
  // cache must serve the SAME planned transform — zero new windows, and
  // a byte-identical result.
  Client b;
  ASSERT_TRUE(b.open(opt.socket_path, cfg).ok);
  std::vector<std::complex<double>> out_b(elems);
  ASSERT_TRUE(b.transform(TransformDir::kForward, field, out_b).ok);
  const std::uint64_t w2 = daemon.world_window_begins();
  EXPECT_EQ(w2, w1) << "same-signature session must not construct a plan";
  EXPECT_EQ(std::memcmp(out_a.data(), out_b.data(),
                        elems * sizeof(out_a[0])),
            0);

  CacheCounters cc = daemon.cache_counters();
  EXPECT_EQ(cc.misses, 1u);
  EXPECT_GE(cc.hits, 1u);
  EXPECT_EQ(cc.entries, 1u);
  EXPECT_EQ(cc.leases, 2u);

  // A different signature builds a second plan (windows move again).
  SessionConfig other = cfg;
  other.e_tol = 1e-9;
  Client c;
  ASSERT_TRUE(c.open(opt.socket_path, other).ok);
  std::vector<std::complex<double>> out_c(elems);
  ASSERT_TRUE(c.transform(TransformDir::kForward, field, out_c).ok);
  EXPECT_GT(daemon.world_window_begins(), w2);
  cc = daemon.cache_counters();
  EXPECT_EQ(cc.misses, 2u);
  EXPECT_EQ(cc.entries, 2u);

  a.close();
  b.close();
  c.close();
  // Closed sessions return their leases.
  for (int i = 0; i < 100 && daemon.cache_counters().leases > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon.cache_counters().leases, 0u);
  daemon.stop();
}

TEST(ServeDaemon, StatsReplyCarriesTenantAndCacheCounters) {
  DaemonOptions opt = small_daemon();
  Daemon daemon(opt);
  daemon.start();
  SessionConfig cfg = lossy_config({12, 10, 8}, 1e-5);
  cfg.sync = 1;  // pscw: the per-source skew observability path
  const auto field = random_field(cfg.n, 11);

  Client client;
  ASSERT_TRUE(client.open(opt.socket_path, cfg).ok);
  std::vector<std::complex<double>> out(field.size());
  for (int it = 0; it < 3; ++it) {
    ASSERT_TRUE(client.transform(TransformDir::kRoundtrip, field, out).ok);
  }
  Client::Stats st;
  ASSERT_TRUE(client.stats(&st));
  EXPECT_EQ(st.values.at("ranks"), 4.0);
  EXPECT_EQ(st.values.at("tenant_jobs_done"), 3.0);
  EXPECT_GT(st.values.at("tenant_payload_bytes"), 0.0);
  EXPECT_GT(st.values.at("tenant_wire_bytes"), 0.0);
  EXPECT_LT(st.values.at("tenant_wire_bytes"),
            st.values.at("tenant_payload_bytes"));
  EXPECT_EQ(st.values.at("cache_misses"), 1.0);
  EXPECT_GT(st.values.at("cache_bytes"), 0.0);
  // One lag slot per world rank (PSCW records arrivals per source), and
  // the skew counters are present (an epoch with < 2 remote arrivals
  // records nothing, so only presence is contractual at this world size).
  EXPECT_EQ(st.source_lag.size(), 4u);
  EXPECT_EQ(st.values.count("tenant_skew_epochs"), 1u);
  EXPECT_EQ(st.values.count("tenant_max_skew_seconds"), 1u);
  client.close();
  daemon.stop();
}

// --- Fault paths ------------------------------------------------------------

TEST(ServeDaemon, DisconnectMidTransformCancelsAndReleases) {
  DaemonOptions opt = small_daemon();
  Daemon daemon(opt);
  daemon.start();
  SessionConfig cfg = lossy_config({20, 18, 16}, 1e-7);
  cfg.qos.max_inflight = 8;
  const auto field = random_field(cfg.n, 3);

  {
    Client doomed;
    ASSERT_TRUE(doomed.open(opt.socket_path, cfg).ok);
    // Pipeline several jobs, then vanish without CloseSession while they
    // are queued/running.
    for (std::uint64_t id = 1; id <= 6; ++id) {
      std::string why;
      ASSERT_TRUE(doomed.submit(id, TransformDir::kRoundtrip, field, &why))
          << why;
    }
    ::shutdown(doomed.raw_fd(), SHUT_RDWR);
  }  // ~Client closes the fd.

  // The daemon must shed the session: queued jobs cancelled, the plan
  // lease returned, the session gone from the registry.
  for (int i = 0; i < 400; ++i) {
    if (daemon.session_count() == 0 && daemon.cache_counters().leases == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon.session_count(), 0u);
  EXPECT_EQ(daemon.cache_counters().leases, 0u);

  // And keep serving: a fresh client reuses the cached plan.
  Client next;
  ASSERT_TRUE(next.open(opt.socket_path, cfg).ok);
  std::vector<std::complex<double>> out(field.size());
  ASSERT_TRUE(next.transform(TransformDir::kForward, field, out).ok);
  next.close();
  const DaemonCounters dc = daemon.counters();
  EXPECT_GT(dc.jobs_cancelled + dc.jobs_completed, 0u);
  daemon.stop();
}

TEST(ServeDaemon, MalformedFramesPoisonOnlyTheirConnection) {
  DaemonOptions opt = small_daemon();
  opt.max_frame_bytes = 1 << 20;
  Daemon daemon(opt);
  daemon.start();

  {  // Unknown frame type.
    Client raw;
    ASSERT_TRUE(raw.connect_only(opt.socket_path));
    const std::uint32_t hdr[2] = {0, 9999};
    ASSERT_TRUE(write_all(raw.raw_fd(), hdr, sizeof hdr));
    Frame f;
    EXPECT_EQ(read_frame(raw.raw_fd(), f, opt.max_frame_bytes),
              FrameRead::kFrame);
    EXPECT_EQ(f.type, MsgType::kError);
  }
  {  // Oversize length prefix.
    Client raw;
    ASSERT_TRUE(raw.connect_only(opt.socket_path));
    const std::uint32_t hdr[2] = {0xffffffffu,
                                  std::uint32_t(MsgType::kOpenSession)};
    ASSERT_TRUE(write_all(raw.raw_fd(), hdr, sizeof hdr));
    Frame f;
    EXPECT_EQ(read_frame(raw.raw_fd(), f, opt.max_frame_bytes),
              FrameRead::kFrame);
    EXPECT_EQ(f.type, MsgType::kError);
  }
  {  // Frame truncated mid-payload, then the peer vanishes.
    Client raw;
    ASSERT_TRUE(raw.connect_only(opt.socket_path));
    const std::uint32_t hdr[2] = {1024,
                                  std::uint32_t(MsgType::kOpenSession)};
    ASSERT_TRUE(write_all(raw.raw_fd(), hdr, sizeof hdr));
    const char partial[16] = {};
    ASSERT_TRUE(write_all(raw.raw_fd(), partial, sizeof partial));
  }
  {  // Well-framed but under-filled OpenSession body.
    Client raw;
    ASSERT_TRUE(raw.connect_only(opt.socket_path));
    const std::uint32_t hdr[2] = {4, std::uint32_t(MsgType::kOpenSession)};
    ASSERT_TRUE(write_all(raw.raw_fd(), hdr, sizeof hdr));
    const std::uint32_t version = kProtocolVersion;
    ASSERT_TRUE(write_all(raw.raw_fd(), &version, sizeof version));
    Frame f;
    EXPECT_EQ(read_frame(raw.raw_fd(), f, opt.max_frame_bytes),
              FrameRead::kFrame);
    EXPECT_EQ(f.type, MsgType::kError);
  }

  EXPECT_GE(daemon.counters().frames_rejected, 3u);
  // The daemon is unharmed: a real client opens and transforms.
  const SessionConfig cfg = lossy_config({8, 8, 8}, 1e-5);
  const auto field = random_field(cfg.n, 5);
  Client ok;
  ASSERT_TRUE(ok.open(opt.socket_path, cfg).ok);
  std::vector<std::complex<double>> out(field.size());
  EXPECT_TRUE(ok.transform(TransformDir::kForward, field, out).ok);
  ok.close();
  daemon.stop();
}

TEST(ServeDaemon, UnsatisfiableQosRejectedCleanly) {
  DaemonOptions opt = small_daemon();
  opt.limits.min_e_tol = 1e-8;
  Daemon daemon(opt);
  daemon.start();

  Client client;
  SessionConfig greedy = lossy_config({8, 8, 8}, 1e-5);
  greedy.qos.priority = 42;
  auto open = client.open(opt.socket_path, greedy);
  EXPECT_FALSE(open.ok);
  EXPECT_FALSE(open.reason.empty());

  SessionConfig tight = lossy_config({8, 8, 8}, 1e-12);
  open = client.open(opt.socket_path, tight);
  EXPECT_FALSE(open.ok);

  // Same connection, satisfiable ask: admitted and served.
  const SessionConfig sane = lossy_config({8, 8, 8}, 1e-5);
  open = client.open(opt.socket_path, sane);
  ASSERT_TRUE(open.ok) << open.reason;
  const auto field = random_field(sane.n, 9);
  std::vector<std::complex<double>> out(field.size());
  EXPECT_TRUE(client.transform(TransformDir::kForward, field, out).ok);
  client.close();
  EXPECT_EQ(daemon.counters().sessions_rejected, 2u);
  daemon.stop();
}

TEST(ServeDaemon, InflightCapAndProgressReporting) {
  DaemonOptions opt = small_daemon();
  Daemon daemon(opt);
  daemon.start();
  SessionConfig cfg = lossy_config({12, 10, 8}, 1e-5);
  cfg.qos.max_inflight = 2;
  const auto field = random_field(cfg.n, 13);

  Client client;
  ASSERT_TRUE(client.open(opt.socket_path, cfg).ok);
  std::string why;
  ASSERT_TRUE(client.submit(1, TransformDir::kForward, field, &why));
  ASSERT_TRUE(client.submit(2, TransformDir::kForward, field, &why));
  // Either both are still in flight (third denied) or the daemon already
  // finished one — submit again until a denial or all three land.
  bool denied = !client.submit(3, TransformDir::kForward, field, &why);
  if (denied) {
    EXPECT_FALSE(why.empty());
  }
  EXPECT_EQ(client.progress(999), JobState::kUnknown);

  std::vector<std::complex<double>> out(field.size());
  EXPECT_TRUE(client.wait(1, out).ok);
  EXPECT_TRUE(client.wait(2, out).ok);
  if (!denied) {
    EXPECT_TRUE(client.wait(3, out).ok);
  }
  // A finished job leaves the progress registry.
  EXPECT_EQ(client.progress(1), JobState::kUnknown);
  client.close();
  daemon.stop();
}

// --- Mini-soak: many tenants, mixed signatures ------------------------------

TEST(ServeDaemon, ManyClientsMixedSignatures) {
  DaemonOptions opt = small_daemon();
  Daemon daemon(opt);
  daemon.start();
  const SessionConfig sig_a = lossy_config({12, 10, 8}, 1e-5);
  SessionConfig sig_b = lossy_config({8, 12, 10}, 1e-7);
  sig_b.sync = 1;

  constexpr int kClients = 12;
  constexpr int kJobs = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const SessionConfig& cfg = (t % 2 == 0) ? sig_a : sig_b;
      const auto field = random_field(cfg.n, 100 + std::uint64_t(t));
      Client client;
      if (!client.open(opt.socket_path, cfg).ok) {
        failures.fetch_add(1);
        return;
      }
      std::vector<std::complex<double>> out(field.size());
      for (int j = 0; j < kJobs; ++j) {
        if (!client.transform(TransformDir::kRoundtrip, field, out).ok) {
          failures.fetch_add(1);
          return;
        }
      }
      client.close();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const CacheCounters cc = daemon.cache_counters();
  EXPECT_EQ(cc.misses, 2u) << "two signatures -> two plan constructions";
  EXPECT_GE(cc.hits, std::uint64_t(kClients - 2));
  EXPECT_EQ(daemon.counters().jobs_completed,
            std::uint64_t(kClients) * kJobs);
  daemon.stop();
}

// --- Plan-cache eviction under a byte budget --------------------------------

TEST(ServeDaemon, CacheEvictsLruUnderByteBudget) {
  DaemonOptions opt = small_daemon();
  // A budget of one small plan: the second signature must evict the
  // first once its lease is gone.
  opt.cache_budget_bytes = 1;
  Daemon daemon(opt);
  daemon.start();
  const SessionConfig first = lossy_config({8, 8, 8}, 1e-5);
  const SessionConfig second = lossy_config({8, 8, 8}, 1e-7);
  const auto field = random_field(first.n, 21);
  std::vector<std::complex<double>> out(field.size());

  {
    Client a;
    ASSERT_TRUE(a.open(opt.socket_path, first).ok);
    ASSERT_TRUE(a.transform(TransformDir::kForward, field, out).ok);
    a.close();
  }
  for (int i = 0; i < 100 && daemon.cache_counters().leases > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    Client b;
    ASSERT_TRUE(b.open(opt.socket_path, second).ok);
    ASSERT_TRUE(b.transform(TransformDir::kForward, field, out).ok);
    b.close();
  }
  const CacheCounters cc = daemon.cache_counters();
  EXPECT_EQ(cc.misses, 2u);
  EXPECT_GE(cc.evictions, 1u) << "over-budget unleased plan must be evicted";
  EXPECT_LE(cc.entries, 1u);
  daemon.stop();
}

}  // namespace
