#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/window.hpp"

namespace lossyfft::minimpi {
namespace {

template <typename T>
std::span<const std::byte> bytes_of(const T& v) {
  return std::as_bytes(std::span<const T>(&v, 1));
}

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::array<std::atomic<bool>, 8> seen{};
  run_ranks(8, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 8);
    EXPECT_FALSE(seen[static_cast<std::size_t>(comm.rank())].exchange(true));
    ++count;
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(Runtime, SingleRankWorldWorks) {
  run_ranks(1, [](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    comm.barrier();
    double v = 3.0;
    comm.allreduce(std::span<double>(&v, 1), ReduceOp::kSum);
    EXPECT_EQ(v, 3.0);
  });
}

TEST(Runtime, PropagatesRankExceptions) {
  EXPECT_THROW(
      run_ranks(1, [](Comm&) { throw Error("rank failure"); }), Error);
}

TEST(Runtime, RejectsNonPositiveRankCount) {
  EXPECT_THROW(run_ranks(0, [](Comm&) {}), Error);
}

TEST(PointToPoint, BasicSendRecv) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double v = 42.5;
      comm.send(bytes_of(v), 1, 7);
    } else {
      double v = 0.0;
      const Status st =
          comm.recv(std::as_writable_bytes(std::span<double>(&v, 1)), 0, 7);
      EXPECT_EQ(v, 42.5);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, sizeof(double));
    }
  });
}

TEST(PointToPoint, TagMatchingSelectsCorrectMessage) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int a = 111, b = 222;
      comm.send(bytes_of(a), 1, 1);
      comm.send(bytes_of(b), 1, 2);
    } else {
      int b = 0, a = 0;
      comm.recv(std::as_writable_bytes(std::span<int>(&b, 1)), 0, 2);
      comm.recv(std::as_writable_bytes(std::span<int>(&a, 1)), 0, 1);
      EXPECT_EQ(a, 111);
      EXPECT_EQ(b, 222);  // Out-of-order receipt via tags.
    }
  });
}

TEST(PointToPoint, NonOvertakingSameTag) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send(bytes_of(i), 1, 5);
    } else {
      for (int i = 0; i < 50; ++i) {
        int v = -1;
        comm.recv(std::as_writable_bytes(std::span<int>(&v, 1)), 0, 5);
        EXPECT_EQ(v, i);  // FIFO per (src, tag).
      }
    }
  });
}

TEST(PointToPoint, AnySourceReceivesFromEveryone) {
  run_ranks(5, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> got(5, false);
      for (int i = 1; i < 5; ++i) {
        int v = -1;
        const Status st = comm.recv(
            std::as_writable_bytes(std::span<int>(&v, 1)), kAnySource, 3);
        EXPECT_EQ(st.source, v);
        got[static_cast<std::size_t>(v)] = true;
      }
      for (int i = 1; i < 5; ++i) EXPECT_TRUE(got[static_cast<std::size_t>(i)]);
    } else {
      const int me = comm.rank();
      comm.send(bytes_of(me), 0, 3);
    }
  });
}

TEST(PointToPoint, AnyTagMatches) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 9;
      comm.send(bytes_of(v), 1, 1234);
    } else {
      int v = 0;
      const Status st =
          comm.recv(std::as_writable_bytes(std::span<int>(&v, 1)), 0, kAnyTag);
      EXPECT_EQ(st.tag, 1234);
      EXPECT_EQ(v, 9);
    }
  });
}

TEST(PointToPoint, OversizedMessageRejected) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double big[4] = {1, 2, 3, 4};
      comm.send(std::as_bytes(std::span<const double>(big, 4)), 1, 0);
    } else {
      double small[2];
      EXPECT_THROW(
          comm.recv(std::as_writable_bytes(std::span<double>(small, 2)), 0, 0),
          Error);
      // Drain cannot happen after throw; nothing else to verify.
    }
  });
}

TEST(PointToPoint, ZeroByteMessages) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::span<const std::byte>{}, 1, 1);
    } else {
      const Status st = comm.recv(std::span<std::byte>{}, 0, 1);
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(PointToPoint, SendRecvExchangesWithoutDeadlock) {
  run_ranks(4, [](Comm& comm) {
    const int me = comm.rank();
    const int right = (me + 1) % 4, left = (me + 3) % 4;
    int in = -1;
    comm.sendrecv(bytes_of(me), right, 8,
                  std::as_writable_bytes(std::span<int>(&in, 1)), left, 8);
    EXPECT_EQ(in, left);
  });
}

TEST(Nonblocking, IsendCompletesImmediately) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double v = 1.5;
      auto req = comm.isend(bytes_of(v), 1, 4);
      EXPECT_TRUE(req.done());
      comm.wait(req);
    } else {
      double v = 0;
      comm.recv(std::as_writable_bytes(std::span<double>(&v, 1)), 0, 4);
      EXPECT_EQ(v, 1.5);
    }
  });
}

TEST(Nonblocking, IrecvMatchesAtWait) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      double v = 0;
      auto req =
          comm.irecv(std::as_writable_bytes(std::span<double>(&v, 1)), 0, 6);
      // Tell rank 0 we have posted; then the message arrives.
      comm.send(std::span<const std::byte>{}, 0, 7);
      const Status st = comm.wait(req);
      EXPECT_EQ(v, 2.5);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.bytes, sizeof(double));
    } else {
      comm.recv(std::span<std::byte>{}, 1, 7);
      const double v = 2.5;
      comm.send(bytes_of(v), 1, 6);
    }
  });
}

TEST(Nonblocking, IrecvMatchesImmediatelyWhenDelivered) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 77;
      comm.send(bytes_of(v), 1, 8);
      comm.send(std::span<const std::byte>{}, 1, 9);  // Ordering fence.
    } else {
      comm.recv(std::span<std::byte>{}, 0, 9);  // Data for tag 8 is here.
      int v = 0;
      auto req = comm.irecv(std::as_writable_bytes(std::span<int>(&v, 1)), 0, 8);
      EXPECT_TRUE(req.done());  // Matched at post time.
      EXPECT_EQ(v, 77);
      comm.wait(req);
    }
  });
}

TEST(Nonblocking, WaitallCompletesManyRequests) {
  run_ranks(4, [](Comm& comm) {
    const int me = comm.rank();
    std::vector<int> inbox(4, -1);
    std::vector<Comm::Request> reqs;
    for (int r = 0; r < 4; ++r) {
      if (r == me) continue;
      reqs.push_back(comm.irecv(
          std::as_writable_bytes(
              std::span<int>(&inbox[static_cast<std::size_t>(r)], 1)),
          r, 10));
    }
    for (int r = 0; r < 4; ++r) {
      if (r == me) continue;
      comm.isend(bytes_of(me), r, 10);
    }
    const auto statuses = comm.waitall(reqs);
    EXPECT_EQ(statuses.size(), 3u);
    for (int r = 0; r < 4; ++r) {
      if (r != me) {
        EXPECT_EQ(inbox[static_cast<std::size_t>(r)], r);
      }
    }
  });
}

TEST(Nonblocking, WaitIsIdempotent) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 3;
      comm.send(bytes_of(v), 1, 11);
    } else {
      int v = 0;
      auto req = comm.irecv(std::as_writable_bytes(std::span<int>(&v, 1)), 0, 11);
      const Status a = comm.wait(req);
      const Status b = comm.wait(req);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(v, 3);
    }
  });
}

class CollectiveRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveRankSweep, BarrierCompletes) {
  run_ranks(GetParam(), [](Comm& comm) {
    for (int i = 0; i < 3; ++i) comm.barrier();
  });
}

TEST_P(CollectiveRankSweep, BcastFromEveryRoot) {
  const int p = GetParam();
  run_ranks(p, [p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::array<double, 3> v{};
      if (comm.rank() == root) v = {1.5, -2.5, static_cast<double>(root)};
      comm.bcast(std::span<double>(v), root);
      EXPECT_EQ(v[0], 1.5);
      EXPECT_EQ(v[2], static_cast<double>(root));
    }
  });
}

TEST_P(CollectiveRankSweep, AllreduceSumMaxMin) {
  const int p = GetParam();
  run_ranks(p, [p](Comm& comm) {
    const double me = comm.rank() + 1;
    EXPECT_DOUBLE_EQ(comm.allreduce_one(me, ReduceOp::kSum),
                     p * (p + 1) / 2.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_one(me, ReduceOp::kMax),
                     static_cast<double>(p));
    EXPECT_DOUBLE_EQ(comm.allreduce_one(me, ReduceOp::kMin), 1.0);
    const std::int64_t im = comm.rank();
    EXPECT_EQ(comm.allreduce_one(im, ReduceOp::kSum),
              static_cast<std::int64_t>(p) * (p - 1) / 2);
  });
}

TEST_P(CollectiveRankSweep, AllgatherCollectsInRankOrder) {
  const int p = GetParam();
  run_ranks(p, [p](Comm& comm) {
    const std::array<std::int64_t, 2> mine = {comm.rank(), comm.rank() * 10};
    std::vector<std::int64_t> all(static_cast<std::size_t>(p) * 2);
    comm.allgather(std::span<const std::int64_t>(mine),
                   std::span<std::int64_t>(all));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r) * 2], r);
      EXPECT_EQ(all[static_cast<std::size_t>(r) * 2 + 1], r * 10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveRankSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST(Reduce, ResultLandsOnRootOnly) {
  run_ranks(7, [](Comm& comm) {
    for (int root = 0; root < 7; ++root) {
      std::array<double, 2> v = {1.0, static_cast<double>(comm.rank())};
      comm.reduce(std::span<double>(v), ReduceOp::kSum, root);
      if (comm.rank() == root) {
        EXPECT_DOUBLE_EQ(v[0], 7.0);
        EXPECT_DOUBLE_EQ(v[1], 21.0);
      }
      comm.barrier();  // Keep rounds separated.
    }
  });
}

TEST(Reduce, MaxAndMinOps) {
  run_ranks(5, [](Comm& comm) {
    double v = std::fabs(2.0 - comm.rank());  // 2, 1, 0, 1, 2.
    comm.reduce(std::span<double>(&v, 1), ReduceOp::kMax, 1);
    if (comm.rank() == 1) {
      EXPECT_DOUBLE_EQ(v, 2.0);
    }
    double w = std::fabs(2.0 - comm.rank());
    comm.reduce(std::span<double>(&w, 1), ReduceOp::kMin, 4);
    if (comm.rank() == 4) {
      EXPECT_DOUBLE_EQ(w, 0.0);
    }
  });
}

TEST(WindowLock, ExclusiveLockMakesConcurrentUpdatesAtomic) {
  // Every rank increments every slot of rank 0's window under a lock; the
  // final values must equal the increment count exactly (no lost updates).
  run_ranks(6, [](Comm& comm) {
    std::vector<double> store(4, 0.0);
    Window win(comm, std::as_writable_bytes(std::span<double>(store)));
    win.fence();
    for (int iter = 0; iter < 10; ++iter) {
      win.lock(0);
      for (std::size_t k = 0; k < 4; ++k) {
        double v = 0.0;
        win.get(std::as_writable_bytes(std::span<double>(&v, 1)), 0,
                k * sizeof(double));
        v += 1.0;
        win.put(std::as_bytes(std::span<const double>(&v, 1)), 0,
                k * sizeof(double));
      }
      win.unlock(0);
    }
    win.fence();
    if (comm.rank() == 0) {
      for (const double v : store) EXPECT_DOUBLE_EQ(v, 60.0);
    }
  });
}

TEST(WindowLock, RejectsBadRank) {
  run_ranks(2, [](Comm& comm) {
    std::vector<std::byte> store(8);
    Window win(comm, store);
    EXPECT_THROW(win.lock(5), Error);
    EXPECT_THROW(win.unlock(-1), Error);
    win.fence();
  });
}

TEST(AllreduceVector, ElementwiseOverLongSpans) {
  run_ranks(6, [](Comm& comm) {
    std::vector<double> v(100);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<double>(i) + comm.rank();
    }
    comm.allreduce(std::span<double>(v), ReduceOp::kSum);
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_DOUBLE_EQ(v[i], 6.0 * static_cast<double>(i) + 15.0);
    }
  });
}

TEST(GatherScatter, GatherCollectsToRootOnly) {
  run_ranks(5, [](Comm& comm) {
    const int root = 2;
    const std::int64_t mine = 100 + comm.rank();
    std::vector<std::int64_t> all(comm.rank() == root ? 5 : 0);
    comm.gather(bytes_of(mine),
                std::as_writable_bytes(std::span<std::int64_t>(all)), root);
    if (comm.rank() == root) {
      for (int r = 0; r < 5; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], 100 + r);
      }
    }
  });
}

TEST(GatherScatter, ScatterDistributesFromRoot) {
  run_ranks(4, [](Comm& comm) {
    const int root = 1;
    std::vector<double> all;
    if (comm.rank() == root) {
      for (int r = 0; r < 4; ++r) all.push_back(r * 1.5);
    }
    double mine = -1;
    comm.scatter(std::as_bytes(std::span<const double>(all)),
                 std::as_writable_bytes(std::span<double>(&mine, 1)), root);
    EXPECT_DOUBLE_EQ(mine, comm.rank() * 1.5);
  });
}

TEST(GatherScatter, GatherThenScatterRoundTrips) {
  run_ranks(6, [](Comm& comm) {
    const std::array<double, 2> mine = {1.0 * comm.rank(), -2.0 * comm.rank()};
    std::vector<double> all(comm.rank() == 0 ? 12 : 0);
    comm.gather(std::as_bytes(std::span<const double>(mine)),
                std::as_writable_bytes(std::span<double>(all)), 0);
    std::array<double, 2> back{};
    comm.scatter(std::as_bytes(std::span<const double>(all)),
                 std::as_writable_bytes(std::span<double>(back)), 0);
    EXPECT_EQ(back, mine);
  });
}

TEST(Scan, InclusivePrefixSums) {
  run_ranks(6, [](Comm& comm) {
    std::array<double, 2> v = {1.0, static_cast<double>(comm.rank())};
    comm.scan(std::span<double>(v), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], comm.rank() + 1.0);
    EXPECT_DOUBLE_EQ(v[1], comm.rank() * (comm.rank() + 1) / 2.0);
  });
}

TEST(Scan, MaxPrefix) {
  run_ranks(5, [](Comm& comm) {
    // Values 3, 1, 4, 1, 5 -> running max 3, 3, 4, 4, 5.
    const double vals[5] = {3, 1, 4, 1, 5};
    const double want[5] = {3, 3, 4, 4, 5};
    double v = vals[comm.rank()];
    comm.scan(std::span<double>(&v, 1), ReduceOp::kMax);
    EXPECT_DOUBLE_EQ(v, want[comm.rank()]);
  });
}

TEST(CommSplit, GroupsByColorOrderedByKey) {
  run_ranks(8, [](Comm& comm) {
    // Evens and odds; key reverses the order within each group.
    const int color = comm.rank() % 2;
    const int key = -comm.rank();
    Comm sub = comm.split(color, key);
    EXPECT_EQ(sub.size(), 4);
    // Highest parent rank gets key smallest -> sub-rank 0.
    const int expected_rank = (7 - comm.rank()) / 2;
    EXPECT_EQ(sub.rank(), expected_rank);
    // The sub-communicator must actually work.
    const double s = sub.allreduce_one(1.0, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(s, 4.0);
  });
}

TEST(CommSplit, MessagesDoNotCrossCommunicators) {
  run_ranks(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    // Same (src=0, tag) in parent and child: each recv must see its own.
    if (comm.rank() == 0) {
      const int pv = 1, sv = 2;
      comm.send(bytes_of(pv), 2, 9);  // Parent rank 2 == sub(color 0) rank 1.
      sub.send(bytes_of(sv), 1, 9);
    }
    if (comm.rank() == 2) {
      int pv = 0, sv = 0;
      sub.recv(std::as_writable_bytes(std::span<int>(&sv, 1)), 0, 9);
      comm.recv(std::as_writable_bytes(std::span<int>(&pv, 1)), 0, 9);
      EXPECT_EQ(pv, 1);
      EXPECT_EQ(sv, 2);
    }
  });
}

TEST(Window, PutDeliversAfterFence) {
  run_ranks(4, [](Comm& comm) {
    std::vector<double> store(4, -1.0);
    Window win(comm, std::as_writable_bytes(std::span<double>(store)));
    win.fence();
    // Everyone writes its rank into slot[rank] of every peer.
    const double me = comm.rank();
    for (int r = 0; r < 4; ++r) {
      win.put(bytes_of(me), r,
              static_cast<std::size_t>(comm.rank()) * sizeof(double));
    }
    win.fence();
    for (int r = 0; r < 4; ++r) {
      EXPECT_DOUBLE_EQ(store[static_cast<std::size_t>(r)], r);
    }
  });
}

TEST(Window, GetReadsRemoteMemory) {
  run_ranks(3, [](Comm& comm) {
    const double mine = 100.0 + comm.rank();
    std::vector<double> store = {mine};
    Window win(comm, std::as_writable_bytes(std::span<double>(store)));
    win.fence();
    double got = 0.0;
    const int peer = (comm.rank() + 1) % 3;
    win.get(std::as_writable_bytes(std::span<double>(&got, 1)), peer, 0);
    EXPECT_DOUBLE_EQ(got, 100.0 + peer);
    win.fence();
  });
}

TEST(Window, DifferentSizesPerRank) {
  run_ranks(3, [](Comm& comm) {
    std::vector<std::byte> store(static_cast<std::size_t>(comm.rank() + 1) * 8);
    Window win(comm, store);
    EXPECT_EQ(win.size_at(0), 8u);
    EXPECT_EQ(win.size_at(2), 24u);
    win.fence();
  });
}

TEST(Window, OutOfBoundsPutRejected) {
  run_ranks(2, [](Comm& comm) {
    std::vector<std::byte> store(8);
    Window win(comm, store);
    win.fence();
    const double v = 1.0;
    EXPECT_THROW(win.put(bytes_of(v), (comm.rank() + 1) % 2, 4), Error);
    win.fence();
  });
}

TEST(Window, PutWithHeaderDeliversPayloadAndNotifyWord) {
  // The put-with-notify primitive behind the exchange-plan slot format: the
  // header word lands (release-stored) after the payload bytes, and the
  // target reads it back with read_local_header.
  run_ranks(3, [](Comm& comm) {
    // Per source slot: one u64 header word + up to 2 doubles of payload.
    constexpr std::size_t kSlot = kHeaderWordBytes + 2 * sizeof(double);
    std::vector<std::byte> store(3 * kSlot);
    Window win(comm, store);
    win.fence();
    const int me = comm.rank();
    for (int r = 0; r < 3; ++r) {
      // Send (me - r)-dependent sizes: rank r gets 1 or 2 doubles from me.
      const std::size_t n = 1 + static_cast<std::size_t>((me + r) % 2);
      std::vector<double> payload(n);
      for (std::size_t k = 0; k < n; ++k) payload[k] = 10.0 * me + r + 0.5 * k;
      const auto header =
          (std::uint64_t{7} << 48) | (n * sizeof(double));
      win.put_with_header(std::as_bytes(std::span<const double>(payload)), r,
                          static_cast<std::size_t>(me) * kSlot, header);
    }
    win.fence();
    for (int s = 0; s < 3; ++s) {
      const std::size_t slot = static_cast<std::size_t>(s) * kSlot;
      const std::uint64_t h = win.read_local_header(slot);
      EXPECT_EQ(h >> 48, 7u);
      const std::uint64_t bytes = h & ((std::uint64_t{1} << 48) - 1);
      const std::size_t n = 1 + static_cast<std::size_t>((s + comm.rank()) % 2);
      ASSERT_EQ(bytes, n * sizeof(double));
      for (std::size_t k = 0; k < n; ++k) {
        double v;
        std::memcpy(&v, store.data() + slot + kHeaderWordBytes +
                            k * sizeof(double),
                    sizeof(double));
        EXPECT_DOUBLE_EQ(v, 10.0 * s + comm.rank() + 0.5 * k);
      }
    }
    // Header-only rewrite (the fixed-codec notify flag).
    win.fence();
    win.put_header((me + 1) % 3, static_cast<std::size_t>(me) * kSlot,
                   std::uint64_t{42} << 48);
    win.fence();
    EXPECT_EQ(win.read_local_header(
                  static_cast<std::size_t>((me + 2) % 3) * kSlot) >> 48,
              42u);
    // Misaligned slot offsets and overflowing payloads are rejected.
    const double v = 1.0;
    EXPECT_THROW(win.put_with_header(bytes_of(v), me, 4, 0), Error);
    EXPECT_THROW(
        win.put_with_header(bytes_of(v), me, store.size() - kHeaderWordBytes,
                            0),
        Error);
    win.fence();
  });
}

TEST(Window, SequentialWindowsOnSameComm) {
  run_ranks(2, [](Comm& comm) {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::int64_t> store(2, -1);
      Window win(comm, std::as_writable_bytes(std::span<std::int64_t>(store)));
      win.fence();
      const std::int64_t v = round * 10 + comm.rank();
      win.put(bytes_of(v), (comm.rank() + 1) % 2,
              static_cast<std::size_t>(comm.rank()) * 8);
      win.fence();
      EXPECT_EQ(store[static_cast<std::size_t>((comm.rank() + 1) % 2)],
                round * 10 + (comm.rank() + 1) % 2);
    }
  });
}

TEST(CommSplit, SplitByNodeGroupsGpusPerNode) {
  run_ranks(12, [](Comm& comm) {
    Comm node = comm.split_by_node(6);
    EXPECT_EQ(node.size(), 6);
    EXPECT_EQ(node.rank(), comm.rank() % 6);
    // Node-local reductions see only node members.
    const double s = node.allreduce_one(1.0, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(s, 6.0);
  });
}

TEST(CommSplit, NestedSplitsStayIsolated) {
  run_ranks(8, [](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    // Reductions at all three levels in flight with the same tags.
    const double a = comm.allreduce_one(1.0, ReduceOp::kSum);
    const double b = half.allreduce_one(1.0, ReduceOp::kSum);
    const double c = quarter.allreduce_one(1.0, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(a, 8.0);
    EXPECT_DOUBLE_EQ(b, 4.0);
    EXPECT_DOUBLE_EQ(c, 2.0);
  });
}

TEST(Stress, RepeatedMixedCollectives) {
  // Many iterations of interleaved collectives: shakes out tag or context
  // leakage between operations.
  run_ranks(6, [](Comm& comm) {
    for (int it = 0; it < 25; ++it) {
      const double s = comm.allreduce_one(1.0, ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(s, 6.0);
      std::array<double, 4> v{};
      if (comm.rank() == it % 6) {
        for (auto& x : v) x = static_cast<double>(it);
      }
      comm.bcast(std::span<double>(v), it % 6);
      EXPECT_DOUBLE_EQ(v[3], static_cast<double>(it));
      comm.barrier();
      const int peer = (comm.rank() + 1 + it) % 6;
      const int back = (comm.rank() - 1 - it % 6 + 12) % 6;
      double out = comm.rank(), in = -1;
      comm.sendrecv(std::as_bytes(std::span<const double>(&out, 1)), peer,
                    it, std::as_writable_bytes(std::span<double>(&in, 1)),
                    back, it);
      EXPECT_DOUBLE_EQ(in, back);
    }
  });
}

TEST(ManyRanks, CollectivesAtScale) {
  // Sanity at a "node-count" scale of ranks (blocked threads are cheap).
  run_ranks(64, [](Comm& comm) {
    const double s = comm.allreduce_one(1.0, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(s, 64.0);
    comm.barrier();
  });
}

// ------------------------------------------------- rendezvous transport

// Threshold 1 forces every nonzero message through the zero-copy
// rendezvous path; kEagerOnlyThreshold forces the copy-through-envelope
// eager path. Payloads land byte-identically either way.
constexpr MinimpiOptions kAllRendezvous{.rendezvous_threshold = 1};
constexpr MinimpiOptions kAllEager{.rendezvous_threshold =
                                       kEagerOnlyThreshold};

TEST(Rendezvous, ForcedRendezvousDeliversSmallMessages) {
  run_ranks(2, kAllRendezvous, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double v = 42.5;
      comm.send(bytes_of(v), 1, 7);
    } else {
      double v = 0.0;
      const Status st =
          comm.recv(std::as_writable_bytes(std::span<double>(&v, 1)), 0, 7);
      EXPECT_EQ(v, 42.5);
      EXPECT_EQ(st.bytes, sizeof(double));
    }
  });
}

TEST(Rendezvous, ZeroByteMessagesStayEager) {
  // A 0-byte payload has no buffer to expose; it must take the eager path
  // even with the threshold forced to its minimum.
  run_ranks(2, kAllRendezvous, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::span<const std::byte>{}, 1, 1);
    } else {
      const Status st = comm.recv(std::span<std::byte>{}, 0, 1);
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(Rendezvous, SendrecvRingExchangesWithoutDeadlock) {
  // sendrecv posts the send before blocking on the recv, so a fully
  // cyclic ring completes even when every message is rendezvous.
  run_ranks(5, kAllRendezvous, [](Comm& comm) {
    const int me = comm.rank();
    const int right = (me + 1) % 5, left = (me + 4) % 5;
    std::vector<double> out(64), in(64, -1.0);
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = 100.0 * me + static_cast<double>(k);
    }
    comm.sendrecv(std::as_bytes(std::span<const double>(out)), right, 8,
                  std::as_writable_bytes(std::span<double>(in)), left, 8);
    for (std::size_t k = 0; k < in.size(); ++k) {
      EXPECT_EQ(in[k], 100.0 * left + static_cast<double>(k));
    }
  });
}

TEST(Rendezvous, IsendOwnsBufferUntilWait) {
  // The rendezvous receiver copies straight out of the sender's buffer;
  // wait() returning is the sender's license to reuse it.
  run_ranks(2, kAllRendezvous, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> buf(256, 3.25);
      auto req = comm.isend(std::as_bytes(std::span<const double>(buf)), 1, 4);
      comm.wait(req);
      std::fill(buf.begin(), buf.end(), -1.0);  // Safe only after wait.
      comm.barrier();
    } else {
      std::vector<double> got(256, 0.0);
      comm.recv(std::as_writable_bytes(std::span<double>(got)), 0, 4);
      for (const double v : got) EXPECT_EQ(v, 3.25);
      comm.barrier();
    }
  });
}

TEST(Rendezvous, OversizedMessageReleasesSenderBeforeThrow) {
  // The receiver must signal the sender (or release the envelope) before
  // throwing on a too-small buffer, or the sender would block forever.
  run_ranks(2, kAllRendezvous, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double big[4] = {1, 2, 3, 4};
      comm.send(std::as_bytes(std::span<const double>(big, 4)), 1, 0);
      // Reaching here at all proves the receiver unblocked us.
    } else {
      double small[2];
      EXPECT_THROW(
          comm.recv(std::as_writable_bytes(std::span<double>(small, 2)), 0, 0),
          Error);
    }
  });
}

TEST(Rendezvous, CollectivesCompleteUnderForcedRendezvous) {
  // Ring/tree collectives are built on sendrecv and matched send/recv
  // pairs; force every hop through the rendezvous path.
  run_ranks(6, kAllRendezvous, [](Comm& comm) {
    const double s = comm.allreduce_one(comm.rank() + 1.0, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(s, 21.0);
    std::array<std::int64_t, 2> mine = {comm.rank(), comm.rank() * 10};
    std::vector<std::int64_t> all(12);
    comm.allgather(std::span<const std::int64_t>(mine),
                   std::span<std::int64_t>(all));
    for (int r = 0; r < 6; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r) * 2], r);
    }
    std::array<double, 3> v{};
    if (comm.rank() == 2) v = {1.5, 2.5, 3.5};
    comm.bcast(std::span<double>(v), 2);
    EXPECT_EQ(v[1], 2.5);
    comm.barrier();
  });
}

TEST(Rendezvous, EagerAndRendezvousPayloadsAreByteIdentical) {
  // Same exchange under both transports; the received bytes must match
  // exactly — the protocol is an execution detail, not a format.
  const auto exchange = [](const MinimpiOptions& options) {
    std::vector<std::vector<double>> got(4);
    run_ranks(4, options, [&](Comm& comm) {
      const int me = comm.rank();
      const int right = (me + 1) % 4, left = (me + 3) % 4;
      std::vector<double> out(33), in(33, -1.0);
      for (std::size_t k = 0; k < out.size(); ++k) {
        out[k] = std::sqrt(2.0) * me + static_cast<double>(k) / 7.0;
      }
      comm.sendrecv(std::as_bytes(std::span<const double>(out)), right, 3,
                    std::as_writable_bytes(std::span<double>(in)), left, 3);
      got[static_cast<std::size_t>(me)] = in;
    });
    return got;
  };
  const auto rdz = exchange(kAllRendezvous);
  const auto eag = exchange(kAllEager);
  for (std::size_t r = 0; r < 4; ++r) {
    ASSERT_EQ(std::memcmp(rdz[r].data(), eag[r].data(),
                          rdz[r].size() * sizeof(double)),
              0)
        << "rank " << r;
  }
}

}  // namespace
}  // namespace lossyfft::minimpi
