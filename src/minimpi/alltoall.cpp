#include "minimpi/alltoall.hpp"

#include <cstring>

#include "common/error.hpp"

namespace lossyfft::minimpi {

namespace {

constexpr int kA2aTag = (1 << 27);
constexpr int kBruckTag = (1 << 27) + 1;

void alltoallv_linear(Comm& comm, std::span<const std::byte> sendbuf,
                      std::span<const std::uint64_t> sendcounts,
                      std::span<const std::uint64_t> senddispls,
                      std::span<std::byte> recvbuf,
                      std::span<const std::uint64_t> recvcounts,
                      std::span<const std::uint64_t> recvdispls) {
  const int p = comm.size();
  const int me = comm.rank();
  // Post every receive, storm out every send, then complete — the
  // unthrottled pattern whose congestion behaviour Fig. 3 measures.
  if (recvcounts[static_cast<std::size_t>(me)] > 0) {
    std::memcpy(recvbuf.data() + recvdispls[static_cast<std::size_t>(me)],
                sendbuf.data() + senddispls[static_cast<std::size_t>(me)],
                recvcounts[static_cast<std::size_t>(me)]);
  }
  std::vector<Comm::Request> reqs;
  reqs.reserve(static_cast<std::size_t>(p - 1));
  for (int j = 1; j < p; ++j) {
    const int src = (me - j + p) % p;
    reqs.push_back(
        comm.irecv(recvbuf.subspan(recvdispls[static_cast<std::size_t>(src)],
                                   recvcounts[static_cast<std::size_t>(src)]),
                   src, kA2aTag));
  }
  std::vector<Comm::Request> sreqs;
  sreqs.reserve(static_cast<std::size_t>(p - 1));
  for (int j = 1; j < p; ++j) {
    const int dst = (me + j) % p;
    sreqs.push_back(
        comm.isend(sendbuf.subspan(senddispls[static_cast<std::size_t>(dst)],
                                   sendcounts[static_cast<std::size_t>(dst)]),
                   dst, kA2aTag));
  }
  comm.waitall(reqs);
  // Rendezvous sends complete only when the peer copies out of sendbuf;
  // reap them so the caller may reuse the buffer on return. Every rank has
  // posted all receives above, so this cannot cycle.
  comm.waitall(sreqs);
}

void alltoallv_pairwise(Comm& comm, std::span<const std::byte> sendbuf,
                        std::span<const std::uint64_t> sendcounts,
                        std::span<const std::uint64_t> senddispls,
                        std::span<std::byte> recvbuf,
                        std::span<const std::uint64_t> recvcounts,
                        std::span<const std::uint64_t> recvdispls) {
  const int p = comm.size();
  const int me = comm.rank();
  // Step 0 is the self-copy; step j exchanges with ranks at distance j so
  // every rank sends and receives exactly one message per step (constant
  // bidirectional traffic, the property Section V highlights).
  if (recvcounts[static_cast<std::size_t>(me)] > 0) {
    std::memcpy(recvbuf.data() + recvdispls[static_cast<std::size_t>(me)],
                sendbuf.data() + senddispls[static_cast<std::size_t>(me)],
                recvcounts[static_cast<std::size_t>(me)]);
  }
  for (int j = 1; j < p; ++j) {
    const int dst = (me + j) % p;
    const int src = (me - j + p) % p;
    comm.sendrecv(sendbuf.subspan(senddispls[static_cast<std::size_t>(dst)],
                                  sendcounts[static_cast<std::size_t>(dst)]),
                  dst, kA2aTag,
                  recvbuf.subspan(recvdispls[static_cast<std::size_t>(src)],
                                  recvcounts[static_cast<std::size_t>(src)]),
                  src, kA2aTag);
  }
}

// Bruck's algorithm for the uniform case: ceil(log2 p) rounds, each moving
// blocks whose (rotated) index has bit k set. Trades bandwidth (each block
// moves up to log p times) for latency, which wins for small messages.
void alltoall_bruck(Comm& comm, std::span<const std::byte> sendbuf,
                    std::span<std::byte> recvbuf, std::size_t blk) {
  const int p = comm.size();
  const int me = comm.rank();
  const std::size_t total = blk * static_cast<std::size_t>(p);

  // Phase 1: local rotation so block i holds data for rank (me + i) % p.
  std::vector<std::byte> work(total);
  for (int i = 0; i < p; ++i) {
    const int src_block = (me + i) % p;
    std::memcpy(work.data() + static_cast<std::size_t>(i) * blk,
                sendbuf.data() + static_cast<std::size_t>(src_block) * blk,
                blk);
  }

  // Phase 2: log rounds.
  std::vector<std::byte> sendtmp(total), recvtmp(total);
  for (int k = 1; k < p; k <<= 1) {
    std::size_t packed = 0;
    std::vector<int> idx;
    for (int i = 0; i < p; ++i) {
      if (i & k) {
        std::memcpy(sendtmp.data() + packed,
                    work.data() + static_cast<std::size_t>(i) * blk, blk);
        packed += blk;
        idx.push_back(i);
      }
    }
    const int dst = (me + k) % p;
    const int src = (me - k + p) % p;
    comm.sendrecv(std::span<const std::byte>(sendtmp.data(), packed), dst,
                  kBruckTag + k, std::span<std::byte>(recvtmp.data(), packed),
                  src, kBruckTag + k);
    std::size_t off = 0;
    for (int i : idx) {
      std::memcpy(work.data() + static_cast<std::size_t>(i) * blk,
                  recvtmp.data() + off, blk);
      off += blk;
    }
  }

  // Phase 3: inverse rotation into the receive buffer. After the rounds,
  // work[i] holds the block sent by rank (me - i + p) % p.
  for (int i = 0; i < p; ++i) {
    const int src_rank = (me - i + p) % p;
    std::memcpy(recvbuf.data() + static_cast<std::size_t>(src_rank) * blk,
                work.data() + static_cast<std::size_t>(i) * blk, blk);
  }
}

}  // namespace

const char* to_string(AlltoallAlgorithm a) {
  switch (a) {
    case AlltoallAlgorithm::kLinear: return "linear";
    case AlltoallAlgorithm::kPairwise: return "pairwise";
    case AlltoallAlgorithm::kBruck: return "bruck";
    case AlltoallAlgorithm::kAuto: return "auto";
  }
  return "?";
}

void alltoall(Comm& comm, std::span<const std::byte> sendbuf,
              std::span<std::byte> recvbuf, std::size_t block_bytes,
              AlltoallAlgorithm algo) {
  const auto p = static_cast<std::size_t>(comm.size());
  LFFT_REQUIRE(sendbuf.size() == p * block_bytes &&
                   recvbuf.size() == p * block_bytes,
               "alltoall: buffers must hold size() blocks");
  // Every rank passes the same block size, so all skip an empty exchange
  // together (and no memcpy ever sees the empty buffers' null pointers).
  if (block_bytes == 0) return;
  if (algo == AlltoallAlgorithm::kAuto) {
    algo = block_bytes <= kBruckThresholdBytes ? AlltoallAlgorithm::kBruck
                                               : AlltoallAlgorithm::kPairwise;
  }
  if (algo == AlltoallAlgorithm::kBruck) {
    alltoall_bruck(comm, sendbuf, recvbuf, block_bytes);
    return;
  }
  std::vector<std::uint64_t> counts(p, block_bytes), displs(p);
  for (std::size_t i = 0; i < p; ++i) displs[i] = i * block_bytes;
  alltoallv(comm, sendbuf, counts, displs, recvbuf, counts, displs, algo);
}

void alltoallv(Comm& comm, std::span<const std::byte> sendbuf,
               std::span<const std::uint64_t> sendcounts,
               std::span<const std::uint64_t> senddispls,
               std::span<std::byte> recvbuf,
               std::span<const std::uint64_t> recvcounts,
               std::span<const std::uint64_t> recvdispls,
               AlltoallAlgorithm algo) {
  const auto p = static_cast<std::size_t>(comm.size());
  LFFT_REQUIRE(sendcounts.size() == p && senddispls.size() == p &&
                   recvcounts.size() == p && recvdispls.size() == p,
               "alltoallv: counts/displs must have size() entries");
  switch (algo) {
    case AlltoallAlgorithm::kLinear:
      alltoallv_linear(comm, sendbuf, sendcounts, senddispls, recvbuf,
                       recvcounts, recvdispls);
      break;
    case AlltoallAlgorithm::kBruck:  // No uniform structure: use pairwise.
    case AlltoallAlgorithm::kAuto:
    case AlltoallAlgorithm::kPairwise:
      alltoallv_pairwise(comm, sendbuf, sendcounts, senddispls, recvbuf,
                         recvcounts, recvdispls);
      break;
  }
}

}  // namespace lossyfft::minimpi
