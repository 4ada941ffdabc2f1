// OSC_Alltoall vs classical all-to-all on real ranks (Algorithm 3 demo).
//
// Twelve ranks grouped six-per-node exchange per-pair payloads three ways:
// classical two-sided pairwise, the one-sided node-aware ring, and the
// one-sided ring with FP16 truncation. Verifies all deliver the same data
// (to wire precision) and prints the wire-volume ledger.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/table.hpp"
#include "compress/truncate.hpp"
#include "minimpi/alltoall.hpp"
#include "minimpi/runtime.hpp"
#include "osc/exchange_plan.hpp"
#include "osc/schedule.hpp"

using namespace lossyfft;

int main() {
  const int p = 12, gpn = 6;
  const std::uint64_t per_pair = 4096;  // Doubles per pair (32 KB).
  std::printf("all-to-all of %llu doubles per pair, %d ranks (%d per node)\n",
              static_cast<unsigned long long>(per_pair), p, gpn);

  minimpi::run_ranks(p, [&](minimpi::Comm& comm) {
    const int me = comm.rank();
    std::vector<std::uint64_t> counts(p, per_pair), displs(p);
    for (int r = 0; r < p; ++r) {
      displs[static_cast<std::size_t>(r)] = per_pair * static_cast<std::uint64_t>(r);
    }
    std::vector<double> send(per_pair * p);
    for (std::size_t i = 0; i < send.size(); ++i) {
      send[i] = std::sin(0.001 * static_cast<double>(i) + me);
    }

    // 1) Classical two-sided pairwise exchange (byte API).
    std::vector<double> recv_classic(send.size());
    {
      std::vector<std::uint64_t> bc(p, per_pair * 8), bd(p);
      for (int r = 0; r < p; ++r) {
        bd[static_cast<std::size_t>(r)] = per_pair * 8 * static_cast<std::uint64_t>(r);
      }
      minimpi::alltoallv(
          comm, std::as_bytes(std::span<const double>(send)), bc, bd,
          std::as_writable_bytes(std::span<double>(recv_classic)), bc, bd,
          minimpi::AlltoallAlgorithm::kPairwise);
    }

    // 2) One-sided ring, no compression.
    std::vector<double> recv_osc(send.size());
    osc::OscOptions raw;
    raw.gpus_per_node = gpn;
    const auto st_raw =
        osc::ExchangePlan(comm, osc::PlanBackend::kOneSided, counts, displs,
                          counts, displs, recv_osc, raw)
            .execute(send, recv_osc);

    // 3) One-sided ring, FP16 truncation, 8-chunk pipeline.
    std::vector<double> recv_fp16(send.size());
    osc::OscOptions lossy;
    lossy.gpus_per_node = gpn;
    lossy.codec = std::make_shared<CastFp16Codec>();
    lossy.chunks = 8;
    const auto st_16 =
        osc::ExchangePlan(comm, osc::PlanBackend::kOneSided, counts, displs,
                          counts, displs, recv_fp16, lossy)
            .execute(send, recv_fp16);

    // Verify.
    double max_raw = 0.0, max_16 = 0.0;
    for (std::size_t i = 0; i < send.size(); ++i) {
      max_raw = std::max(max_raw, std::fabs(recv_osc[i] - recv_classic[i]));
      max_16 = std::max(max_16, std::fabs(recv_fp16[i] - recv_classic[i]));
    }
    const double g_raw = comm.allreduce_one(max_raw, minimpi::ReduceOp::kMax);
    const double g_16 = comm.allreduce_one(max_16, minimpi::ReduceOp::kMax);

    if (me == 0) {
      std::printf("  OSC ring vs classical:        max |diff| = %.1e "
                  "(must be 0)\n", g_raw);
      std::printf("  OSC+FP16 vs classical:        max |diff| = %.1e "
                  "(FP16 roundoff ~5e-4)\n", g_16);
      TablePrinter t({"exchange", "payload B", "wire B", "ratio", "rounds",
                      "chunks"});
      t.add_row({"OSC raw", std::to_string(st_raw.payload_bytes),
                 std::to_string(st_raw.wire_bytes),
                 TablePrinter::fmt(st_raw.compression_ratio(), 2),
                 std::to_string(st_raw.rounds),
                 std::to_string(st_raw.chunks_issued)});
      t.add_row({"OSC fp16", std::to_string(st_16.payload_bytes),
                 std::to_string(st_16.wire_bytes),
                 TablePrinter::fmt(st_16.compression_ratio(), 2),
                 std::to_string(st_16.rounds),
                 std::to_string(st_16.chunks_issued)});
      t.print();
    }
  });
  return 0;
}
