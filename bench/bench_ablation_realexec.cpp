// Ablation: measured wall-clock of the real thread-rank execution.
//
// Every other performance number in this harness is modeled; this bench
// times the *actual* library (8 thread ranks on this machine, 48^3 grid)
// across backend x codec x worker count, reporting milliseconds per
// transform and the exchange share, and records the table to
// BENCH_realexec.json. Absolute values are machine-specific (thread ranks
// on few cores serialize), but the wire-volume column is exact and the
// codec CPU cost ordering is real. The xN rows run the same transform
// with the codec/pack engine fanned out to N shards of the process pool —
// results are bitwise identical to the serial rows by construction.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "compress/lossless.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "dfft/decomp.hpp"
#include "dfft/fft3d.hpp"
#include "dfft/reshape.hpp"
#include "minimpi/alltoall.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/runtime.hpp"
#include "osc/exchange_plan.hpp"
#include "osc/osc_alltoall.hpp"
#include "tuner/tuner.hpp"

using namespace lossyfft;

int main(int argc, char** argv) {
  // Size the process pool before its first use; keep a user's explicit
  // choice. The pool is shared by every config below.
  ::setenv("LOSSYFFT_WORKERS", "4", /*overwrite=*/0);

  // --smoke: CI-sized run (4 ranks, 16^3, 1 roundtrip, no JSON) that still
  // walks every backend x codec x transport combination below.
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int ranks = smoke ? 4 : 8, iters = smoke ? 1 : 4;
  const int g = smoke ? 16 : 48;
  const std::array<int, 3> n{g, g, g};
  std::printf("== Ablation: measured execution, %dx%dx%d over %d thread "
              "ranks (%d roundtrips) ==\n", n[0], n[1], n[2], ranks, iters);

  struct Cfg {
    const char* label;
    ExchangeBackend backend;
    CodecPtr codec;
    int workers;          // ReshapeOptions::workers (1 = serial).
    int fft_workers = 1;  // Fft3dOptions::fft_workers (1 = serial).
    // Force the copy-through-envelope eager transport for every message
    // (the pre-rendezvous baseline); default is the zero-copy rendezvous
    // path above MinimpiOptions::rendezvous_threshold.
    bool eager_only = false;
  };
  const auto fp32 = std::make_shared<CastFp32Codec>();
  const auto fp16 = std::make_shared<CastFp16Codec>();
  const auto trim20 = std::make_shared<BitTrimCodec>(20);
  const auto szq6 = std::make_shared<SzqCodec>(1e-6);
  const auto zacc6 = std::make_shared<ZfpxAccuracyCodec>(1e-6);
  const auto rle = std::make_shared<ByteplaneRleCodec>();
  const Cfg cfgs[] = {
      {"pairwise raw", ExchangeBackend::kPairwise, nullptr, 1},
      {"pairwise raw eager", ExchangeBackend::kPairwise, nullptr, 1, 1, true},
      {"pairwise raw fftx4", ExchangeBackend::kPairwise, nullptr, 1, 4},
      {"osc raw", ExchangeBackend::kOsc, nullptr, 1},
      {"osc raw fftx4", ExchangeBackend::kOsc, nullptr, 1, 4},
      {"osc raw x4", ExchangeBackend::kOsc, nullptr, 4},
      {"osc fp64->fp32", ExchangeBackend::kOsc, fp32, 1},
      {"osc fp64->fp32 x4", ExchangeBackend::kOsc, fp32, 4},
      {"osc fp64->fp16", ExchangeBackend::kOsc, fp16, 1},
      {"osc fp64->fp16 x4", ExchangeBackend::kOsc, fp16, 4},
      {"osc bittrim20", ExchangeBackend::kOsc, trim20, 1},
      {"osc bittrim20 x4", ExchangeBackend::kOsc, trim20, 4},
      {"osc szq 1e-6", ExchangeBackend::kOsc, szq6, 1},
      {"osc rle", ExchangeBackend::kOsc, rle, 1},
      {"pairwise fp64->fp32", ExchangeBackend::kPairwise, fp32, 1},
      {"pairwise fp64->fp32 x4", ExchangeBackend::kPairwise, fp32, 4},
  };

  struct Row {
    std::string label;
    int workers, fft_workers;
    bool eager_only;
    double ms, exch_ms, ratio, err;
  };
  std::vector<Row> rows;

  TablePrinter t({"config", "ms/roundtrip", "exchange ms", "wire ratio",
                  "roundtrip err"});
  for (const auto& cfg : cfgs) {
    double ms = 0, exch_ms = 0, ratio = 1, err = 0;
    minimpi::MinimpiOptions mo;
    if (cfg.eager_only) {
      mo.rendezvous_threshold = minimpi::kEagerOnlyThreshold;
    }
    minimpi::run_ranks(ranks, mo, [&](minimpi::Comm& comm) {
      Fft3dOptions o;
      o.backend = cfg.backend;
      o.codec = cfg.codec;
      o.reshape_workers = cfg.workers;
      o.fft_workers = cfg.fft_workers;
      Fft3d<double> fft(comm, n, o);
      Xoshiro256 rng(5 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<std::complex<double>> in(fft.local_count()),
          spec(fft.local_count()), back(fft.local_count());
      fill_uniform_complex(rng, in);

      Stopwatch watch;
      for (int it = 0; it < iters; ++it) {
        fft.forward(in, spec);
        fft.backward(spec, back);
      }
      const double elapsed = watch.seconds();
      const double e = rel_l2_error<double>(comm, back, in);
      if (comm.rank() == 0) {
        const auto st = fft.stats();
        ms = elapsed * 1e3 / iters;
        exch_ms = st.seconds * 1e3 / (2 * iters);
        ratio = st.compression_ratio();
        err = e;
      }
    });
    t.add_row({cfg.label, TablePrinter::fmt(ms, 1),
               TablePrinter::fmt(exch_ms, 1), TablePrinter::fmt(ratio, 2),
               TablePrinter::sci(err, 1)});
    rows.push_back({cfg.label, cfg.workers, cfg.fft_workers, cfg.eager_only,
                    ms, exch_ms, ratio, err});
  }
  t.print();
  std::printf(
      "\nNote: thread ranks sharing few cores serialize, so times measure\n"
      "CPU work (pack + codec + copies), not network overlap; xN rows add\n"
      "worker-pool fan-out, which only pays off with spare cores. The\n"
      "wire-ratio column is the quantity the netsim figures scale by.\n");

  // --- Isolated exchange: transport cost without compute skew -------------
  // Inside a transform, the per-rank exchange clock also counts the wait
  // for every *other* rank's serialized FFT stage (on an oversubscribed
  // host that wait dwarfs the transport), so the exchange column above
  // cannot resolve transport changes. Timing back-to-back alltoallv calls
  // with no compute in between isolates the exchange itself. "plan" rows
  // hold a persistent osc::ExchangePlan across iterations (the
  // Reshape-steady-state configuration); call rows pay the per-call setup.
  struct XRow {
    std::string label;
    double ms;
    double ratio;
    // Coded rows only (parity >= 0 marks one): resilience counters summed
    // over rank 0's iterations.
    int parity = -1;
    std::uint64_t reconstructed = 0;
    std::uint64_t straggler_waits = 0;
  };
  std::vector<XRow> xrows;
  {
    const std::size_t per_peer = static_cast<std::size_t>(n[0]) * n[1] * n[2] /
                                 static_cast<std::size_t>(ranks * ranks);
    const int xiters = smoke ? 4 : 50;
    enum class XMode { kPairwise, kOscCall, kOscPlan, kTwoCall, kTwoPlan };
    struct XCfg {
      std::string label;
      XMode mode;
      CodecPtr codec;           // nullptr = raw bytes.
      bool eager_only = false;  // Force the copy-through-envelope transport.
      osc::OscSync sync = osc::OscSync::kFence;  // One-sided epoch close.
      int workers = 1;          // >1 enables pool-pipelined target decode.
      int parity = 0;           // Coded-exchange parity chunks per group.
      const minimpi::FaultPlan* faults = nullptr;  // Injected stragglers.
    };
    constexpr auto kPscw = osc::OscSync::kPscw;
    std::vector<XCfg> xcfgs = {
        {"osc raw", XMode::kOscCall, nullptr},
        {"osc raw plan", XMode::kOscPlan, nullptr},
        {"osc raw pscw plan", XMode::kOscPlan, nullptr, false, kPscw},
        {"pairwise raw", XMode::kPairwise, nullptr},
        {"pairwise raw eager", XMode::kPairwise, nullptr, true},
        {"fp32 osc", XMode::kOscCall, fp32},
        {"fp32 osc plan", XMode::kOscPlan, fp32},
        {"fp32 osc pscw plan", XMode::kOscPlan, fp32, false, kPscw},
        {"fp32 osc pscw piped plan", XMode::kOscPlan, fp32, false, kPscw, 4},
        {"fp32 twosided fused", XMode::kTwoCall, fp32},
        {"fp32 twosided plan", XMode::kTwoPlan, fp32},
        {"bittrim20 osc", XMode::kOscCall, trim20},
        {"bittrim20 osc plan", XMode::kOscPlan, trim20},
        {"bittrim20 osc pscw plan", XMode::kOscPlan, trim20, false, kPscw},
        {"bittrim20 osc pscw piped plan", XMode::kOscPlan, trim20, false,
         kPscw, 4},
        {"bittrim20 twosided fused", XMode::kTwoCall, trim20},
        {"bittrim20 twosided plan", XMode::kTwoPlan, trim20},
        {"szq1e-6 osc plan", XMode::kOscPlan, szq6},
        {"szq1e-6 osc pscw plan", XMode::kOscPlan, szq6, false, kPscw},
        // The bit-plane codec rows time the scan-then-fill zfpx decode on
        // the wire it actually rides (target-side decode inside the
        // one-sided epoch); the piped row adds pool-pipelined decode.
        {"zfpx-acc1e-6 osc plan", XMode::kOscPlan, zacc6},
        {"zfpx-acc1e-6 osc pscw plan", XMode::kOscPlan, zacc6, false, kPscw},
        {"zfpx-acc1e-6 osc pscw piped plan", XMode::kOscPlan, zacc6, false,
         kPscw, 4},
    };
    // Coded exchange under injected stragglers: a probabilistic delay plan
    // parks a slice of the one-sided puts past the epoch close. With m = 0
    // the target must flush-and-wait for every late frame; with m > 0 it
    // reconstructs the missing chunk from parity instead of waiting, which
    // is the latency the coded wire format buys. The delay seed is fixed so
    // the three rows face an identical fault stream.
    minimpi::FaultPlan straggle;
    straggle.seed = 0x5eed5eedull;
    straggle.delay_prob = 0.15;
    for (const int m : {0, 1, 2}) {
      XCfg c;
      c.label = "fp32 osc plan delay15% m" + std::to_string(m);
      c.mode = XMode::kOscPlan;
      c.codec = fp32;
      c.parity = m;
      c.faults = &straggle;
      xcfgs.push_back(std::move(c));
    }
    // "auto" rows: the model-guided tuner (src/tuner/) resolves each codec
    // class at this exchange signature — calibrating on first use or
    // reading LOSSYFFT_TUNE_CACHE — and the picked path/sync/fan-out runs
    // through the same persistent-plan harness as the fixed rows above, so
    // the pick can be compared against every configuration it rejected.
    {
      const auto path_name = [](tuner::TunePath tp) {
        switch (tp) {
          case tuner::TunePath::kOneSidedFence: return "osc-fence";
          case tuner::TunePath::kOneSidedPscw: return "osc-pscw";
          case tuner::TunePath::kTwoSidedFused: return "two-fused";
        }
        return "?";
      };
      struct AutoCase {
        const char* name;
        CodecPtr codec;
        double e_tol;
      };
      const AutoCase autos[] = {{"raw", nullptr, 0.0},
                                {"fp32", fp32, 0.0},
                                {"bittrim20", trim20, 0.0},
                                {"szq1e-6", szq6, 1e-6}};
      for (const AutoCase& ac : autos) {
        tuner::ExchangeSignature sig;
        sig.p = ranks;
        sig.gpn = osc::OscOptions{}.gpus_per_node;
        sig.pair_bytes = per_peer * sizeof(double);
        sig.codec = ac.codec;
        sig.e_tol = ac.e_tol;
        const tuner::TuneDecision d = tuner::Tuner::global().decide(sig);
        XCfg c;
        c.label = std::string("auto ") + ac.name + " [" + path_name(d.path) +
                  (d.workers > 1 ? " x" + std::to_string(d.workers) : "") +
                  "]";
        c.mode = d.plan_backend() == osc::PlanBackend::kOneSided
                     ? XMode::kOscPlan
                     : XMode::kTwoPlan;
        c.codec = ac.codec;
        c.sync = d.sync();
        c.workers = d.workers;
        xcfgs.push_back(std::move(c));
      }
    }
    TablePrinter xt({"exchange only", "ms/exchange", "wire ratio"});
    for (const auto& xcfg : xcfgs) {
      double xms = 0, xratio = 1;
      std::uint64_t xrecon = 0, xwaits = 0;
      minimpi::MinimpiOptions mo;
      if (xcfg.eager_only) {
        mo.rendezvous_threshold = minimpi::kEagerOnlyThreshold;
      }
      minimpi::run_ranks(ranks, mo, [&](minimpi::Comm& comm) {
        const auto p = static_cast<std::size_t>(ranks);
        std::vector<double> send(per_peer * p, 1.0), recvb(per_peer * p);
        std::vector<std::uint64_t> counts(p, per_peer), displs(p),
            bcounts(p, per_peer * sizeof(double)), bdispls(p);
        for (std::size_t r = 0; r < p; ++r) {
          displs[r] = r * per_peer;
          bdispls[r] = displs[r] * sizeof(double);
        }
        osc::OscOptions oo;
        oo.codec = xcfg.codec;
        oo.sync = xcfg.sync;
        oo.workers = xcfg.workers;
        oo.parity = xcfg.parity;
        oo.fault_plan = xcfg.faults;
        const auto backend =
            xcfg.mode == XMode::kOscCall || xcfg.mode == XMode::kOscPlan
                ? osc::PlanBackend::kOneSided
                : osc::PlanBackend::kTwoSided;
        std::unique_ptr<osc::ExchangePlan> plan;
        if (xcfg.mode == XMode::kOscPlan || xcfg.mode == XMode::kTwoPlan) {
          plan = std::make_unique<osc::ExchangePlan>(
              comm, backend, counts, displs, counts, displs,
              std::span<double>(recvb), oo);
        }
        osc::ExchangeStats st;
        comm.barrier();
        Stopwatch watch;
        for (int it = 0; it < xiters; ++it) {
          switch (xcfg.mode) {
            case XMode::kPairwise:
              minimpi::alltoallv(
                  comm, std::as_bytes(std::span<const double>(send)), bcounts,
                  bdispls, std::as_writable_bytes(std::span<double>(recvb)),
                  bcounts, bdispls);
              break;
            case XMode::kOscCall:
            case XMode::kTwoCall:
              // A one-off plan per call: its setup collectives are timed.
              st = osc::ExchangePlan(comm, backend, counts, displs, counts,
                                     displs, std::span<double>(recvb), oo)
                       .execute(send, recvb);
              break;
            case XMode::kOscPlan:
            case XMode::kTwoPlan:
              st = plan->execute(send, recvb);
              break;
          }
          if (xcfg.faults != nullptr && comm.rank() == 0) {
            xrecon += st.chunks_reconstructed;
            xwaits += st.straggler_waits;
          }
        }
        comm.barrier();
        if (comm.rank() == 0) {
          xms = watch.seconds() * 1e3 / xiters;
          xratio = st.wire_bytes > 0 ? st.compression_ratio() : 1.0;
        }
      });
      xt.add_row({xcfg.label, TablePrinter::fmt(xms, 3),
                  TablePrinter::fmt(xratio, 2)});
      XRow xr{xcfg.label, xms, xratio};
      if (xcfg.faults != nullptr) {
        xr.parity = xcfg.parity;
        xr.reconstructed = xrecon;
        xr.straggler_waits = xwaits;
      }
      xrows.push_back(std::move(xr));
    }

    // --- Pack elision on a real reshape ------------------------------------
    // The z-pencil -> brick boundary stage sends contiguous runs of the
    // source field, so the elided plan posts sends straight from the field
    // (no pack jobs, no staging buffer).
    {
      struct RCfg {
        const char* label;
        CodecPtr codec;
      };
      const RCfg rcfgs[] = {
          {"reshape zp->brick raw elided", nullptr},
          {"reshape zp->brick fp32 elided", fp32},
      };
      const auto zp =
          split_pencil(n, 2, std::array<int, 2>{2, ranks / 2});
      const auto bricks = split_brick(n, proc_grid3(ranks));
      for (const RCfg& rc : rcfgs) {
        double xms = 0, xratio = 1;
        minimpi::run_ranks(ranks, [&](minimpi::Comm& comm) {
          ReshapeOptions ro;
          ro.backend = ExchangeBackend::kOsc;
          ro.codec = rc.codec;
          Reshape<std::complex<double>> rs(comm, zp, bricks, ro);
          if (!rs.pack_elided()) {
            std::fprintf(stderr, "expected elision on zp->brick\n");
            std::abort();
          }
          const auto me = static_cast<std::size_t>(comm.rank());
          std::vector<std::complex<double>> in(
              static_cast<std::size_t>(zp[me].count()), {1.0, -1.0});
          std::vector<std::complex<double>> out(
              static_cast<std::size_t>(bricks[me].count()));
          rs.execute(in, out);  // Warm the plan.
          comm.barrier();
          Stopwatch watch;
          for (int it = 0; it < xiters; ++it) rs.execute(in, out);
          comm.barrier();
          if (comm.rank() == 0) {
            xms = watch.seconds() * 1e3 / xiters;
            const auto& st = rs.stats();
            xratio = st.wire_bytes > 0 ? st.compression_ratio() : 1.0;
          }
        });
        xt.add_row({rc.label, TablePrinter::fmt(xms, 3),
                    TablePrinter::fmt(xratio, 2)});
        xrows.push_back({rc.label, xms, xratio});
      }
    }
    xt.print();
    std::printf("coded rows under delay_prob=0.15 (rank-0 totals over %d "
                "exchanges):\n", xiters);
    for (const XRow& r : xrows) {
      if (r.parity < 0) continue;
      std::printf("  %-28s m=%d  reconstructed=%llu  flush_waits=%llu\n",
                  r.label.c_str(), r.parity,
                  static_cast<unsigned long long>(r.reconstructed),
                  static_cast<unsigned long long>(r.straggler_waits));
    }
  }

  // Which of the default pencil pipeline's four reshapes elide packing at
  // this geometry (recorded so the JSON shows elision firing in the real
  // transform, not just the isolated reshape rows).
  std::array<bool, 4> elided{};
  minimpi::run_ranks(ranks, [&](minimpi::Comm& comm) {
    Fft3dOptions eo;
    eo.backend = ExchangeBackend::kOsc;
    Fft3d<double> fft(comm, n, eo);
    if (comm.rank() == 0) elided = fft.reshape_pack_elided();
  });
  std::printf("pencil reshape pack elision: [%d, %d, %d, %d]\n", elided[0],
              elided[1], elided[2], elided[3]);

  if (smoke) {
    std::printf("Smoke mode: skipping BENCH_realexec.json\n");
    return 0;
  }
  if (std::FILE* f = std::fopen("BENCH_realexec.json", "w")) {
    std::fprintf(f,
                 "{\n  \"grid\": [%d, %d, %d],\n  \"ranks\": %d,\n"
                 "  \"iters\": %d,\n"
                 "  \"simd_effective\": \"%s\",\n"
                 "  \"simd_requested\": \"%s\",\n"
                 "  \"note\": \"At this problem size the per-config payloads "
                 "sit below the bytes-per-shard floor, so xN rows fall back "
                 "to the serial path by design; their deltas versus the x1 "
                 "rows are scheduler noise, not fan-out cost. exchange_ms "
                 "on an oversubscribed host is dominated by compute arrival "
                 "skew; see exchange_only for the transport-only number.\",\n"
                 "  \"faults\": {\"delay_prob\": 0.15, "
                 "\"seed\": \"0x5eed5eed\", \"note\": \"exchange_only rows "
                 "carrying a parity field ran under this probabilistic "
                 "delay plan; all other rows ran fault-free\"},\n"
                 "  \"pencil_reshape_pack_elided\": [%s, %s, %s, %s],\n"
                 "  \"configs\": [\n",
                 n[0], n[1], n[2], ranks, iters, simd_level_name(),
                 simd_requested_name(),
                 elided[0] ? "true" : "false", elided[1] ? "true" : "false",
                 elided[2] ? "true" : "false", elided[3] ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"config\": \"%s\", \"workers\": %d, "
                   "\"fft_workers\": %d, \"transport\": \"%s\", "
                   "\"ms_per_roundtrip\": %.3f, \"exchange_ms\": %.3f, "
                   "\"wire_ratio\": %.4f, \"roundtrip_err\": %.3e}%s\n",
                   r.label.c_str(), r.workers, r.fft_workers,
                   r.eager_only ? "eager" : "rendezvous", r.ms, r.exch_ms,
                   r.ratio, r.err, i + 1 < rows.size() ? "," : "");
    }
    // Back-to-back alltoallv timing with no compute in between: the
    // transport number the in-transform exchange_ms column cannot resolve
    // on an oversubscribed host (see the note printed above).
    std::fprintf(f, "  ],\n  \"exchange_only\": [\n");
    for (std::size_t i = 0; i < xrows.size(); ++i) {
      const XRow& r = xrows[i];
      std::fprintf(f, "    {\"config\": \"%s\", \"ms_per_exchange\": %.3f, "
                      "\"wire_ratio\": %.4f", r.label.c_str(), r.ms, r.ratio);
      if (r.parity >= 0) {
        std::fprintf(f,
                     ", \"parity\": %d, \"chunks_reconstructed\": %llu, "
                     "\"straggler_waits\": %llu",
                     r.parity,
                     static_cast<unsigned long long>(r.reconstructed),
                     static_cast<unsigned long long>(r.straggler_waits));
      }
      std::fprintf(f, "}%s\n", i + 1 < xrows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("Wrote BENCH_realexec.json\n");
  }
  return 0;
}
