// lossyfft_cli — command-line smoke/benchmark driver.
//
//   lossyfft_cli [--ranks N] [--grid NX NY NZ] [--e-tol E] [--backend B]
//                [--family truncation|zfpx|szq|lossless] [--iters K]
//                [--connect SOCKET]
//
// Runs K roundtrip FFTs of a random field across N thread ranks with the
// requested wire configuration and prints accuracy, wire volume and
// wall-clock per transform — the first command a new user would run.
//
// With --connect the same workload is shipped to a running lossyfftd
// (tools/lossyfftd.cpp) instead of planning locally: the daemon's world
// size replaces --ranks, and the report adds the daemon's plan-cache and
// per-tenant counters.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "compress/planner.hpp"
#include "dfft/fft3d.hpp"
#include "minimpi/runtime.hpp"
#include "serve/client.hpp"

using namespace lossyfft;

namespace {

struct Args {
  int ranks = 8;
  std::array<int, 3> n{32, 32, 32};
  double e_tol = 1e-6;
  ExchangeBackend backend = ExchangeBackend::kOsc;
  CodecFamily family = CodecFamily::kTruncation;
  int iters = 3;
  std::string connect;  // lossyfftd socket path; empty = run in-process.
};

int usage() {
  std::fprintf(
      stderr,
      "usage: lossyfft_cli [--ranks N] [--grid NX NY NZ] [--e-tol E]\n"
      "                    [--backend pairwise|osc]\n"
      "                    [--family truncation|zfpx|szq|lossless]\n"
      "                    [--iters K] [--connect SOCKET]\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&](int count = 1) { return i + count < argc; };
    if (flag == "--ranks" && next()) {
      a.ranks = std::atoi(argv[++i]);
    } else if (flag == "--grid" && next(3)) {
      a.n = {std::atoi(argv[i + 1]), std::atoi(argv[i + 2]),
             std::atoi(argv[i + 3])};
      i += 3;
    } else if (flag == "--e-tol" && next()) {
      a.e_tol = std::atof(argv[++i]);
    } else if (flag == "--iters" && next()) {
      a.iters = std::atoi(argv[++i]);
    } else if (flag == "--backend" && next()) {
      const std::string b = argv[++i];
      if (b == "pairwise") a.backend = ExchangeBackend::kPairwise;
      else if (b == "osc") a.backend = ExchangeBackend::kOsc;
      else return false;
    } else if (flag == "--connect" && next()) {
      a.connect = argv[++i];
    } else if (flag == "--family" && next()) {
      const std::string f = argv[++i];
      if (f == "truncation") a.family = CodecFamily::kTruncation;
      else if (f == "zfpx") a.family = CodecFamily::kZfpx;
      else if (f == "szq") a.family = CodecFamily::kSzq;
      else if (f == "lossless") a.family = CodecFamily::kLossless;
      else return false;
    } else {
      return false;
    }
  }
  return a.ranks > 0 && a.iters > 0 && a.n[0] > 0 && a.n[1] > 0 && a.n[2] > 0;
}

// --connect mode: the same roundtrip workload, served by lossyfftd.
int run_connected(const Args& args) {
  serve::SessionConfig cfg;
  cfg.n = args.n;
  cfg.backend = static_cast<std::uint8_t>(args.backend);
  if (args.e_tol < 1.0) {
    cfg.family = static_cast<int>(args.family);
    cfg.e_tol = args.e_tol;
  } else {
    cfg.family = -1;
  }
  serve::Client client;
  const serve::Client::OpenResult open = client.open(args.connect, cfg);
  if (!open.ok) {
    std::fprintf(stderr, "lossyfft_cli: open on %s failed: %s\n",
                 args.connect.c_str(), open.reason.c_str());
    return 1;
  }
  const std::size_t elems =
      std::size_t(args.n[0]) * args.n[1] * args.n[2];
  std::vector<std::complex<double>> field(elems), out(elems);
  Xoshiro256 rng(17);
  fill_uniform_complex(rng, field);

  std::printf("lossyfft roundtrip (served): grid %dx%dx%d, daemon world of "
              "%u ranks, %d iterations\n",
              args.n[0], args.n[1], args.n[2], open.ranks, args.iters);
  Stopwatch watch;
  for (int it = 0; it < args.iters; ++it) {
    const serve::Client::Result res =
        client.transform(serve::TransformDir::kRoundtrip, field, out);
    if (!res.ok) {
      std::fprintf(stderr, "lossyfft_cli: transform failed: %s\n",
                   res.error.c_str());
      return 1;
    }
  }
  const double elapsed = watch.seconds();

  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < elems; ++i) {
    num += std::norm(out[i] - field[i]);
    den += std::norm(field[i]);
  }
  std::printf("  roundtrip error:   %.3e\n",
              den > 0.0 ? std::sqrt(num / den) : 0.0);
  std::printf("  wall clock:        %.3f ms per forward+backward (incl. "
              "socket + scatter)\n",
              elapsed * 1e3 / args.iters);
  serve::Client::Stats st;
  if (client.stats(&st)) {
    const auto v = [&](const char* k) {
      const auto it = st.values.find(k);
      return it == st.values.end() ? 0.0 : it->second;
    };
    std::printf("  wire compression:  %.2fx (%.0f -> %.0f bytes, world)\n",
                v("tenant_wire_bytes") > 0.0
                    ? v("tenant_payload_bytes") / v("tenant_wire_bytes")
                    : 1.0,
                v("tenant_payload_bytes"), v("tenant_wire_bytes"));
    std::printf("  plan cache:        %.0f hits / %.0f misses, %.0f entries, "
                "%.0f bytes resident\n",
                v("cache_hits"), v("cache_misses"), v("cache_entries"),
                v("cache_bytes"));
    std::printf("  arrival skew:      %.0f epochs, %.3e s total, %.3e s "
                "worst epoch\n",
                v("tenant_skew_epochs"), v("tenant_skew_seconds"),
                v("tenant_max_skew_seconds"));
  }
  client.close();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (!args.connect.empty()) return run_connected(args);

  Fft3dOptions options;
  options.backend = args.backend;
  if (args.e_tol < 1.0) options.codec = plan_codec(args.e_tol, args.family);

  std::printf("lossyfft roundtrip: grid %dx%dx%d, %d ranks, backend %s, "
              "codec %s, %d iterations\n",
              args.n[0], args.n[1], args.n[2], args.ranks,
              to_string(args.backend),
              options.codec ? options.codec->name().c_str() : "none",
              args.iters);

  minimpi::run_ranks(args.ranks, [&](minimpi::Comm& comm) {
    Fft3d<double> fft(comm, args.n, options);
    Xoshiro256 rng(17 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::complex<double>> in(fft.local_count()),
        spec(fft.local_count()), back(fft.local_count());
    fill_uniform_complex(rng, in);

    double err = 0.0;
    Stopwatch watch;
    for (int it = 0; it < args.iters; ++it) {
      fft.forward(in, spec);
      fft.backward(spec, back);
    }
    const double elapsed = watch.seconds();
    err = rel_l2_error<double>(comm, back, in);

    if (comm.rank() == 0) {
      const auto st = fft.stats();
      std::printf("  roundtrip error:   %.3e\n", err);
      std::printf("  wall clock:        %.3f ms per forward+backward\n",
                  elapsed * 1e3 / args.iters);
      std::printf("  wire compression:  %.2fx (%llu -> %llu bytes, rank 0)\n",
                  st.compression_ratio(),
                  static_cast<unsigned long long>(st.payload_bytes),
                  static_cast<unsigned long long>(st.wire_bytes));
      std::printf("  exchange time:     %.3f ms per transform (rank 0)\n",
                  st.seconds * 1e3 / (2 * args.iters));
    }
  });
  return 0;
}
