// Fig. 4-style strong-scaling curves from the decomposition cost model:
// the same netsim contention pricing the tuner's decide_decomp runs, swept
// over 1k / 4k / 16k simulated Summit ranks (6 per node) on the paper's
// 1024^3 grid. Results land in BENCH_scaling.json.
//
// Four curves per codec answer the two questions this model exists for:
//   default-packed  — near-square pencil grid, every rank packs (the
//                     pre-tuner pipeline);
//   default-elided  — same decomposition with pack elision on compatible
//                     reshapes (the library default);
//   slab-elided     — the slab pipeline (three reshapes, 2-D local stage);
//   tuned           — decide_decomp's winner over the whole candidate
//                     space (slab/pencil x admissible process grids).
//
// Everything is modeled, so the output is deterministic and diffable;
// absolute seconds use the built-in Summit-like constants.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "compress/truncate.hpp"
#include "tuner/cost_model.hpp"
#include "tuner/decomp_model.hpp"

namespace {

using namespace lossyfft;
using namespace lossyfft::tuner;

struct Row {
  int p;
  std::string codec;
  std::string config;
  std::string algo;
  std::array<int, 2> grid;
  double seconds;
  double gflops;
  int elided_stages;
  std::uint64_t wire_bytes;
};

double total_flops(const std::array<int, 3>& n) {
  const double N = static_cast<double>(n[0]) * n[1] * n[2];
  return 5.0 * N * std::log2(N);
}

Row make_row(const DecompSignature& sig, const char* codec_label,
             const char* config, const DecompCandidate& cand,
             const CostConstants& k, bool pack_elision) {
  const DecompCost cost = evaluate_decomp(sig, cand, k, pack_elision);
  Row r;
  r.p = sig.p;
  r.codec = codec_label;
  r.config = config;
  r.algo = to_string(cand.algorithm);
  r.grid = cand.grid;
  r.seconds = cost.seconds;
  r.gflops = total_flops(sig.n) / cost.seconds / 1e9;
  r.elided_stages = 0;
  r.wire_bytes = 0;
  for (const auto& s : cost.reshapes) {
    if (s.elided_ranks > 0) ++r.elided_stages;
    r.wire_bytes += s.wire_bytes;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const CostConstants k;  // Summit defaults: deterministic output.
  const std::array<int, 3> n = smoke ? std::array<int, 3>{128, 128, 128}
                                     : std::array<int, 3>{1024, 1024, 1024};
  const std::vector<int> ps = smoke ? std::vector<int>{64}
                                    : std::vector<int>{1024, 4096, 16384};

  const std::pair<const char*, CodecPtr> codecs[] = {
      {"raw", nullptr},
      {"fp64->fp32", std::make_shared<CastFp32Codec>()},
  };

  std::vector<Row> rows;
  for (const int p : ps) {
    for (const auto& [label, codec] : codecs) {
      DecompSignature sig;
      sig.n = n;
      sig.p = p;
      sig.gpn = 6;
      sig.codec = codec;

      const auto cands = decomp_candidate_space(sig);
      // Candidate ordering is near-square pencil first, slab last.
      const DecompCandidate& near_square = cands.front();
      const DecompCandidate& slab = cands.back();
      rows.push_back(
          make_row(sig, label, "default-packed", near_square, k, false));
      rows.push_back(
          make_row(sig, label, "default-elided", near_square, k, true));
      rows.push_back(make_row(sig, label, "slab-elided", slab, k, true));
      const DecompDecision d = decide_decomp(sig, k);
      rows.push_back(make_row(sig, label, "tuned",
                              DecompCandidate{d.algorithm, d.grid}, k, true));
    }
  }

  std::printf("== modeled strong scaling, %d^3 FFT, gpn=6 ==\n", n[0]);
  std::printf("%6s %-10s %-15s %-7s %9s %10s %9s %7s\n", "p", "codec",
              "config", "algo", "grid", "seconds", "Gflop/s", "elided");
  for (const Row& r : rows) {
    char grid[32];
    std::snprintf(grid, sizeof grid, "%dx%d", r.grid[0], r.grid[1]);
    std::printf("%6d %-10s %-15s %-7s %9s %10.6f %9.1f %7d\n", r.p,
                r.codec.c_str(), r.config.c_str(), r.algo.c_str(), grid,
                r.seconds, r.gflops, r.elided_stages);
  }

  if (smoke) {
    std::printf("Smoke mode: skipping BENCH_scaling.json\n");
    return 0;
  }
  if (std::FILE* f = std::fopen("BENCH_scaling.json", "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"grid\": [%d, %d, %d],\n", n[0], n[1], n[2]);
    std::fprintf(f, "  \"gpn\": 6,\n");
    std::fprintf(f,
                 "  \"note\": \"Modeled (netsim) strong scaling from the "
                 "decomposition cost model with built-in Summit constants: "
                 "deterministic, regenerate with bench_scaling. "
                 "default = near-square pencil grid; tuned = decide_decomp "
                 "over slab/pencil x admissible process grids; elided = "
                 "pack stage skipped on stride-compatible reshapes. "
                 "Row-addressable codecs (fp64->fp32 here) are encoded "
                 "from and decoded into the fields directly and pay no "
                 "pack or unpack, so their default-packed and "
                 "default-elided rows coincide.\",\n");
    std::fprintf(f, "  \"series\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"p\": %d, \"codec\": \"%s\", \"config\": \"%s\", "
                   "\"algo\": \"%s\", \"grid\": [%d, %d], \"seconds\": %.6e, "
                   "\"gflops\": %.1f, \"elided_stages\": %d, "
                   "\"wire_bytes\": %llu}%s\n",
                   r.p, r.codec.c_str(), r.config.c_str(), r.algo.c_str(),
                   r.grid[0], r.grid[1], r.seconds, r.gflops,
                   r.elided_stages,
                   static_cast<unsigned long long>(r.wire_bytes),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("Wrote BENCH_scaling.json\n");
  }
  return 0;
}
