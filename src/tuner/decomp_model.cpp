#include "tuner/decomp_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dfft/decomp.hpp"
#include "netsim/model.hpp"
#include "osc/schedule.hpp"

namespace lossyfft::tuner {

const char* to_string(DecompAlgorithm a) {
  switch (a) {
    case DecompAlgorithm::kPencil:
      return "pencil";
    case DecompAlgorithm::kSlab:
      return "slab";
  }
  return "?";
}

namespace {

// One pipeline stage: a regular brick split of the global grid over a 3-D
// process grid, rank = c0 + pg0*(c1 + pg1*c2) (split_brick's convention,
// which split_pencil also reduces to). Only the *nonempty* pieces of each
// dimension are stored, so overlap enumeration visits exactly the
// intersecting (source, target) pairs instead of scanning p^2 boxes.
struct Stage {
  std::array<int, 3> pg = {1, 1, 1};
  struct Dim {
    std::vector<int> coord;  // Process-grid coordinate of the piece.
    std::vector<int> lo;     // Ascending, disjoint, nonempty.
    std::vector<int> len;
  };
  std::array<Dim, 3> dim;
  std::int64_t max_local_elems = 0;  // Piece 0 of a balanced split is largest.

  int rank_of(int c0, int c1, int c2) const {
    return c0 + pg[0] * (c1 + pg[1] * c2);
  }
};

Stage make_stage(std::array<int, 3> n, std::array<int, 3> pg) {
  Stage st;
  st.pg = pg;
  st.max_local_elems = 1;
  for (int d = 0; d < 3; ++d) {
    const auto pieces = split_interval(n[d], pg[d]);
    st.max_local_elems *= pieces[0][1];
    auto& dim = st.dim[d];
    for (int c = 0; c < pg[d]; ++c) {
      if (pieces[static_cast<std::size_t>(c)][1] > 0) {
        dim.coord.push_back(c);
        dim.lo.push_back(pieces[static_cast<std::size_t>(c)][0]);
        dim.len.push_back(pieces[static_cast<std::size_t>(c)][1]);
      }
    }
  }
  return st;
}

// Index of the first piece of `dim` whose exclusive end exceeds `lo` —
// piece ends are strictly increasing, so this is the first candidate
// overlapping [lo, lo + len). Iterate while piece.lo < lo + len.
std::size_t first_overlap(const Stage::Dim& dim, int lo) {
  std::size_t a = 0;
  std::size_t b = dim.lo.size();
  while (a < b) {
    const std::size_t m = (a + b) / 2;
    if (dim.lo[m] + dim.len[m] > lo) {
      b = m;
    } else {
      a = m + 1;
    }
  }
  return a;
}

// Price one reshape A -> B: sparse overlap enumeration builds the OSC ring
// schedule the Reshape's plan would emit (identical phase placement to
// schedule_osc_ring_sparse) and per-rank off-rank payload totals for the
// codec and staging terms. Each rank's self-block (src == dst) never
// reaches the wire: it pays one copy and nothing else. A rank's pack term
// is dropped when every subvolume it sends off-rank is contiguous in its
// source field (the exact condition Reshape uses to elide packing), and a
// reshape with no off-rank traffic at all runs no exchange, so it pays no
// network or synchronization term.
ReshapeCost price_reshape(const DecompSignature& sig, const Stage& A,
                          const Stage& B, const CostConstants& k,
                          bool pack_elision) {
  const int p = sig.p;
  const int gpn = sig.gpn;
  const bool raw = !sig.codec;
  // A row-addressable codec encodes from the source field and decodes into
  // the destination field: no pack, no unpack.
  const bool direct = !raw && row_addressable(*sig.codec);
  const double rate = std::max(1e-9, sig.rate());

  std::vector<double> send_bytes(static_cast<std::size_t>(p), 0.0);
  std::vector<double> recv_bytes(static_cast<std::size_t>(p), 0.0);
  std::vector<double> self_bytes(static_cast<std::size_t>(p), 0.0);
  std::vector<char> elide(static_cast<std::size_t>(p),
                          static_cast<char>(pack_elision ? 1 : 0));

  const int rounds = osc::ring_rounds(p, gpn);
  netsim::Schedule sched;
  sched.semantics = netsim::Semantics::kOneSided;
  sched.phase_barrier = true;
  sched.phases.resize(static_cast<std::size_t>(rounds));

  ReshapeCost rc;

  for (std::size_t a2 = 0; a2 < A.dim[2].coord.size(); ++a2) {
    for (std::size_t a1 = 0; a1 < A.dim[1].coord.size(); ++a1) {
      for (std::size_t a0 = 0; a0 < A.dim[0].coord.size(); ++a0) {
        const int src = A.rank_of(A.dim[0].coord[a0], A.dim[1].coord[a1],
                                  A.dim[2].coord[a2]);
        const Box3 sbox{{A.dim[0].lo[a0], A.dim[1].lo[a1], A.dim[2].lo[a2]},
                        {A.dim[0].len[a0], A.dim[1].len[a1],
                         A.dim[2].len[a2]}};
        std::array<std::size_t, 3> first{};
        for (int d = 0; d < 3; ++d) {
          first[static_cast<std::size_t>(d)] =
              first_overlap(B.dim[static_cast<std::size_t>(d)], sbox.lo[d]);
        }
        for (std::size_t t2 = first[2]; t2 < B.dim[2].coord.size() &&
                                        B.dim[2].lo[t2] < sbox.hi(2);
             ++t2) {
          for (std::size_t t1 = first[1]; t1 < B.dim[1].coord.size() &&
                                          B.dim[1].lo[t1] < sbox.hi(1);
               ++t1) {
            for (std::size_t t0 = first[0]; t0 < B.dim[0].coord.size() &&
                                            B.dim[0].lo[t0] < sbox.hi(0);
                 ++t0) {
              const Box3 tbox{
                  {B.dim[0].lo[t0], B.dim[1].lo[t1], B.dim[2].lo[t2]},
                  {B.dim[0].len[t0], B.dim[1].len[t1], B.dim[2].len[t2]}};
              const Box3 ov = Box3::intersect(sbox, tbox);
              const double payload =
                  static_cast<double>(ov.count()) *
                  static_cast<double>(sig.elem_bytes);
              const int dst = B.rank_of(B.dim[0].coord[t0],
                                        B.dim[1].coord[t1],
                                        B.dim[2].coord[t2]);
              if (dst == src) {
                self_bytes[static_cast<std::size_t>(src)] += payload;
                continue;
              }
              send_bytes[static_cast<std::size_t>(src)] += payload;
              recv_bytes[static_cast<std::size_t>(dst)] += payload;
              if (elide[static_cast<std::size_t>(src)] &&
                  !subvolume_contiguous(sbox, ov)) {
                elide[static_cast<std::size_t>(src)] = 0;
              }
              const std::uint64_t wire =
                  raw ? static_cast<std::uint64_t>(payload)
                      : static_cast<std::uint64_t>(std::ceil(payload / rate));
              rc.wire_bytes += wire;
              ++rc.messages;
              // Round j serves the node at ring distance j, matching
              // schedule_osc_ring_sparse.
              const int j = ((dst / gpn) - (src / gpn) + rounds) % rounds;
              sched.phases[static_cast<std::size_t>(j)].messages.push_back(
                  {src, dst, wire});
            }
          }
        }
      }
    }
  }

  if (rc.messages > 0) {
    const netsim::Topology topo =
        netsim::Topology::make((p + gpn - 1) / gpn, gpn);
    rc.net_seconds = netsim::simulate(topo, sched, k.net).seconds;
  }

  double max_send = 0.0;
  double max_recv = 0.0;
  double max_copy = 0.0;
  for (int r = 0; r < p; ++r) {
    const std::size_t ur = static_cast<std::size_t>(r);
    max_send = std::max(max_send, send_bytes[ur]);
    max_recv = std::max(max_recv, recv_bytes[ur]);
    const double pack = direct || elide[ur] ? 0.0 : send_bytes[ur];
    const double unpack = direct ? 0.0 : recv_bytes[ur];
    max_copy = std::max(max_copy, pack + unpack + self_bytes[ur]);
    if (elide[ur] && send_bytes[ur] > 0.0) ++rc.elided_ranks;
  }
  if (!raw) {
    rc.codec_seconds = max_send / k.encode_bw + max_recv / k.decode_bw;
  }
  rc.copy_seconds = max_copy / k.copy_bw;
  return rc;
}

double line_flops(int n) {
  return n > 1 ? 5.0 * static_cast<double>(n) * std::log2(n) : 0.0;
}

// Flops of one compute stage at the busiest rank: max local elements times
// 5 log2(n_dir) summed over the transform directions applied in-place on
// that stage's pencils/slabs.
double stage_flops(const Stage& st, std::array<int, 3> n,
                   const std::vector<int>& dirs) {
  double per_elem = 0.0;
  for (int dir : dirs) {
    if (n[static_cast<std::size_t>(dir)] > 1) {
      per_elem +=
          line_flops(n[static_cast<std::size_t>(dir)]) /
          static_cast<double>(n[static_cast<std::size_t>(dir)]);
    }
  }
  return static_cast<double>(st.max_local_elems) * per_elem;
}

}  // namespace

std::vector<DecompCandidate> decomp_candidate_space(
    const DecompSignature& sig) {
  LFFT_REQUIRE(sig.p > 0 && sig.gpn > 0, "decomp: bad signature sizes");
  std::vector<DecompCandidate> out;
  // A pencil grid {a, b} must fit all three orientations: a splits dim 1
  // (x-pencils) or dim 0 (y/z-pencils), b splits dim 2 (x/y-pencils) or
  // dim 1 (z-pencils) — no zero-extent boxes in any stage.
  const int a_max = std::min(sig.n[0], sig.n[1]);
  const int b_max = std::min(sig.n[1], sig.n[2]);
  for (const auto& g : admissible_grids2(sig.p)) {
    if (g[0] <= a_max && g[1] <= b_max) {
      out.push_back({DecompAlgorithm::kPencil, g});
    }
  }
  if (out.empty()) {
    // Degenerate extents: keep the default pencil shape as the baseline.
    out.push_back({DecompAlgorithm::kPencil, proc_grid2(sig.p)});
  }
  out.push_back({DecompAlgorithm::kSlab, {1, 1}});
  return out;
}

DecompCost evaluate_decomp(const DecompSignature& sig,
                           const DecompCandidate& cand,
                           const CostConstants& k, bool pack_elision) {
  LFFT_REQUIRE(sig.p > 0 && sig.gpn > 0 && sig.elem_bytes > 0,
               "decomp: bad signature");
  const auto n = sig.n;
  const int p = sig.p;
  const std::array<int, 3> brick_pg = proc_grid3_for(p, n);

  std::vector<Stage> stages;
  std::vector<std::vector<int>> dirs;  // Per inner stage.
  if (cand.algorithm == DecompAlgorithm::kSlab) {
    // brick -> z-slab (2-D FFT in x, y) -> x-slab (1-D FFT in z) -> brick.
    stages.push_back(make_stage(n, brick_pg));
    stages.push_back(make_stage(n, {1, 1, p}));
    stages.push_back(make_stage(n, {p, 1, 1}));
    stages.push_back(make_stage(n, brick_pg));
    dirs = {{0, 1}, {2}};
  } else {
    // brick -> x-pencil -> y-pencil -> z-pencil -> brick, one 1-D FFT per
    // pencil stage, all under the candidate's {a, b} grid.
    const auto g = cand.grid;
    LFFT_REQUIRE(g[0] >= 1 && g[1] >= 1 && g[0] * g[1] == p,
                 "decomp: grid does not factor p");
    stages.push_back(make_stage(n, brick_pg));
    stages.push_back(make_stage(n, {1, g[0], g[1]}));  // x-pencils.
    stages.push_back(make_stage(n, {g[0], 1, g[1]}));  // y-pencils.
    stages.push_back(make_stage(n, {g[0], g[1], 1}));  // z-pencils.
    stages.push_back(make_stage(n, brick_pg));
    dirs = {{0}, {1}, {2}};
  }

  DecompCost cost;
  for (std::size_t i = 0; i + 1 < stages.size(); ++i) {
    cost.reshapes.push_back(
        price_reshape(sig, stages[i], stages[i + 1], k, pack_elision));
    cost.seconds += cost.reshapes.back().seconds();
  }
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    cost.compute_seconds +=
        stage_flops(stages[i + 1], n, dirs[i]) / k.fft_flops;
  }
  cost.seconds += cost.compute_seconds;
  return cost;
}

DecompDecision decide_decomp(const DecompSignature& sig,
                             const CostConstants& k) {
  DecompDecision best;
  double best_seconds = 0.0;
  bool have = false;
  for (const DecompCandidate& cand : decomp_candidate_space(sig)) {
    const DecompCost cost = evaluate_decomp(sig, cand, k);
    if (!have || cost.seconds < best_seconds) {
      have = true;
      best_seconds = cost.seconds;
      best.algorithm = cand.algorithm;
      best.grid = cand.grid;
      best.modeled_seconds = cost.seconds;
    }
  }
  LFFT_REQUIRE(have, "decomp: empty candidate space");
  return best;
}

}  // namespace lossyfft::tuner
