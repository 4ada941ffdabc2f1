// The Fft3d workloads: a timed roundtrip loop for the end-to-end metrics,
// and the traced replay that splits a roundtrip into layers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "compress/truncate.hpp"
#include "dfft/decomp.hpp"
#include "dfft/reshape.hpp"
#include "fft/fft1d.hpp"
#include "minimpi/runtime.hpp"
#include "tuner/decomp_model.hpp"

namespace perfbench {

using namespace lossyfft;

namespace {

constexpr int kSetupRepeats = 15;

/// Collective: rank 0's answer, on every rank.
bool agree(minimpi::Comm& comm, bool rank0_says) {
  int v = rank0_says ? 1 : 0;
  comm.bcast(std::span<int>(&v, 1), 0);
  return v != 0;
}

/// Wall ms of iteration i as the slowest rank saw it.
std::vector<double> max_over_ranks_ms(
    const std::vector<std::vector<double>>& per_rank) {
  std::vector<double> out(per_rank.empty() ? 0 : per_rank[0].size(), 0.0);
  for (const auto& v : per_rank) {
    for (std::size_t i = 0; i < out.size() && i < v.size(); ++i) {
      out[i] = std::max(out[i], v[i] * 1e3);
    }
  }
  return out;
}

osc::ExchangeStats minus(const osc::ExchangeStats& a,
                         const osc::ExchangeStats& b) {
  osc::ExchangeStats d;
  d.payload_bytes = a.payload_bytes - b.payload_bytes;
  d.wire_bytes = a.wire_bytes - b.wire_bytes;
  d.rounds = a.rounds - b.rounds;
  d.messages = a.messages - b.messages;
  return d;
}

/// Runs the loop body `step(timed)` collectively: warm-up roundtrips until
/// `warm` seconds passed (at least two), then timed ones for `seconds` (at
/// least `min_timed`). Rank 0 keeps the clock, so every rank runs the same
/// number of iterations, at most `max_timed` of them timed. `on_start`
/// runs on every rank as timing begins.
template <typename Step, typename OnStart>
void warm_then_timed(minimpi::Comm& comm, double warm, double seconds,
                     int min_timed, int max_timed, const Step& step,
                     const OnStart& on_start) {
  const double warm_end = now() + warm;
  for (int i = 0; agree(comm, i < 2 || now() < warm_end); ++i) step(false);
  on_start();
  const double end = now() + seconds;
  for (int i = 0; agree(comm, i < min_timed || (i < max_timed && now() < end));
       ++i) {
    step(true);
  }
}

}  // namespace

void run_fft_timed(const Signature& s, const RunOptions& o, Report& r) {
  const std::vector<cplx> field = make_field(s.n, o.seed);
  const Fft3dOptions opts = direct_options(s);
  const auto p = static_cast<std::size_t>(s.ranks);

  // Set-up: world start plus Fft3d construction. The timed world's own is
  // the first sample; the others build a fresh world at even intervals
  // through the timed loop while the timed world waits, so they see the
  // same host conditions as the roundtrips.
  const StealClock steal;
  std::vector<Sample> setup;
  const auto set_up = [&](const auto& body) {
    double ready = 0.0;
    const double t0 = now();
    minimpi::run_ranks(s.ranks, [&](minimpi::Comm& comm) {
      Fft3d<double> fft(comm, s.n, opts);
      comm.barrier();
      if (comm.rank() == 0) ready = now();
      body(comm, fft);
    });
    setup.push_back({ready, (ready - t0) * 1e3});
  };
  const double setup_every = o.seconds / kSetupRepeats;

  std::vector<std::vector<double>> times(p);
  std::vector<osc::ExchangeStats> wire(p);
  std::vector<double> errs, done_at;
  double t_begin = 0.0, t_end = 0.0;
  set_up([&](minimpi::Comm& comm, Fft3d<double>& fft) {
    const auto me = static_cast<std::size_t>(comm.rank());
    std::vector<cplx> in(fft.local_count()), spec(fft.output_count()),
        back(fft.local_count());
    gather_box(field.data(), s.n, fft.inbox(), in.data());
    osc::ExchangeStats before;
    warm_then_timed(
        comm, 0.1 * o.seconds, o.seconds, 3, 1 << 20,
        [&](bool timed) {
          // Rank 0 alone reads `setup` and the clock; agree() shares it.
          const auto taken = [&] { return static_cast<double>(setup.size()); };
          if (timed && agree(comm, me == 0 && taken() < kSetupRepeats &&
                                       now() >= t_begin + setup_every * taken())) {
            if (me == 0) set_up([](minimpi::Comm&, Fft3d<double>&) {});
            comm.barrier();
          }
          const double a = now();
          fft.forward(in, spec);
          fft.backward(spec, back);
          const double b = now();
          const double err = rel_l2_error<double>(comm, back, in);
          if (!timed) return;
          times[me].push_back(b - a);
          if (me != 0) return;
          errs.push_back(err);
          done_at.push_back(b);
        },
        [&] {
          before = fft.stats();
          if (me == 0) t_begin = now();
        });
    wire[me] = minus(fft.stats(), before);
    if (me == 0) t_end = now();
  });

  const std::vector<double> rt = max_over_ranks_ms(times);
  std::vector<Sample> samples;
  for (std::size_t i = 0; i < rt.size(); ++i) {
    samples.push_back({done_at[i], rt[i]});
  }
  double wire_bytes = 0.0, max_err = 0.0;
  for (const auto& w : wire) wire_bytes += static_cast<double>(w.wire_bytes);
  for (const double e : errs) {
    max_err = std::max(max_err, e);
    r.check(e <= s.err_budget, std::string(s.label) + ": roundtrip error " +
                                   std::to_string(e) + " above budget " +
                                   std::to_string(s.err_budget));
  }
  const RunStats rs = quiet_stats(samples, t_begin, t_end, false, steal);
  std::printf("%s: %zu timed roundtrips on %d rank(s), %.0f%% of them "
              "quiet (host steal %.2f%%), p50 %.3f ms (all %.3f), p90 %.3f "
              "ms, max error %.3g (budget %.3g)\n",
              s.label, rt.size(), s.ranks, 100 * rs.quiet_frac, 100 * rs.steal,
              rs.p50_ms, quantile(rt, 0.5), rs.p90_ms, max_err, s.err_budget);
  r.set("roundtrip_ms_p50", rs.p50_ms, "ms");
  r.set("roundtrips_per_s", rs.per_s, "1/s");
  r.set("rel_err", max_err, "ratio");
  r.set("wire_mb", wire_bytes / static_cast<double>(rt.size()) / 1e6, "MB");
  r.set("setup_s", quiet_stats(setup, 0, 0, false, steal).p50_ms / 1e3, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

namespace {

/// Everything one rank of the replay hands back to the caller.
struct RankReplay {
  std::vector<double> untraced;  // Direct Fft3d roundtrip seconds.
  osc::ExchangeStats wire;       // Replay reshapes, timed loop only.
  double flops_per_roundtrip = 0.0;
  double barrier_s = 0.0;        // Mean bare barrier.
};

/// Sum of span durations named `name` per iteration (iter >= 0).
std::vector<double> per_iter_sum(const std::vector<Span>& spans,
                                 const char* name, int iters) {
  std::vector<double> out(static_cast<std::size_t>(iters), 0.0);
  for (const Span& s : spans) {
    if (s.iter >= 0 && s.iter < iters && std::string_view(s.name) == name) {
      out[static_cast<std::size_t>(s.iter)] += s.t1 - s.t0;
    }
  }
  return out;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Median seconds of `fn()` over repeated calls, for about `budget` s.
template <typename Fn>
double time_call(const Fn& fn, double budget) {
  std::vector<double> t;
  const double end = now() + budget;
  while (t.size() < 5 || (now() < end && t.size() < 2000)) {
    const double a = now();
    fn();
    t.push_back(now() - a);
  }
  return median(t);
}

}  // namespace

LayerSample replay_layers(const Signature& s, std::uint64_t seed,
                          double seconds, Report& r,
                          std::vector<SpanLog>* keep_logs) {
  const std::vector<cplx> field = make_field(s.n, seed);
  const Fft3dOptions opts = direct_options(s);
  const int p = s.ranks;
  const auto np = static_cast<std::size_t>(p);
  const std::array<int, 3> n = s.n;

  std::vector<SpanLog> logs;
  for (int k = 0; k < p; ++k) logs.emplace_back(k);
  std::vector<RankReplay> ranks(np);
  std::vector<double> payload;  // Rank 0's x-pencil data after its FFT.
  int iters = 0;
  bool replay_matches = true;

  minimpi::run_ranks(p, [&](minimpi::Comm& comm) {
    const int me = comm.rank();
    RankReplay& mine = ranks[static_cast<std::size_t>(me)];
    SpanLog& log = logs[static_cast<std::size_t>(me)];

    // Reference: the library's own pipeline.
    Fft3d<double> fft(comm, n, opts);
    std::vector<cplx> in(fft.local_count()), spec(fft.output_count()),
        back(fft.local_count());
    gather_box(field.data(), n, fft.inbox(), in.data());
    warm_then_timed(
        comm, 0.05 * seconds, 0.25 * seconds, 3, 1 << 20,
        [&](bool timed) {
          const double a = now();
          fft.forward(in, spec);
          fft.backward(spec, back);
          if (timed) mine.untraced.push_back(now() - a);
        },
        [] {});

    // The same roundtrip rebuilt from public pieces: Fft3d's default
    // boxes, its reshape options, and one 1-D plan per dimension.
    const auto bricks = split_brick(n, proc_grid3_for(p, n));
    std::array<std::vector<Box3>, 3> pencils;
    for (int d = 0; d < 3; ++d) {
      const int d1 = d == 0 ? 1 : 0;
      const int d2 = d == 2 ? 1 : 2;
      pencils[static_cast<std::size_t>(d)] =
          split_pencil(n, d, proc_grid2_for(p, n[static_cast<std::size_t>(d1)],
                                            n[static_cast<std::size_t>(d2)]));
    }
    const ReshapeOptions ro = opts.reshape_options();
    Reshape<cplx> r0(comm, bricks, pencils[0], ro);
    Reshape<cplx> r1(comm, pencils[0], pencils[1], ro);
    Reshape<cplx> r2(comm, pencils[1], pencils[2], ro);
    Reshape<cplx> r3(comm, pencils[2], bricks, ro);
    const std::array<Box3, 3> box = {pencils[0][static_cast<std::size_t>(me)],
                                     pencils[1][static_cast<std::size_t>(me)],
                                     pencils[2][static_cast<std::size_t>(me)]};
    const std::array<Fft1d<double>, 3> plan = {
        Fft1d<double>(static_cast<std::size_t>(n[0])),
        Fft1d<double>(static_cast<std::size_t>(n[1])),
        Fft1d<double>(static_cast<std::size_t>(n[2]))};
    std::vector<cplx> a(static_cast<std::size_t>(
        std::max(box[0].count(), box[2].count())));
    std::vector<cplx> b(static_cast<std::size_t>(box[1].count()));
    for (int d = 0; d < 3; ++d) {
      const Box3& bx = box[static_cast<std::size_t>(d)];
      const double nd = n[static_cast<std::size_t>(d)];
      mine.flops_per_roundtrip += 2.0 * static_cast<double>(bx.count()) / nd *
                                  5.0 * nd * std::log2(nd);
    }

    // One pencil stage: every line of box `d` through plan `d`.
    const auto stage = [&](int d, cplx* data, FftDirection dir) {
      const Box3& bx = box[static_cast<std::size_t>(d)];
      if (bx.empty()) return;
      const auto sx = static_cast<std::ptrdiff_t>(bx.size[0]);
      const auto sy = static_cast<std::ptrdiff_t>(bx.size[1]);
      const auto sz = static_cast<std::size_t>(bx.size[2]);
      const Fft1d<double>& f = plan[static_cast<std::size_t>(d)];
      if (d == 0) {
        f.transform_strided(data, 1, static_cast<std::size_t>(sy) * sz, sx,
                            dir);
      } else if (d == 1) {
        for (std::size_t z = 0; z < sz; ++z) {
          f.transform_strided(data + static_cast<std::ptrdiff_t>(z) * sx * sy,
                              sx, static_cast<std::size_t>(sx), 1, dir);
        }
      } else {
        f.transform_strided(data, sx * sy, static_cast<std::size_t>(sx * sy),
                            1, dir);
      }
    };
    const auto span_of = [](std::vector<cplx>& v, const Box3& bx) {
      return std::span<cplx>(v.data(), static_cast<std::size_t>(bx.count()));
    };
    const auto reshape = [&](Reshape<cplx>& rs, std::span<const cplx> src,
                             std::span<cplx> dst, int parent, int iter) {
      const int w = log.open("sync.wait", parent, iter);
      comm.barrier();
      log.close(w);
      const int x = log.open("reshape", parent, iter);
      rs.execute(src, dst);
      log.close(x);
    };
    const auto fft_stage = [&](int d, cplx* data, FftDirection dir,
                               int parent, int iter) {
      const int x = log.open("fft", parent, iter);
      stage(d, data, dir);
      log.close(x);
    };
    const auto pass = [&](std::span<const cplx> src, std::span<cplx> dst,
                          FftDirection dir, const char* name, int parent,
                          int iter) {
      const int id = log.open(name, parent, iter);
      reshape(r0, src, span_of(a, box[0]), id, iter);
      fft_stage(0, a.data(), dir, id, iter);
      reshape(r1, span_of(a, box[0]), span_of(b, box[1]), id, iter);
      fft_stage(1, b.data(), dir, id, iter);
      reshape(r2, span_of(b, box[1]), span_of(a, box[2]), id, iter);
      fft_stage(2, a.data(), dir, id, iter);
      reshape(r3, span_of(a, box[2]), dst, id, iter);
      log.close(id);
    };
    std::vector<cplx> spec2(spec.size()), back2(back.size());
    const auto roundtrip = [&](int iter) {
      const int id = log.open("roundtrip", -1, iter);
      pass(in, spec2, FftDirection::kForward, "forward", id, iter);
      pass(spec2, back2, FftDirection::kInverse, "backward", id, iter);
      log.close(id);
    };

    // The replay must reproduce Fft3d bit for bit.
    roundtrip(-1);
    const double bad =
        (bitwise_equal(spec2, spec) && bitwise_equal(back2, back)) ? 0.0 : 1.0;
    if (comm.allreduce_one(bad, minimpi::ReduceOp::kSum) > 0.0 && me == 0) {
      replay_matches = false;
    }

    // The payload reshape 1 ships: x-pencils after their FFT.
    r0.execute(in, span_of(a, box[0]));
    stage(0, a.data(), FftDirection::kForward);
    if (me == 0) {
      const auto* d = reinterpret_cast<const double*>(a.data());
      payload.assign(d, d + 2 * static_cast<std::size_t>(box[0].count()));
    }

    log.reserve(log.spans().size() + 4096);
    std::array<osc::ExchangeStats, 4> before = {r0.stats(), r1.stats(),
                                                r2.stats(), r3.stats()};
    int done = 0;
    warm_then_timed(
        comm, 0.05 * seconds, 0.35 * seconds, 3, 2000,
        [&](bool timed) { roundtrip(timed ? done++ : -1); },
        [&] {
          before = {r0.stats(), r1.stats(), r2.stats(), r3.stats()};
        });
    const std::array<const Reshape<cplx>*, 4> all = {&r0, &r1, &r2, &r3};
    for (std::size_t k = 0; k < 4; ++k) {
      mine.wire.accumulate(minus(all[k]->stats(), before[k]));
    }
    if (me == 0) iters = done;

    constexpr int kBarriers = 1000;
    comm.barrier();
    const double t0 = now();
    for (int k = 0; k < kBarriers; ++k) comm.barrier();
    mine.barrier_s = (now() - t0) / kBarriers;
  });

  r.check(replay_matches,
          std::string(s.label) +
              ": replayed roundtrip is no longer bitwise equal to Fft3d");

  // Layer figures from the spans. Busy figures are the busiest rank's
  // median per roundtrip.
  LayerSample ls;
  std::vector<std::vector<double>> traced_wall(np), untraced(np);
  double wall_sum = 0.0, attributed_sum = 0.0, flops = 0.0, fft_core_s = 0.0;
  double busiest_payload = 0.0, sent = 0.0, wired = 0.0, messages = 0.0;
  double rounds = 0.0;
  for (std::size_t k = 0; k < np; ++k) {
    const auto& sp = logs[k].spans();
    const auto wall = per_iter_sum(sp, "roundtrip", iters);
    const auto fft_s = per_iter_sum(sp, "fft", iters);
    const auto reshape_s = per_iter_sum(sp, "reshape", iters);
    const auto sync_s = per_iter_sum(sp, "sync.wait", iters);
    ls.fft_ms = std::max(ls.fft_ms, median(fft_s) * 1e3);
    ls.reshape_ms = std::max(ls.reshape_ms, median(reshape_s) * 1e3);
    ls.sync_ms = std::max(ls.sync_ms, median(sync_s) * 1e3);
    // Stage accounting uses sums, so outliers count where they happened.
    wall_sum += mean(wall);
    attributed_sum += mean(fft_s) + mean(reshape_s) + mean(sync_s);
    flops += ranks[k].flops_per_roundtrip;
    fft_core_s += median(fft_s);
    traced_wall[k] = wall;
    untraced[k] = ranks[k].untraced;
    ls.barrier_us += ranks[k].barrier_s * 1e6 / static_cast<double>(np);
    const osc::ExchangeStats& w = ranks[k].wire;
    busiest_payload = std::max(busiest_payload,
                               static_cast<double>(w.payload_bytes) / iters);
    sent += static_cast<double>(w.payload_bytes);
    wired += static_cast<double>(w.wire_bytes);
    messages += w.messages;
    rounds = std::max(rounds, static_cast<double>(w.rounds));
  }
  ls.fft_gflops = fft_core_s > 0.0 ? flops / fft_core_s / 1e9 : 0.0;
  ls.wire_ratio = wired > 0.0 ? sent / wired : 1.0;
  ls.messages = messages / iters;
  ls.rounds = rounds / iters;

  // Arrival skew: at each pre-reshape barrier, the last rank's arrival
  // minus the first's, summed over the roundtrip's eight reshapes.
  std::vector<std::vector<double>> arrivals(np);
  for (std::size_t k = 0; k < np; ++k) {
    for (const Span& sp : logs[k].spans()) {
      if (sp.iter >= 0 && std::string_view(sp.name) == "sync.wait") {
        arrivals[k].push_back(sp.t0);
      }
    }
  }
  double skew = 0.0;
  for (std::size_t j = 0; j < arrivals[0].size(); ++j) {
    double lo = arrivals[0][j], hi = arrivals[0][j];
    for (std::size_t k = 1; k < np; ++k) {
      lo = std::min(lo, arrivals[k][j]);
      hi = std::max(hi, arrivals[k][j]);
    }
    skew += hi - lo;
  }
  ls.skew_ms = skew / iters * 1e3;

  // Codec rates on the real payload; an exact wire is timed as the
  // identity codec, the copy a codec-free wire also pays.
  const CodecPtr codec =
      codec_of(s) ? codec_of(s) : std::make_shared<IdentityCodec>();
  std::vector<std::byte> enc(codec->max_compressed_bytes(payload.size()));
  std::vector<double> dec(payload.size());
  std::size_t enc_bytes = 0;
  const double t_enc = time_call(
      [&] { enc_bytes = codec->compress(payload, enc); }, 0.05 * seconds);
  const double t_dec = time_call(
      [&] {
        codec->decompress(std::span<const std::byte>(enc.data(), enc_bytes),
                          dec);
      },
      0.05 * seconds);
  const double bytes = static_cast<double>(payload.size() * sizeof(double));
  ls.encode_gbps = bytes / t_enc / 1e9;
  ls.decode_gbps = bytes / t_dec / 1e9;
  ls.codec_ms = busiest_payload * (t_enc + t_dec) / bytes * 1e3;

  // The decomposition model's prediction for one forward transform.
  tuner::DecompSignature ds;
  ds.n = n;
  ds.p = p;
  ds.gpn = opts.gpus_per_node;
  ds.codec = opts.codec;
  ds.e_tol = s.e_tol;
  tuner::DecompCandidate cand;
  cand.grid = proc_grid2_for(p, n[1], n[2]);
  const tuner::DecompCost cost =
      tuner::evaluate_decomp(ds, cand, tuner::CostConstants{});
  double model_reshape_s = 0.0;
  for (const auto& rc : cost.reshapes) model_reshape_s += rc.seconds();
  ls.model_fft_ratio = cost.compute_seconds > 0.0
                           ? ls.fft_ms / 2e3 / cost.compute_seconds
                           : 0.0;
  ls.model_reshape_ratio =
      model_reshape_s > 0.0 ? ls.reshape_ms / 2e3 / model_reshape_s : 0.0;

  ls.unattributed_frac =
      wall_sum > 0.0 ? (wall_sum - attributed_sum) / wall_sum : 0.0;
  const double traced_p50 = median(max_over_ranks_ms(traced_wall));
  const double untraced_p50 = median(max_over_ranks_ms(untraced));
  ls.overhead_frac = untraced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0 : 0.0;
  std::printf("%s: replayed %d traced roundtrips, %.3f ms traced vs %.3f ms "
              "direct (p50)\n",
              s.label, iters, traced_p50, untraced_p50);
  if (keep_logs != nullptr) {
    for (auto& l : logs) keep_logs->push_back(std::move(l));
  }
  return ls;
}

double direct_served_options_p50_ms(const Signature& s, int gpus_per_node,
                                    std::uint64_t seed, int jobs) {
  const std::vector<cplx> field = make_field(s.n, seed);
  const Fft3dOptions opts =
      serve::fft_options_for(session_config(s), gpus_per_node);
  std::vector<std::vector<double>> times(static_cast<std::size_t>(s.ranks));
  minimpi::run_ranks(s.ranks, [&](minimpi::Comm& comm) {
    Fft3d<double> fft(comm, s.n, opts);
    std::vector<cplx> in(fft.local_count()), spec(fft.output_count()),
        back(fft.local_count());
    gather_box(field.data(), s.n, fft.inbox(), in.data());
    for (int j = -1; j < jobs; ++j) {
      comm.barrier();
      const double a = now();
      fft.forward(in, spec);
      fft.backward(spec, back);
      if (j >= 0) times[static_cast<std::size_t>(comm.rank())].push_back(
          now() - a);
    }
  });
  return median(max_over_ranks_ms(times));
}

}  // namespace perfbench
