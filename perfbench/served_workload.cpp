// The served workload: an in-process serve::Daemon driven by closed-loop
// serve::Client threads that rotate through a fixed mix of signatures.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "common/rng.hpp"
#include "minimpi/runtime.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace perfbench {

using namespace lossyfft;

namespace {

constexpr int kGpusPerNode = 2;
constexpr int kClients = 4;
// A client reopens its session on the next signature after this long, so a
// run opens the same number of sessions however fast the jobs go. (The
// daemon keeps every closed connection's reader thread until it stops, so
// its memory grows with the sessions opened.)
constexpr double kSessionSeconds = 0.25;
constexpr int kSetupRepeats = 9;

std::string socket_path(const RunOptions& o, int k) {
  return o.work_dir + "/perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(k) + ".sock";
}

std::unique_ptr<serve::Daemon> start_daemon(const RunOptions& o, int ranks,
                                            int k) {
  serve::DaemonOptions d;
  d.socket_path = socket_path(o, k);
  d.ranks = ranks;
  d.gpus_per_node = kGpusPerNode;
  auto daemon = std::make_unique<serve::Daemon>(d);
  daemon->start();
  return daemon;
}

/// Field a client submits for signature `i` of the mix; client -1 is the
/// set-up client.
std::vector<cplx> client_field(const Signature& s, std::uint64_t seed,
                               int client, int i) {
  return make_field(s.n, seed * 7919 + std::uint64_t(client + 1) * 131 +
                             std::uint64_t(i));
}

/// Served roundtrip of one field: latency, output and error checked
/// against the signature's budget by the caller.
struct Job {
  bool ok = false;
  std::string error;
  double submit = 0.0, seconds = 0.0;
};

Job serve_roundtrip(serve::Client& c, const std::vector<cplx>& in,
                    std::vector<cplx>& out) {
  Job j;
  j.submit = now();
  const auto res = c.transform(serve::TransformDir::kRoundtrip, in, out);
  j.seconds = now() - j.submit;
  j.ok = res.ok;
  j.error = res.error;
  return j;
}

/// A daemon after set-up: started, with every signature opened and run
/// once, so each plan is built and cached.
struct WarmDaemon {
  std::unique_ptr<serve::Daemon> daemon;
  std::string path;
  double setup_s = 0.0;
  std::vector<double> open_miss_s;  // Open plus first job, per signature.
  std::vector<std::vector<cplx>> in, out;
};

WarmDaemon warm_daemon(const std::vector<Signature>& sigs, const RunOptions& o,
                       int k, Report& r) {
  WarmDaemon w;
  w.path = socket_path(o, k);
  const double t0 = now();
  w.daemon = start_daemon(o, sigs[0].ranks, k);
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    w.in.push_back(client_field(sigs[i], o.seed, -1, static_cast<int>(i)));
    w.out.emplace_back(w.in.back().size());
    serve::Client c;
    const double a = now();
    const auto open = c.open(w.path, session_config(sigs[i]));
    r.check(open.ok, std::string(sigs[i].label) + ": open: " + open.reason);
    if (!open.ok) continue;
    const Job j = serve_roundtrip(c, w.in.back(), w.out.back());
    r.check(j.ok, std::string(sigs[i].label) + ": first job: " + j.error);
    w.open_miss_s.push_back(now() - a);
    c.close();
  }
  w.setup_s = now() - t0;
  return w;
}

/// What one closed-loop client saw.
struct ClientRun {
  struct Done {
    double submit, seconds, err;
    int sig;
  };
  std::vector<Done> jobs;
  std::vector<std::string> failures;
  double wire_bytes = 0.0, jobs_counted = 0.0;
};

/// Client `c`: walks a seeded permutation of the mix from a seeded offset,
/// reopening its session on the next signature every kJobsPerSession jobs,
/// until `end`. Spans go to `log` when given.
void client_loop(int c, const std::vector<Signature>& sigs,
                 const std::string& path, std::uint64_t seed, double end,
                 SpanLog* log, ClientRun& out) {
  const auto ns = sigs.size();
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + std::uint64_t(c) + 1);
  std::vector<std::size_t> order(ns);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = ns - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  std::vector<std::vector<cplx>> fields, results;
  for (std::size_t i = 0; i < ns; ++i) {
    fields.push_back(client_field(sigs[i], seed, c, static_cast<int>(i)));
    results.emplace_back(fields.back().size());
  }
  const auto span = [&](const char* name, int iter) {
    return log ? log->open(name, -1, iter) : -1;
  };
  const auto done = [&](int id) {
    if (log) log->close(id);
  };
  int iter = 0;
  for (std::size_t pos = rng.below(ns); now() < end; ++pos) {
    const std::size_t i = order[pos % ns];
    const Signature& s = sigs[i];
    serve::Client client;
    int id = span("serve.open", iter);
    const auto open = client.open(path, session_config(s));
    done(id);
    if (!open.ok) {
      out.failures.push_back(std::string(s.label) + ": open: " + open.reason);
      return;
    }
    const double reopen_at = std::min(end, now() + kSessionSeconds);
    while (now() < reopen_at) {
      id = span("serve.transform", iter++);
      const Job job = serve_roundtrip(client, fields[i], results[i]);
      done(id);
      if (!job.ok) {
        out.failures.push_back(std::string(s.label) + ": job: " + job.error);
        continue;
      }
      out.jobs.push_back({job.submit, job.seconds, rel_l2(results[i], fields[i]),
                          static_cast<int>(i)});
    }
    serve::Client::Stats st;
    id = span("serve.stats", iter);
    const bool got = client.stats(&st);
    done(id);
    if (got) {
      out.wire_bytes += st.values["tenant_wire_bytes"];
      out.jobs_counted += st.values["tenant_jobs_done"];
    }
    id = span("serve.close", iter);
    client.close();
    done(id);
  }
}

/// Runs kClients closed-loop clients against `path` until `end`.
std::vector<ClientRun> run_clients(const std::vector<Signature>& sigs,
                                   const std::string& path, std::uint64_t seed,
                                   double end, std::vector<SpanLog>* logs) {
  std::vector<ClientRun> runs(kClients);
  if (logs != nullptr) {
    for (int c = 0; c < kClients; ++c) logs->emplace_back(100 + c);
  }
  // Every log exists before the threads start, so none moves under them.
  const std::size_t base = logs ? logs->size() - kClients : 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    SpanLog* log = logs ? &(*logs)[base + static_cast<std::size_t>(c)] : nullptr;
    threads.emplace_back([&, c, log] {
      client_loop(c, sigs, path, seed, end, log,
                  runs[static_cast<std::size_t>(c)]);
    });
  }
  for (auto& t : threads) t.join();
  return runs;
}

/// Checks every job against its signature's budget; returns the jobs
/// submitted at or after `from`.
std::vector<ClientRun::Done> check_jobs(const std::vector<Signature>& sigs,
                                        const std::vector<ClientRun>& runs,
                                        double from, Report& r) {
  std::vector<ClientRun::Done> kept;
  for (const ClientRun& run : runs) {
    for (const std::string& f : run.failures) r.check(false, f);
    for (const ClientRun::Done& d : run.jobs) {
      const Signature& s = sigs[static_cast<std::size_t>(d.sig)];
      r.check(d.err <= s.err_budget,
              std::string(s.label) + ": served roundtrip error " +
                  std::to_string(d.err) + " above budget " +
                  std::to_string(s.err_budget));
      if (d.submit >= from) kept.push_back(d);
    }
  }
  return kept;
}

/// The served result of each signature's set-up job must be byte-identical
/// to running the library directly with the daemon's options.
void check_identity(const std::vector<Signature>& sigs, const WarmDaemon& w,
                    Report& r) {
  for (std::size_t i = 0; i < sigs.size() && i < w.out.size(); ++i) {
    const Signature& s = sigs[i];
    const Fft3dOptions opts =
        serve::fft_options_for(session_config(s), kGpusPerNode);
    std::vector<cplx> direct(w.in[i].size());
    minimpi::run_ranks(s.ranks, [&](minimpi::Comm& comm) {
      Fft3d<double> fft(comm, s.n, opts);
      std::vector<cplx> in(fft.local_count()), spec(fft.output_count()),
          back(fft.local_count());
      gather_box(w.in[i].data(), s.n, fft.inbox(), in.data());
      fft.forward(in, spec);
      fft.backward(spec, back);
      scatter_box(back.data(), fft.inbox(), s.n, direct.data());
    });
    r.check(bitwise_equal(direct, w.out[i]),
            std::string(s.label) +
                ": served result differs from library-direct execution");
  }
}

}  // namespace

void run_served_timed(const std::vector<Signature>& sigs, const RunOptions& o,
                      Report& r) {
  // Set-up several times over; the last daemon serves the timed loop.
  const StealClock steal;
  std::vector<Sample> setup;
  WarmDaemon w;
  for (int k = 0; k < kSetupRepeats; ++k) {
    w = WarmDaemon{};  // Stops the previous daemon first.
    w = warm_daemon(sigs, o, k, r);
    setup.push_back({now(), w.setup_s * 1e3});
  }

  const double warm_end = now() + 0.1 * o.seconds;
  const double end = warm_end + o.seconds;
  const auto runs = run_clients(sigs, w.path, o.seed, end, nullptr);
  const auto jobs = check_jobs(sigs, runs, warm_end, r);
  double wire = 0.0, counted = 0.0, err = 0.0;
  std::vector<Sample> samples;
  for (const ClientRun& run : runs) {
    wire += run.wire_bytes;
    counted += run.jobs_counted;
  }
  for (const auto& d : jobs) {
    samples.push_back({d.submit + d.seconds, d.seconds * 1e3});
    err += d.err;
  }
  w.daemon->stop();
  check_identity(sigs, w, r);

  const double n = static_cast<double>(jobs.size());
  const RunStats rs = quiet_stats(samples, warm_end, end, true, steal);
  std::printf("served-mix: %zu timed jobs from %d clients, %.0f%% of them "
              "quiet (host steal %.2f%%), p50 %.3f ms, p90 %.3f ms\n",
              jobs.size(), kClients, 100 * rs.quiet_frac, 100 * rs.steal,
              rs.p50_ms, rs.p90_ms);
  r.set("roundtrip_ms_p50", rs.p50_ms, "ms");
  r.set("roundtrips_per_s", rs.per_s, "1/s");
  r.set("rel_err", n > 0 ? err / n : 0.0, "ratio");
  r.set("wire_mb", counted > 0 ? wire / counted / 1e6 : 0.0, "MB");
  r.set("setup_s", quiet_stats(setup, 0, 0, false, steal).p50_ms / 1e3, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

namespace {

/// Served p50 on an idle daemon minus the direct p50 with the same
/// options, for signature `s`, over `jobs` roundtrips each.
double serve_overhead_ms(const Signature& s, const std::string& path,
                         std::uint64_t seed, int jobs, Report& r) {
  serve::Client c;
  const auto open = c.open(path, session_config(s));
  r.check(open.ok, std::string(s.label) + ": open: " + open.reason);
  if (!open.ok) return 0.0;
  const std::vector<cplx> in = make_field(s.n, seed);
  std::vector<cplx> out(in.size());
  std::vector<double> ms;
  for (int j = -1; j < jobs; ++j) {
    const Job job = serve_roundtrip(c, in, out);
    r.check(job.ok && rel_l2(out, in) <= s.err_budget,
            std::string(s.label) + ": served roundtrip failed " + job.error);
    if (j >= 0) ms.push_back(job.seconds * 1e3);
  }
  c.close();
  return median(ms) -
         direct_served_options_p50_ms(s, kGpusPerNode, seed, jobs);
}

/// Serve-layer timings on an idle daemon whose plans are all cached:
/// `reps` times per signature, open plus first job (a plan-cache hit) and
/// a stats call.
struct Reopens {
  std::vector<double> open_hit_s, stats_s;
};

Reopens reopen(const std::vector<Signature>& sigs, const std::string& path,
               std::uint64_t seed, int reps, Report& r) {
  Reopens out;
  for (int k = 0; k < reps; ++k) {
    for (const Signature& s : sigs) {
      const std::vector<cplx> in = make_field(s.n, seed);
      std::vector<cplx> res(in.size());
      serve::Client c;
      const double a = now();
      const auto open = c.open(path, session_config(s));
      r.check(open.ok, std::string(s.label) + ": open: " + open.reason);
      if (!open.ok) continue;
      const Job job = serve_roundtrip(c, in, res);
      out.open_hit_s.push_back(now() - a);
      r.check(job.ok && rel_l2(res, in) <= s.err_budget,
              std::string(s.label) + ": served roundtrip failed " + job.error);
      serve::Client::Stats st;
      const double t = now();
      r.check(c.stats(&st), std::string(s.label) + ": stats call failed");
      out.stats_s.push_back(now() - t);
      c.close();
    }
  }
  return out;
}

ServeSample summarize(const WarmDaemon& w, const Reopens& re,
                      const serve::CacheCounters& cc) {
  ServeSample ss;
  ss.open_ms_miss = median(w.open_miss_s) * 1e3;
  ss.open_ms_hit = median(re.open_hit_s) * 1e3;
  ss.stats_ms = median(re.stats_s) * 1e3;
  const double lookups = static_cast<double>(cc.hits + cc.misses);
  ss.cache_hit_ratio = lookups > 0 ? static_cast<double>(cc.hits) / lookups : 0;
  return ss;
}

}  // namespace

ServeSample trace_served_mix(const std::vector<Signature>& sigs,
                             const RunOptions& o, double seconds, Report& r,
                             std::vector<SpanLog>& logs) {
  WarmDaemon w = warm_daemon(sigs, o, 0, r);
  const auto runs =
      run_clients(sigs, w.path, o.seed, now() + 0.7 * seconds, &logs);
  check_jobs(sigs, runs, 0.0, r);
  // The hit ratio is the mix's; the timings come from the idle daemon.
  const serve::CacheCounters mix = w.daemon->cache_counters();
  ServeSample ss = summarize(w, reopen(sigs, w.path, o.seed, 3, r), mix);
  // The overhead probe uses the mix's largest signature.
  const auto largest = std::max_element(
      sigs.begin(), sigs.end(), [](const Signature& a, const Signature& b) {
        return a.n[0] * a.n[1] * a.n[2] < b.n[0] * b.n[1] * b.n[2];
      });
  ss.overhead_ms = serve_overhead_ms(*largest, w.path, o.seed, 50, r);
  return ss;
}

ServeSample serve_probe(const Signature& s, const RunOptions& o,
                        double seconds, Report& r) {
  const std::vector<Signature> one = {s};
  const WarmDaemon w = warm_daemon(one, o, 0, r);
  const Reopens re = reopen(one, w.path, o.seed, 3, r);
  ServeSample ss = summarize(w, re, w.daemon->cache_counters());
  // As many overhead jobs as fit in a quarter of the budget.
  const double job_s = std::max(1e-4, median(re.open_hit_s));
  const int jobs = std::clamp(static_cast<int>(0.25 * seconds / job_s), 3, 200);
  ss.overhead_ms = serve_overhead_ms(s, w.path, o.seed, jobs, r);
  return ss;
}

}  // namespace perfbench
