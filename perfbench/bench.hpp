// perfbench: shared pieces of the lossyfft benchmark program.
//
// The program times lossyfft from the outside, through each layer's public
// calls. A workload is a list of transform signatures; the timed run
// measures the end-to-end metrics, and the traced run replays one
// roundtrip from the library's public pieces and records a span around
// every call, giving the per-layer metrics.
#pragma once

#include <array>
#include <chrono>
#include <complex>
#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dfft/box.hpp"
#include "dfft/fft3d.hpp"
#include "serve/session.hpp"

namespace perfbench {

using cplx = std::complex<double>;

/// Seconds on the steady clock, shared by every thread of the process.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One transform shape: grid, world size, wire codec and sync mode.
struct Signature {
  const char* label;
  std::array<int, 3> n;
  int ranks;
  int family;         // lossyfft::CodecFamily value; -1 = exact wire.
  double e_tol;       // Tolerance handed to plan_codec.
  int sync;           // 0 = fence, 1 = PSCW.
  double err_budget;  // Ceiling on the roundtrip relative L2 error.
};

/// plan_codec(e_tol, family), or nullptr on an exact wire.
lossyfft::CodecPtr codec_of(const Signature& s);
/// kOsc backend, the signature's codec and sync; library defaults otherwise.
lossyfft::Fft3dOptions direct_options(const Signature& s);
/// The session a served client opens for this signature.
lossyfft::serve::SessionConfig session_config(const Signature& s);

/// Per-signature roundtrip error ceiling. Truncation: 32x the codec's
/// per-element roundoff 2^-(m+1) (the accuracy suite's slack); exact wires
/// and lossless codecs: 1e-12.
double truncation_budget(double e_tol);

/// Seeded global field, x-fastest, uniform in [-1, 1) per component.
std::vector<cplx> make_field(std::array<int, 3> n, std::uint64_t seed);
/// Copy box `b` of global field `g` into dense local storage, and back.
void gather_box(const cplx* g, std::array<int, 3> n, const lossyfft::Box3& b,
                cplx* local);
void scatter_box(const cplx* local, const lossyfft::Box3& b,
                 std::array<int, 3> n, cplx* g);
double rel_l2(const std::vector<cplx>& a, const std::vector<cplx>& ref);
bool bitwise_equal(const std::vector<cplx>& a, const std::vector<cplx>& b);

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, then sorted).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set of this process in MB.
double peak_rss_mb();

/// Hypervisor steal time: the share of the host's vCPU time taken by other
/// guests (the "steal" field of /proc/stat), sampled every 50 ms by a
/// background thread for as long as the object lives.
class StealClock {
 public:
  StealClock();
  ~StealClock();
  StealClock(const StealClock&) = delete;
  StealClock& operator=(const StealClock&) = delete;
  /// Stolen share of all vCPU time between two now() instants; 0 when
  /// /proc/stat is unreadable.
  double share(double t0, double t1) const;

 private:
  double ticks_at(double t) const;  // Caller holds mu_.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::pair<double, double>> samples_;  // (now(), steal ticks)
  std::thread thread_;
};

/// One timed roundtrip or job: when it completed (now()) and how long it
/// took (ms).
struct Sample {
  double at, ms;
};

/// Latency p50 and p90 and throughput of a run, taken from what ran while
/// the host left this guest alone: the samples during which the
/// hypervisor stole at most kQuietSteal of the vCPU time, or the quietest
/// quarter of them when fewer qualify. `concurrent`: samples overlap
/// (several clients), so the rate is the median over the quiet kSpan-long
/// spans of [t0, t1] of completions per second of wall time; otherwise it
/// is quiet completions per second of their own latency.
struct RunStats {
  double p50_ms, p90_ms, per_s;
  double quiet_frac;  // Share of samples that were quiet.
  double steal;       // Stolen share of [t0, t1].
};
inline constexpr double kQuietSteal = 0.005;
inline constexpr double kSpan = 0.25;
RunStats quiet_stats(const std::vector<Sample>& samples, double t0, double t1,
                     bool concurrent, const StealClock& steal);

/// Outcome of one benchmark run: correctness tallies plus named metrics,
/// printed as the last line of standard output.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Count one checked operation; a failed check is reported on stderr.
  void check(bool ok, const std::string& what);
  std::string json() const;
};

/// One traced call: name, interval, the span that caused it, and the rank
/// (or client) thread it ran on. Spans stay in memory until the run ends.
struct Span {
  const char* name;
  double t0, t1;
  int parent;  // Index into the same thread's span list; -1 for a root.
  int tid;
  int iter;    // Roundtrip / job sequence number within the thread.
};

/// Append-only span list of one thread. Reserve up front; no locking.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}
  int open(const char* name, int parent, int iter) {
    spans_.push_back({name, now(), 0.0, parent, tid_, iter});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].t1 = now(); }
  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  int tid_;
  std::vector<Span> spans_;
};

/// Write the spans of the first `max_iter` timed iterations of every
/// thread as Chrome trace-event JSON ("X" complete events).
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs, int max_iter);

/// Per-layer figures of one signature's traced replay; see README.md.
struct LayerSample {
  double fft_ms = 0, fft_gflops = 0, reshape_ms = 0, sync_ms = 0;
  double barrier_us = 0;
  double wire_ratio = 0, messages = 0, rounds = 0, skew_ms = 0;
  double encode_gbps = 0, decode_gbps = 0, codec_ms = 0;
  double model_fft_ratio = 0, model_reshape_ratio = 0;
  double unattributed_frac = 0, overhead_frac = 0;
};

/// Figures of the serving layer for one workload; see README.md.
struct ServeSample {
  double open_ms_miss = 0, open_ms_hit = 0, cache_hit_ratio = 0;
  double stats_ms = 0, overhead_ms = 0;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  std::string work_dir = ".bench_build";  // Sockets and trace files.
  std::string trace_file;                 // Chrome trace output, or empty.
};

// --- fft_workload.cpp -------------------------------------------------------

/// Timed run of one Fft3d signature: end-to-end metrics into `r`.
void run_fft_timed(const Signature& s, const RunOptions& o, Report& r);

/// Traced replay of one signature for about `seconds`: checks the replay
/// is bitwise equal to Fft3d (into `r`) and returns its layer figures.
LayerSample replay_layers(const Signature& s, std::uint64_t seed,
                          double seconds, Report& r,
                          std::vector<SpanLog>* keep_logs);

/// Median wall ms of direct (library) roundtrips with the served options
/// fft_options_for(session_config(s)), for the serving overhead.
double direct_served_options_p50_ms(const Signature& s, int gpus_per_node,
                                    std::uint64_t seed, int jobs);

// --- served_workload.cpp ----------------------------------------------------

/// Timed run of the served mix: end-to-end metrics into `r`.
void run_served_timed(const std::vector<Signature>& sigs, const RunOptions& o,
                      Report& r);

/// Traced run of the served mix: serve-layer figures, with client spans
/// appended to `logs`.
ServeSample trace_served_mix(const std::vector<Signature>& sigs,
                             const RunOptions& o, double seconds, Report& r,
                             std::vector<SpanLog>& logs);

/// Serve-layer figures of a single signature on a fresh daemon.
ServeSample serve_probe(const Signature& s, const RunOptions& o,
                        double seconds, Report& r);

}  // namespace perfbench
