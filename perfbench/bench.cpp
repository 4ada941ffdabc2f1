#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "compress/planner.hpp"

namespace perfbench {

using namespace lossyfft;

CodecPtr codec_of(const Signature& s) {
  if (s.family < 0) return nullptr;
  return plan_codec(s.e_tol, static_cast<CodecFamily>(s.family));
}

Fft3dOptions direct_options(const Signature& s) {
  Fft3dOptions o;
  o.backend = ExchangeBackend::kOsc;
  o.codec = codec_of(s);
  o.osc_sync = s.sync == 0 ? osc::OscSync::kFence : osc::OscSync::kPscw;
  return o;
}

serve::SessionConfig session_config(const Signature& s) {
  serve::SessionConfig c;
  c.n = s.n;
  c.family = s.family;
  c.e_tol = s.e_tol;
  c.backend = static_cast<std::uint8_t>(ExchangeBackend::kOsc);
  c.sync = static_cast<std::uint8_t>(s.sync);
  return c;
}

double truncation_budget(double e_tol) {
  return 32.0 * std::ldexp(1.0, -(mantissa_bits_for_tolerance(e_tol) + 1));
}

std::vector<cplx> make_field(std::array<int, 3> n, std::uint64_t seed) {
  std::vector<cplx> f(static_cast<std::size_t>(n[0]) * n[1] * n[2]);
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  fill_uniform_complex(rng, f);
  return f;
}

void gather_box(const cplx* g, std::array<int, 3> n, const Box3& b,
                cplx* local) {
  for (int z = 0; z < b.size[2]; ++z) {
    for (int y = 0; y < b.size[1]; ++y) {
      const std::size_t src =
          std::size_t(b.lo[0]) +
          std::size_t(n[0]) * (std::size_t(b.lo[1] + y) +
                               std::size_t(n[1]) * std::size_t(b.lo[2] + z));
      std::memcpy(local, g + src, std::size_t(b.size[0]) * sizeof(cplx));
      local += b.size[0];
    }
  }
}

void scatter_box(const cplx* local, const Box3& b, std::array<int, 3> n,
                 cplx* g) {
  for (int z = 0; z < b.size[2]; ++z) {
    for (int y = 0; y < b.size[1]; ++y) {
      const std::size_t dst =
          std::size_t(b.lo[0]) +
          std::size_t(n[0]) * (std::size_t(b.lo[1] + y) +
                               std::size_t(n[1]) * std::size_t(b.lo[2] + z));
      std::memcpy(g + dst, local, std::size_t(b.size[0]) * sizeof(cplx));
      local += b.size[0];
    }
  }
}

double rel_l2(const std::vector<cplx>& a, const std::vector<cplx>& ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(a[i] - ref[i]);
    den += std::norm(ref[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

bool bitwise_equal(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

namespace {

/// Total steal ticks over all vCPUs, or -1 when /proc/stat is unreadable.
double read_steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) : -1.0;
}

}  // namespace

StealClock::StealClock() {
  if (read_steal_ticks() < 0.0) return;
  samples_.emplace_back(now(), read_steal_ticks());
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_; })) {
      lock.unlock();
      const double ticks = read_steal_ticks();
      const double t = now();
      lock.lock();
      samples_.emplace_back(t, ticks);
    }
  });
}

StealClock::~StealClock() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double StealClock::ticks_at(double t) const {
  const auto after = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const std::pair<double, double>& s, double x) { return s.first < x; });
  if (after == samples_.begin()) return samples_.front().second;
  if (after == samples_.end()) return samples_.back().second;
  const auto& [ta, va] = *(after - 1);
  const auto& [tb, vb] = *after;
  return va + (vb - va) * (t - ta) / (tb - ta);
}

double StealClock::share(double t0, double t1) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2 || t1 <= t0) return 0.0;
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  const double ticks = ticks_at(t1) - ticks_at(t0);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK)) / cpus / (t1 - t0);
}

namespace {

/// Sorts `v` (pairs of steal share and payload) by steal and keeps the
/// quiet entries, or the quietest quarter when fewer are quiet. Returns the
/// share of entries that were quiet.
template <typename T>
double keep_quiet(std::vector<std::pair<double, T>>& v) {
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::size_t quiet = 0;
  while (quiet < v.size() && v[quiet].first <= kQuietSteal) ++quiet;
  const double frac =
      v.empty() ? 0.0 : static_cast<double>(quiet) / static_cast<double>(v.size());
  v.resize(std::max(quiet, (v.size() + 3) / 4));
  return frac;
}

}  // namespace

RunStats quiet_stats(const std::vector<Sample>& samples, double t0, double t1,
                     bool concurrent, const StealClock& steal) {
  RunStats rs{};
  rs.steal = steal.share(t0, t1);
  std::vector<std::pair<double, double>> ms;
  for (const Sample& s : samples) {
    ms.emplace_back(steal.share(s.at - s.ms / 1e3, s.at), s.ms);
  }
  rs.quiet_frac = keep_quiet(ms);
  std::vector<double> kept;
  double busy_ms = 0.0;
  for (const auto& [share, m] : ms) {
    kept.push_back(m);
    busy_ms += m;
  }
  rs.p50_ms = quantile(kept, 0.5);
  rs.p90_ms = quantile(kept, 0.9);
  if (!concurrent) {
    rs.per_s = busy_ms > 0.0 ? static_cast<double>(kept.size()) / (busy_ms / 1e3)
                             : 0.0;
    return rs;
  }
  std::vector<std::pair<double, double>> spans;  // (steal, completions/s)
  for (double lo = t0; lo + kSpan <= t1; lo += kSpan) {
    double first = lo + kSpan, last = lo, n = 0.0;
    for (const Sample& s : samples) {
      if (s.at < lo || s.at >= lo + kSpan) continue;
      first = std::min(first, s.at);
      last = std::max(last, s.at);
      n += 1.0;
    }
    if (n >= 2.0) {
      spans.emplace_back(steal.share(lo, lo + kSpan), (n - 1.0) / (last - first));
    }
  }
  keep_quiet(spans);
  std::vector<double> rates;
  for (const auto& [share, rate] : spans) rates.push_back(rate);
  rs.per_s = median(rates);
  return rs;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::json() const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char num[64];
    // Non-finite values are not JSON numbers; they can only come from a
    // broken measurement, so print 0 and let the check below fail the run.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        int max_iter) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto kept = [&](const Span& s) {
    return s.iter >= 0 && s.iter < max_iter;
  };
  double epoch = now();
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (kept(s)) epoch = std::min(epoch, s.t0);
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (!kept(s)) continue;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"parent\": %d, \"iter\": %d}}",
                   first ? "" : ",\n", s.name, s.tid, (s.t0 - epoch) * 1e6,
                   (s.t1 - s.t0) * 1e6, s.parent, s.iter);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
