#include "tuner/tuner.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/cpu_dispatch.hpp"
#include "tuner/calibrate.hpp"

namespace lossyfft::tuner {

namespace {

// Advisory flock over <cache>.lock, serializing load/store across
// processes (and across Tuner instances in one process — flock contends
// between distinct file descriptors). Best-effort: an unlockable path
// degrades to the unlocked behavior rather than failing tuning.
class FileLock {
 public:
  FileLock(const std::string& cache_path, bool exclusive) {
    if (cache_path.empty()) return;
    fd_ = ::open((cache_path + ".lock").c_str(),
                 O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0) ::flock(fd_, exclusive ? LOCK_EX : LOCK_SH);
  }
  ~FileLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_ = -1;
};

// Codec rates are continuous (szq's depends on e_tol); bucket them at
// quarter-octave resolution so near-identical tolerances share a cache
// line while genuinely different compression regimes do not.
long rate_bucket(double rate) {
  return std::lround(std::log2(std::max(rate, 1e-9)) * 4.0);
}

// Cache keys are single whitespace-separated tokens per field.
std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  return s.empty() ? std::string("raw") : s;
}

}  // namespace

Tuner::Tuner(TunerOptions options) : options_(std::move(options)) {
  constants_ = options_.constants;
  std::lock_guard<std::mutex> lock(mu_);
  load_cache_locked();
}

Tuner& Tuner::global() {
  static Tuner instance([] {
    TunerOptions o;
    if (const char* path = std::getenv("LOSSYFFT_TUNE_CACHE")) o.cache_path = path;
    return o;
  }());
  return instance;
}

std::string Tuner::key(const ExchangeSignature& sig) const {
  std::ostringstream os;
  os << sig.p << ' ' << sig.gpn << ' ' << size_class(sig.pair_bytes) << ' '
     << sanitize(sig.codec_class()) << ' ' << rate_bucket(sig.rate());
  return os.str();
}

std::string Tuner::decomp_key(const DecompSignature& sig) const {
  // Exact grid extents, no bucketing: decompositions are decided once per
  // plan, and nearby grids can genuinely prefer different shapes.
  std::ostringstream os;
  os << sig.p << ' ' << sig.gpn << ' ' << sig.n[0] << ' ' << sig.n[1] << ' '
     << sig.n[2] << ' ' << sanitize(sig.codec_class()) << ' '
     << rate_bucket(sig.rate()) << ' ' << sig.elem_bytes;
  return os.str();
}

void Tuner::load_cache_locked() {
  if (options_.cache_path.empty()) return;
  const FileLock lock(options_.cache_path, /*exclusive=*/false);
  std::ifstream in(options_.cache_path);
  if (!in) return;
  parse_cache(in, /*keep_existing=*/false);
}

void Tuner::parse_cache(std::istream& in, bool keep_existing) {
  std::string header;
  int version = -1;
  std::string level;
  if (!(in >> header >> version >> level) ||
      header != "lossyfft-tune-cache" || version != kCacheVersion ||
      level != simd_level_name()) {
    // Unknown or stale format — or a cache calibrated under a different
    // kernel dispatch level: ignore the whole file and recalibrate.
    return;
  }
  // Two row kinds share the table: exchange rows start with the numeric p
  // token, decomposition rows carry a leading "d" tag. Peek the first
  // token of each row to dispatch.
  std::string tok;
  while (in >> tok) {
    if (tok == "d") {
      int p = 0, gpn = 0, algo = 0;
      std::array<int, 3> n{};
      long rb = 0;
      std::string cls;
      std::uint64_t eb = 0;
      std::array<int, 2> grid{};
      double seconds = 0.0;
      if (!(in >> p >> gpn >> n[0] >> n[1] >> n[2] >> cls >> rb >> eb >>
            algo >> grid[0] >> grid[1] >> seconds)) {
        break;
      }
      if (algo < 0 || algo > static_cast<int>(DecompAlgorithm::kSlab) ||
          grid[0] < 1 || grid[1] < 1) {
        continue;  // Tolerate a corrupt row without dropping the rest.
      }
      std::ostringstream os;
      os << p << ' ' << gpn << ' ' << n[0] << ' ' << n[1] << ' ' << n[2]
         << ' ' << cls << ' ' << rb << ' ' << eb;
      DecompDecision d;
      d.algorithm = static_cast<DecompAlgorithm>(algo);
      d.grid = grid;
      d.modeled_seconds = seconds;
      if (keep_existing) {
        decomp_memo_.emplace(os.str(), d);
      } else {
        decomp_memo_[os.str()] = d;
      }
      continue;
    }
    int p = 0, gpn = 0, sc = 0, path = 0, workers = 0, parity = 0;
    long rb = 0;
    std::string cls;
    std::uint64_t rendezvous = 0;
    double seconds = 0.0;
    try {
      p = std::stoi(tok);
    } catch (...) {
      continue;  // Unknown tag — skip the token and resynchronize.
    }
    if (!(in >> gpn >> sc >> cls >> rb >> path >> workers >> parity >>
          rendezvous >> seconds)) {
      break;
    }
    if (path < 0 || path > static_cast<int>(TunePath::kTwoSidedFused) ||
        workers < 1 || parity < 0) {
      continue;  // Tolerate a corrupt row without dropping the rest.
    }
    std::ostringstream os;
    os << p << ' ' << gpn << ' ' << sc << ' ' << cls << ' ' << rb;
    TuneDecision d;
    d.path = static_cast<TunePath>(path);
    d.workers = workers;
    d.parity = parity;
    d.rendezvous_threshold = rendezvous;
    d.modeled_seconds = seconds;
    if (keep_existing) {
      memo_.emplace(os.str(), d);
    } else {
      memo_[os.str()] = d;
    }
  }
}

void Tuner::store_cache_locked() {
  if (options_.cache_path.empty()) return;
  // Concurrent writers (the daemon plus a CLI, multiple tuner instances
  // hammering one LOSSYFFT_TUNE_CACHE) must never interleave or truncate
  // each other's rows. Under the exclusive lock, first adopt any rows a
  // peer stored since our load (our memo wins on conflicts — it is at
  // least as fresh), then publish the merged table through a temp file +
  // atomic rename so readers only ever observe complete table images.
  const FileLock lock(options_.cache_path, /*exclusive=*/true);
  {
    std::ifstream in(options_.cache_path);
    if (in) parse_cache(in, /*keep_existing=*/true);
  }
  const std::string tmp =
      options_.cache_path + ".tmp." + std::to_string(::getpid());
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) return;  // Unwritable cache degrades to in-memory tuning.
  // max_digits10 so modeled_seconds round-trips bit-exactly: a reloaded
  // cache must reproduce decisions (and their reported costs) verbatim.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "lossyfft-tune-cache " << kCacheVersion << ' '
      << simd_level_name() << '\n';
  for (const auto& [k, d] : memo_) {
    out << k << ' ' << static_cast<int>(d.path) << ' ' << d.workers << ' '
        << d.parity << ' ' << d.rendezvous_threshold << ' '
        << d.modeled_seconds << '\n';
  }
  for (const auto& [k, d] : decomp_memo_) {
    out << "d " << k << ' ' << static_cast<int>(d.algorithm) << ' '
        << d.grid[0] << ' ' << d.grid[1] << ' ' << d.modeled_seconds << '\n';
  }
  out.close();
  if (!out || std::rename(tmp.c_str(), options_.cache_path.c_str()) != 0) {
    std::remove(tmp.c_str());
  }
}

CostConstants& Tuner::constants_locked(const CodecPtr& codec,
                                       const std::string& codec_class) {
  if (!constants_) constants_ = calibrate_host();
  if (!options_.constants && codec && calibrated_codec_class_ != codec_class) {
    calibrate_codec(*codec, *constants_);
    calibrated_codec_class_ = codec_class;
  }
  return *constants_;
}

const CostConstants& Tuner::constants() {
  std::lock_guard<std::mutex> lock(mu_);
  return constants_locked(nullptr, std::string());
}

TuneDecision Tuner::decide(const ExchangeSignature& sig) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string k = key(sig);
  if (const auto it = memo_.find(k); it != memo_.end()) return it->second;

  const CostConstants& cc = constants_locked(sig.codec, sig.codec_class());
  // Decide at the bucket's deterministic representative so every
  // pair_bytes in the size class yields the identical decision.
  ExchangeSignature rep = sig;
  rep.pair_bytes = representative_bytes(size_class(sig.pair_bytes));
  const TuneDecision d = lossyfft::tuner::decide(rep, cc);
  memo_[k] = d;
  store_cache_locked();
  return d;
}

DecompDecision Tuner::decide_decomp(const DecompSignature& sig) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string k = decomp_key(sig);
  if (const auto it = decomp_memo_.find(k); it != decomp_memo_.end()) {
    return it->second;
  }
  const CostConstants& cc = constants_locked(sig.codec, sig.codec_class());
  const DecompDecision d = lossyfft::tuner::decide_decomp(sig, cc);
  decomp_memo_[k] = d;
  store_cache_locked();
  return d;
}

}  // namespace lossyfft::tuner
