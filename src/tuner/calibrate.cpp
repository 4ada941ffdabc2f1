#include "tuner/calibrate.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <span>
#include <vector>

#include "common/worker_pool.hpp"
#include "fft/fft1d.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/window.hpp"

namespace lossyfft::tuner {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Best-of-`reps` timing of `fn` (per invocation), shielding the constants
// from scheduler noise on a shared host.
template <typename Fn>
double best_of(int reps, const Fn& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

// Smooth field with mild noise: representative of the spectra/bricks the
// exchange carries (pure random data would understate szq/RLE throughput,
// constants would overstate it).
std::vector<double> probe_field(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) * 0.013;
    v[i] = std::sin(x) + 1e-4 * std::cos(57.0 * x);
  }
  return v;
}

}  // namespace

CostConstants calibrate_host() {
  CostConstants k;
  k.pool_concurrency = WorkerPool::global().concurrency();

  // --- Copy bandwidth -----------------------------------------------------
  constexpr std::size_t kCopyBytes = std::size_t{4} << 20;
  std::vector<std::byte> src(kCopyBytes), dst(kCopyBytes);
  const double copy_s =
      best_of(3, [&] { std::memcpy(dst.data(), src.data(), kCopyBytes); });
  if (copy_s > 0.0) {
    k.copy_bw = static_cast<double>(kCopyBytes) / copy_s;
    // Thread ranks share one memory system: both "intra" and "inter"
    // transfers are memcpys at this bandwidth.
    k.net.intra_bw = k.copy_bw;
    k.net.inter_bw = k.copy_bw;
  }

  // --- Local FFT rate -------------------------------------------------------
  // One 64-point stage shaped like a z-pencil stage (adjacent lines at the
  // line-count stride), run through the active lane tier on this thread.
  constexpr std::size_t kFftN = 64, kFftLines = 256;
  const Fft1d<double> plan(kFftN);
  std::vector<std::complex<double>> lines(kFftN * kFftLines);
  const std::vector<double> re = probe_field(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) lines[i] = {re[i], -re[i]};
  const double fft_s = best_of(3, [&] {
    plan.transform_strided(lines.data(), kFftLines, kFftLines, 1,
                           FftDirection::kForward);
  });
  if (fft_s > 0.0) {
    k.fft_flops = 5.0 * kFftN * std::log2(static_cast<double>(kFftN)) *
                  kFftLines / fft_s;
  }

  // --- Transport overheads: a nested 2-rank probe world -------------------
  // Fresh runtime (own SharedState), so this is safe from inside a rank
  // thread of a live world. Rank 0's measurements win; rank 1 cooperates.
  double eager_msg = 0.0, put_msg = 0.0, barrier_s = 0.0, handshake = 0.0;
  constexpr int kIters = 256;
  minimpi::run_ranks(2, [&](minimpi::Comm& comm) {
    const int me = comm.rank();
    const std::array<int, 1> peer_grp = {1 - me};
    std::array<std::byte, 256> storage{};  // Well below the eager threshold.
    const std::span<std::byte> buf(storage);

    // Eager ping-pong: half the round trip is one message's overhead.
    comm.barrier();
    auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      if (me == 0) {
        comm.send(std::span<const std::byte>(buf), 1, 7);
        comm.recv(buf, 1, 7);
      } else {
        comm.recv(buf, 0, 7);
        comm.send(std::span<const std::byte>(buf), 0, 7);
      }
    }
    if (me == 0) eager_msg = seconds_since(t0) / (2.0 * kIters);

    // One-sided puts inside one fence epoch: per-put cost.
    std::array<std::byte, 256> win_store{};
    minimpi::Window win(comm, std::span<std::byte>(win_store));
    win.fence();
    t0 = Clock::now();
    if (me == 0) {
      for (int i = 0; i < kIters; ++i) {
        win.put(std::span<const std::byte>(buf), 1, 0);
      }
      put_msg = seconds_since(t0) / kIters;
    }
    win.fence();

    // Fence/barrier cost (the per-round price of OscSync::kFence).
    comm.barrier();
    t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) comm.barrier();
    if (me == 0) barrier_s = seconds_since(t0) / kIters;

    // PSCW handshake: post/start/complete/wait against one peer.
    t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      win.post(peer_grp);
      win.start(peer_grp);
      win.complete();
      win.wait_posted();
    }
    if (me == 0) handshake = seconds_since(t0) / kIters;
  });
  if (eager_msg > 0.0) k.net.msg_overhead_two_sided = eager_msg;
  if (put_msg > 0.0) k.net.msg_overhead_one_sided = put_msg;
  if (barrier_s > 0.0) {
    // simulate() charges barrier_hop_latency * ceil(log2(nodes)); the
    // 2-rank probe measures one hop.
    k.net.barrier_hop_latency = barrier_s;
    k.net.base_latency = std::min(k.net.base_latency, barrier_s);
  }
  if (handshake > 0.0) k.handshake_seconds = handshake;

  k.calibrated = true;
  return k;
}

void calibrate_codec(const Codec& codec, CostConstants& k) {
  constexpr std::size_t kElems = std::size_t{1} << 15;  // 256 KiB of input.
  const auto in = probe_field(kElems);
  std::vector<std::byte> wire(codec.max_compressed_bytes(kElems));
  std::vector<double> out(kElems);

  std::size_t used = 0;
  const double enc_s = best_of(3, [&] { used = codec.compress(in, wire); });
  const double dec_s = best_of(3, [&] {
    codec.decompress(std::span<const std::byte>(wire.data(), used), out);
  });
  constexpr double kInputBytes = static_cast<double>(kElems * sizeof(double));
  if (enc_s > 0.0) k.encode_bw = kInputBytes / enc_s;
  if (dec_s > 0.0) k.decode_bw = kInputBytes / dec_s;
}

}  // namespace lossyfft::tuner
