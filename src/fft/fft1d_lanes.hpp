// Lane-generic bodies of the Fft1d algorithms (internal to src/fft/).
//
// Each algorithm — radix-2 Stockham for powers of two, the recursive
// mixed-radix DIT for the other 7-smooth sizes, Bluestein for the rest —
// is written once over a lane type V: the real scalar T itself (one line)
// or a GCC vector of B lanes of T (B lines side by side). Element e of a
// line sits in V slots 2e (real part) and 2e + 1 (imaginary part), so the
// one-lane kernel runs in place on std::complex<T> storage and the B-lane
// kernel runs on a tile whose element e holds B real parts, then B
// imaginary parts.
//
// The arithmetic spells out the std::complex expressions the kernel
// replaced, part by part and in the same order: a complex product is
// (a*c - b*d, a*d + b*c), a sum adds the parts, the inverse is
// conj(forward(conj(x))) times 1/n. Nothing is fused (the TUs build with
// -ffp-contract=off) or reassociated, so every lane computes exactly what
// the one-lane path computes, and every lane width gives bitwise identical
// output for finite inputs.
//
// Everything below PlanView/LaneBatch sits in an unnamed namespace on
// purpose: fft1d.cpp instantiates it for V = T and fft1d_simd.cpp (built
// with -mavx2) for the vector types, and internal linkage keeps the linker
// from folding an AVX2-compiled copy into the scalar path. For the same
// reason the bodies use plain loops rather than <algorithm> templates.
#pragma once

#include <cstddef>
#include <utility>

#include "fft/fft1d.hpp"

namespace lossyfft::fft_lanes {

enum class Algo { kTrivial, kStockham, kDit, kBluestein };

/// Read-only tables of one plan. Complex tables are interleaved re/im.
template <typename T>
struct PlanView {
  std::size_t n = 0;
  Algo algo = Algo::kTrivial;
  const std::size_t* factors = nullptr;  // DIT radices, largest first.
  const T* twiddle = nullptr;            // w[k] = exp(-2*pi*i*k/n), k < n.
  std::size_t m = 0;                     // Bluestein convolution size.
  const PlanView* inner = nullptr;       // Size-m power-of-two plan.
  const T* chirp = nullptr;              // a_k = exp(-i*pi*k^2/n), k < n.
  const T* chirp_fft = nullptr;          // FFT of the padded conj chirp.
  std::size_t scratch = 0;  // Elements of scratch one transform needs.
};

/// `batch` transforms of the plan, the b-th at data + b*batch_stride
/// (complex units) with elements `stride` apart. `buf` is 64-byte aligned
/// and holds 2 * lanes * (n + scratch) values of T.
template <typename T>
using BatchFn = void (*)(const PlanView<T>& p, T* data, std::ptrdiff_t stride,
                         std::size_t batch, std::ptrdiff_t batch_stride,
                         FftDirection dir, T* buf);

/// One dispatch slot: how many lines a call runs side by side, and how.
template <typename T>
struct LaneBatch {
  std::size_t lanes;
  BatchFn<T> run;
};

/// The one-lane path (fft1d.cpp) and the AVX2 tile path (fft1d_simd.cpp,
/// which returns the one-lane slot when built without AVX2).
LaneBatch<float> scalar_lanes_f32();
LaneBatch<double> scalar_lanes_f64();
LaneBatch<float> avx2_lanes_f32();
LaneBatch<double> avx2_lanes_f64();

namespace {

template <typename T, typename V>
struct Kernel {
  using View = PlanView<T>;

  // Iterative radix-2 Stockham autosort: no bit reversal, unit-stride
  // inner loops, ping-pong between data and scratch.
  static void stockham(const View& p, V* data, V* scratch) {
    const std::size_t n = p.n;
    V* x = data;
    V* y = scratch;
    for (std::size_t l = n / 2, m = 1; l >= 1; l >>= 1, m <<= 1) {
      const std::size_t tw_step = n / (2 * l);  // w_{2l}^j == w[j*step].
      for (std::size_t j = 0; j < l; ++j) {
        const T wr = p.twiddle[2 * j * tw_step];
        const T wi = p.twiddle[2 * j * tw_step + 1];
        const V* xa = x + 2 * m * j;
        const V* xb = x + 2 * m * (j + l);
        V* ya = y + 4 * m * j;
        V* yb = ya + 2 * m;
        for (std::size_t k = 0; k < m; ++k) {
          const V ar = xa[2 * k], ai = xa[2 * k + 1];
          const V br = xb[2 * k], bi = xb[2 * k + 1];
          ya[2 * k] = ar + br;
          ya[2 * k + 1] = ai + bi;
          const V dr = ar - br, di = ai - bi;
          yb[2 * k] = wr * dr - wi * di;
          yb[2 * k + 1] = wr * di + wi * dr;
        }
      }
      std::swap(x, y);
    }
    if (x != data) {
      for (std::size_t i = 0; i < 2 * n; ++i) data[i] = x[i];
    }
  }

  // Combine step of one DIT level with radix R over `msub`-point
  // sub-transforms stored back to back in `out`:
  // X[j + p*msub] = sum_q (Y_q[j] * w_n^{q*j*mult}) * w_R^{q*p}. For fixed
  // j the reads and writes cover the same index set, so it runs in place
  // through size-R temporaries. q*j*mult < n, and w_R^{q*p} is
  // w[((q*p) mod R) * n/R].
  template <std::size_t R>
  static void combine(const View& p, V* out, std::size_t msub,
                      std::size_t mult) {
    const std::size_t wr_step = p.n / R;
    for (std::size_t j = 0; j < msub; ++j) {
      V tr[R], ti[R];
      for (std::size_t q = 0; q < R; ++q) {
        const T* w = p.twiddle + 2 * (q * j * mult);
        const V ar = out[2 * (q * msub + j)];
        const V ai = out[2 * (q * msub + j) + 1];
        tr[q] = ar * w[0] - ai * w[1];
        ti[q] = ar * w[1] + ai * w[0];
      }
      for (std::size_t pp = 0; pp < R; ++pp) {
        V accr = tr[0], acci = ti[0];
        for (std::size_t q = 1; q < R; ++q) {
          const T* w = p.twiddle + 2 * (((q * pp) % R) * wr_step);
          accr = accr + (tr[q] * w[0] - ti[q] * w[1]);
          acci = acci + (tr[q] * w[1] + ti[q] * w[0]);
        }
        out[2 * (j + pp * msub)] = accr;
        out[2 * (j + pp * msub) + 1] = acci;
      }
    }
  }

  // Recursive decimation-in-time step. Computes the DFT of the `sub_n`
  // points found at in[0], in[stride], ... into out[0..sub_n)
  // (contiguous). `mult` = n / sub_n maps sub-transform twiddle indices
  // into the full table: w_{sub_n}^t == w[t * mult].
  static void dit(const View& p, std::size_t sub_n, const V* in,
                  std::size_t stride, V* out, std::size_t mult,
                  std::size_t depth) {
    if (sub_n == 1) {
      out[0] = in[0];
      out[1] = in[1];
      return;
    }
    const std::size_t r = p.factors[depth];
    const std::size_t msub = sub_n / r;
    for (std::size_t q = 0; q < r; ++q) {
      dit(p, msub, in + 2 * q * stride, stride * r, out + 2 * q * msub,
          mult * r, depth + 1);
    }
    switch (r) {
      case 2: combine<2>(p, out, msub, mult); break;
      case 3: combine<3>(p, out, msub, mult); break;
      case 5: combine<5>(p, out, msub, mult); break;
      default: combine<7>(p, out, msub, mult); break;
    }
  }

  // y = IFFT(FFT(x .* chirp) .* chirp_fft) .* chirp, classic chirp-z.
  static void bluestein(const View& p, V* data, V* scratch) {
    const std::size_t n = p.n, m = p.m;
    V* work = scratch;
    V* inner_scratch = scratch + 2 * m;
    for (std::size_t k = 0; k < n; ++k) {
      const V dr = data[2 * k], di = data[2 * k + 1];
      const T cr = p.chirp[2 * k], ci = p.chirp[2 * k + 1];
      work[2 * k] = dr * cr - di * ci;
      work[2 * k + 1] = dr * ci + di * cr;
    }
    for (std::size_t k = 2 * n; k < 2 * m; ++k) work[k] = V{};
    run(*p.inner, work, FftDirection::kForward, inner_scratch);
    for (std::size_t k = 0; k < m; ++k) {
      const V ar = work[2 * k], ai = work[2 * k + 1];
      const T cr = p.chirp_fft[2 * k], ci = p.chirp_fft[2 * k + 1];
      work[2 * k] = ar * cr - ai * ci;
      work[2 * k + 1] = ar * ci + ai * cr;
    }
    run(*p.inner, work, FftDirection::kInverse, inner_scratch);
    for (std::size_t k = 0; k < n; ++k) {
      const V ar = work[2 * k], ai = work[2 * k + 1];
      const T cr = p.chirp[2 * k], ci = p.chirp[2 * k + 1];
      data[2 * k] = ar * cr - ai * ci;
      data[2 * k + 1] = ar * ci + ai * cr;
    }
  }

  static void forward(const View& p, V* data, V* scratch) {
    switch (p.algo) {
      case Algo::kTrivial: return;
      case Algo::kStockham: stockham(p, data, scratch); return;
      case Algo::kBluestein: bluestein(p, data, scratch); return;
      case Algo::kDit:
        for (std::size_t i = 0; i < 2 * p.n; ++i) scratch[i] = data[i];
        dit(p, p.n, scratch, 1, data, 1, 0);
        return;
    }
  }

  /// In place; the inverse is conj(forward(conj(x))) / n, so the twiddle
  /// tables stay forward-only.
  static void run(const View& p, V* data, FftDirection dir, V* scratch) {
    if (dir == FftDirection::kForward) {
      forward(p, data, scratch);
      return;
    }
    for (std::size_t i = 0; i < p.n; ++i) data[2 * i + 1] = -data[2 * i + 1];
    forward(p, data, scratch);
    const T inv_n = T(1) / static_cast<T>(p.n);
    for (std::size_t i = 0; i < p.n; ++i) {
      data[2 * i] = data[2 * i] * inv_n;
      data[2 * i + 1] = -data[2 * i + 1] * inv_n;
    }
  }
};

/// Moves `lanes` <= B lines between their strided home (the first at
/// `src`/`dst`, the next 2*line_stride values of T on, elements 2*stride
/// apart) and a tile whose T slots (2e)*B + b and (2e+1)*B + b hold element
/// e of lane b. The gather folds in the inverse's input conj and
/// zero-fills lanes past `lanes`; the scatter folds in its output conj and
/// 1/n scale, as (re * s, -im * s).
template <typename T, std::size_t B>
void gather_tile(T* tile, const T* src, std::size_t n, std::ptrdiff_t stride,
                 std::ptrdiff_t line_stride, std::size_t lanes, bool conj) {
  for (std::size_t e = 0; e < n; ++e) {
    const T* s = src + 2 * static_cast<std::ptrdiff_t>(e) * stride;
    T* re = tile + 2 * e * B;
    T* im = re + B;
    for (std::size_t b = 0; b < B; ++b) {
      if (b < lanes) {
        const T* v = s + 2 * static_cast<std::ptrdiff_t>(b) * line_stride;
        re[b] = v[0];
        im[b] = conj ? -v[1] : v[1];
      } else {
        re[b] = T(0);
        im[b] = T(0);
      }
    }
  }
}

template <typename T, std::size_t B>
void scatter_tile(const T* tile, T* dst, std::size_t n,
                  std::ptrdiff_t stride, std::ptrdiff_t line_stride,
                  std::size_t lanes, bool conj, T scale) {
  for (std::size_t e = 0; e < n; ++e) {
    T* d = dst + 2 * static_cast<std::ptrdiff_t>(e) * stride;
    const T* re = tile + 2 * e * B;
    const T* im = re + B;
    for (std::size_t b = 0; b < lanes; ++b) {
      T* v = d + 2 * static_cast<std::ptrdiff_t>(b) * line_stride;
      if (conj) {
        v[0] = re[b] * scale;
        v[1] = -im[b] * scale;
      } else {
        v[0] = re[b];
        v[1] = im[b];
      }
    }
  }
}

/// The BatchFn body for B lanes of type V. One lane runs contiguous lines
/// in place; otherwise lines move through the tile B at a time, the last
/// group padded with zero lanes.
template <typename T, typename V, std::size_t B>
void run_batch(const PlanView<T>& p, T* data, std::ptrdiff_t stride,
               std::size_t batch, std::ptrdiff_t batch_stride,
               FftDirection dir, T* buf) {
  V* tile = reinterpret_cast<V*>(buf);
  V* scratch = tile + 2 * p.n;
  if constexpr (B == 1) {
    if (stride == 1) {
      for (std::size_t b = 0; b < batch; ++b) {
        Kernel<T, V>::run(
            p, data + 2 * static_cast<std::ptrdiff_t>(b) * batch_stride, dir,
            scratch);
      }
      return;
    }
  }
  const bool inverse = dir == FftDirection::kInverse;
  const T inv_n = T(1) / static_cast<T>(p.n);
  for (std::size_t b0 = 0; b0 < batch; b0 += B) {
    const std::size_t lanes = batch - b0 < B ? batch - b0 : B;
    T* base = data + 2 * static_cast<std::ptrdiff_t>(b0) * batch_stride;
    gather_tile<T, B>(buf, base, p.n, stride, batch_stride, lanes, inverse);
    Kernel<T, V>::forward(p, tile, scratch);
    scatter_tile<T, B>(buf, base, p.n, stride, batch_stride, lanes, inverse,
                       inv_n);
  }
}

}  // namespace

}  // namespace lossyfft::fft_lanes
