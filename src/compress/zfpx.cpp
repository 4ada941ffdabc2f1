#include "compress/zfpx.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "compress/bitio.hpp"
#include "compress/shard_frame.hpp"
#include "compress/simd.hpp"

namespace lossyfft {
namespace zfpx_detail {

// Reversible two-level Haar S-transform on 4 values. Floor shifts on
// negative operands are arithmetic (guaranteed in C++20), so the pair
// (fwd, inv) is exact for all int64 inputs that do not overflow; the
// magnitude growth is at most 4x per application.
void fwd_lift4(std::int64_t* p, std::size_t stride) {
  std::int64_t a = p[0], b = p[stride], c = p[2 * stride], d = p[3 * stride];
  const std::int64_t h0 = a - b, l0 = b + (h0 >> 1);
  const std::int64_t h1 = c - d, l1 = d + (h1 >> 1);
  const std::int64_t hh = l0 - l1, ll = l1 + (hh >> 1);
  p[0] = ll;
  p[stride] = hh;
  p[2 * stride] = h0;
  p[3 * stride] = h1;
}

void inv_lift4(std::int64_t* p, std::size_t stride) {
  const std::int64_t ll = p[0], hh = p[stride];
  const std::int64_t h0 = p[2 * stride], h1 = p[3 * stride];
  const std::int64_t l1 = ll - (hh >> 1), l0 = l1 + hh;
  const std::int64_t b = l0 - (h0 >> 1), a = b + h0;
  const std::int64_t d = l1 - (h1 >> 1), c = d + h1;
  p[0] = a;
  p[stride] = b;
  p[2 * stride] = c;
  p[3 * stride] = d;
}

std::uint64_t int_to_negabinary(std::int64_t x) {
  constexpr std::uint64_t kMask = 0xAAAAAAAAAAAAAAAAull;
  return (static_cast<std::uint64_t>(x) + kMask) ^ kMask;
}

std::int64_t negabinary_to_int(std::uint64_t u) {
  constexpr std::uint64_t kMask = 0xAAAAAAAAAAAAAAAAull;
  return static_cast<std::int64_t>((u ^ kMask) - kMask);
}

namespace {

// Quantized magnitudes are bounded by 2^55; after at most 6 lifting levels
// of <= 2x growth plus the negabinary mapping, no bit above this plane can
// be set.
constexpr int kTopPlane = 61;

// Encode the bit planes of `u[0..size)` (negabinary, sequency-ordered)
// most-significant first until `budget` bits are spent. `n_sig` tracks the
// prefix of coefficients already seen significant; planes are encoded as a
// verbatim prefix of n_sig bits followed by group-tested runs.
void encode_planes(const std::uint64_t* u, int size, int budget,
                   BitWriter& bw, int k_min = 0) {
  int n_sig = 0;
  for (int k = kTopPlane; k >= k_min && budget > 0; --k) {
    const int m = std::min(n_sig, budget);
    for (int i = 0; i < m; ++i) {
      bw.put_bit((u[i] >> k) & 1u);
      --budget;
    }
    if (budget == 0) break;
    int i = n_sig;
    while (i < size && budget > 0) {
      bool any = false;
      for (int j = i; j < size; ++j) any |= ((u[j] >> k) & 1u) != 0;
      bw.put_bit(any);
      --budget;
      if (!any || budget == 0) break;
      while (i < size && budget > 0) {
        const bool b = ((u[i] >> k) & 1u) != 0;
        bw.put_bit(b);
        --budget;
        ++i;
        if (b) {
          n_sig = i;
          break;
        }
      }
    }
  }
}

void decode_planes(std::uint64_t* u, int size, int budget, BitReader& br,
                   int k_min = 0) {
  std::fill(u, u + size, 0ull);
  int n_sig = 0;
  for (int k = kTopPlane; k >= k_min && budget > 0; --k) {
    const int m = std::min(n_sig, budget);
    for (int i = 0; i < m; ++i) {
      if (br.get_bit()) u[i] |= 1ull << k;
      --budget;
    }
    if (budget == 0) break;
    int i = n_sig;
    while (i < size && budget > 0) {
      const bool any = br.get_bit();
      --budget;
      if (!any || budget == 0) break;
      while (i < size && budget > 0) {
        const bool b = br.get_bit();
        --budget;
        if (b) u[i] |= 1ull << k;
        ++i;
        if (b) {
          n_sig = i;
          break;
        }
      }
    }
  }
}

// Scalar block transform, factored out of encode_block/decode_block so it
// dispatches alongside the plane coder: lifting along each dimension,
// sequency permute, negabinary map.
void fwd_transform(std::int64_t* q, int n, const int* perm,
                   std::uint64_t* u) {
  if (n == 4) {
    fwd_lift4(q, 1);
    for (int i = 0; i < 4; ++i) u[i] = int_to_negabinary(q[i]);
  } else if (n == 16) {
    for (int j = 0; j < 4; ++j) fwd_lift4(q + 4 * j, 1);
    for (int i = 0; i < 4; ++i) fwd_lift4(q + i, 4);
    for (int i = 0; i < 16; ++i) u[i] = int_to_negabinary(q[perm[i]]);
  } else {
    LFFT_ASSERT(n == 64);
    for (int k = 0; k < 4; ++k)
      for (int j = 0; j < 4; ++j) fwd_lift4(q + 4 * j + 16 * k, 1);
    for (int k = 0; k < 4; ++k)
      for (int i = 0; i < 4; ++i) fwd_lift4(q + i + 16 * k, 4);
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 4; ++i) fwd_lift4(q + i + 4 * j, 16);
    for (int i = 0; i < 64; ++i) u[i] = int_to_negabinary(q[perm[i]]);
  }
}

void inv_transform(const std::uint64_t* u, int n, const int* perm,
                   std::int64_t* q) {
  if (n == 4) {
    for (int i = 0; i < 4; ++i) q[i] = negabinary_to_int(u[i]);
    inv_lift4(q, 1);
  } else if (n == 16) {
    for (int i = 0; i < 16; ++i) q[perm[i]] = negabinary_to_int(u[i]);
    for (int i = 0; i < 4; ++i) inv_lift4(q + i, 4);
    for (int j = 0; j < 4; ++j) inv_lift4(q + 4 * j, 1);
  } else {
    LFFT_ASSERT(n == 64);
    for (int i = 0; i < 64; ++i) q[perm[i]] = negabinary_to_int(u[i]);
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 4; ++i) inv_lift4(q + i + 4 * j, 16);
    for (int k = 0; k < 4; ++k)
      for (int i = 0; i < 4; ++i) inv_lift4(q + i + 16 * k, 4);
    for (int k = 0; k < 4; ++k)
      for (int j = 0; j < 4; ++j) inv_lift4(q + 4 * j + 16 * k, 1);
  }
}

}  // namespace

void encode_block_ints(const std::int64_t* q, int size, int budget_bits,
                       std::span<std::byte> out) {
  std::vector<std::uint64_t> u(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) u[static_cast<std::size_t>(i)] =
      int_to_negabinary(q[i]);
  std::fill(out.begin(), out.end(), std::byte{0});
  BitWriter bw(out);
  encode_planes(u.data(), size, budget_bits, bw);
}

void decode_block_ints(std::span<const std::byte> in, int size,
                       int budget_bits, std::int64_t* q) {
  std::vector<std::uint64_t> u(static_cast<std::size_t>(size));
  BitReader br(in);
  decode_planes(u.data(), size, budget_bits, br);
  for (int i = 0; i < size; ++i) q[i] =
      negabinary_to_int(u[static_cast<std::size_t>(i)]);
}

}  // namespace zfpx_detail

namespace {

using zfpx_detail::fwd_lift4;
using zfpx_detail::int_to_negabinary;
using zfpx_detail::inv_lift4;
using zfpx_detail::negabinary_to_int;

constexpr int kQ = 55;
// Exponent marker for an all-zero block (dequantizes from q == 0 anyway).
constexpr int kZeroBlockExp = -16384;

// Block exponent of the max magnitude: smallest e with maxabs < 2^e.
int block_exponent(const double* v, int n) {
  double maxabs = 0.0;
  for (int i = 0; i < n; ++i) {
    LFFT_REQUIRE(std::isfinite(v[i]), "zfpx requires finite data");
    maxabs = std::max(maxabs, std::fabs(v[i]));
  }
  if (maxabs == 0.0) return kZeroBlockExp;
  int e = 0;
  std::frexp(maxabs, &e);
  return e;
}

void quantize(const double* v, int n, int e, std::int64_t* q) {
  if (e == kZeroBlockExp) {  // All-zero block; avoid an infinite scale.
    std::fill(q, q + n, std::int64_t{0});
    return;
  }
  const double scale = std::ldexp(1.0, kQ - e);
  for (int i = 0; i < n; ++i) q[i] = std::llround(v[i] * scale);
}

void dequantize(const std::int64_t* q, int n, int e, double* v) {
  if (e == kZeroBlockExp) {
    std::fill(v, v + n, 0.0);
    return;
  }
  const double scale = std::ldexp(1.0, e - kQ);
  for (int i = 0; i < n; ++i) v[i] = static_cast<double>(q[i]) * scale;
}

// Sequency permutation for 4x4 blocks (ordered by i+j).
const std::array<int, 16>& sequency_perm2d() {
  static const std::array<int, 16> perm = [] {
    std::array<int, 16> p{};
    int idx = 0;
    for (int s = 0; s <= 6; ++s) {
      for (int j = 0; j < 4; ++j) {
        for (int i = 0; i < 4; ++i) {
          if (i + j == s) p[static_cast<std::size_t>(idx++)] = i + 4 * j;
        }
      }
    }
    LFFT_ASSERT(idx == 16);
    return p;
  }();
  return perm;
}

// Sequency permutation for 4x4x4 blocks: coefficients ordered by total
// level i+j+k so the embedded coder sees large coefficients first.
const std::array<int, 64>& sequency_perm3d() {
  static const std::array<int, 64> perm = [] {
    std::array<int, 64> p{};
    int idx = 0;
    for (int s = 0; s <= 9; ++s) {
      for (int k = 0; k < 4; ++k) {
        for (int j = 0; j < 4; ++j) {
          for (int i = 0; i < 4; ++i) {
            if (i + j + k == s) p[static_cast<std::size_t>(idx++)] =
                i + 4 * (j + 4 * k);
          }
        }
      }
    }
    LFFT_ASSERT(idx == 64);
    return p;
  }();
  return perm;
}

// One encoded block: 2-byte exponent header + fixed-size payload.
std::size_t block_payload_bytes(int budget_bits) {
  return (static_cast<std::size_t>(budget_bits) + 7) / 8;
}

void encode_block(const double* values, int n, int budget_bits,
                  const int* perm, std::byte* out) {
  const int e = block_exponent(values, n);
  const auto he = static_cast<std::int16_t>(e);
  std::memcpy(out, &he, 2);

  std::int64_t q[64];
  quantize(values, n, e, q);

  const simd::ZfpxKernels& kern = simd::zfpx_kernels();
  std::uint64_t u[64];
  kern.fwd_transform(q, n, perm, u);

  std::span<std::byte> payload(out + 2, block_payload_bytes(budget_bits));
  std::fill(payload.begin(), payload.end(), std::byte{0});
  BitWriter bw(payload);
  kern.encode_planes(u, n, budget_bits, bw, 0);
}

void decode_block(const std::byte* in, int n, int budget_bits,
                  const int* perm, double* values) {
  std::int16_t he = 0;
  std::memcpy(&he, in, 2);
  const int e = he;

  const simd::ZfpxKernels& kern = simd::zfpx_kernels();
  std::uint64_t u[64];
  BitReader br(std::span<const std::byte>(in + 2,
                                          block_payload_bytes(budget_bits)));
  kern.decode_planes(u, n, budget_bits, br, 0);

  std::int64_t q[64];
  kern.inv_transform(u, n, perm, q);
  dequantize(q, n, e, values);
}

}  // namespace

// ----------------------------------------------------------------- 1-D API

Zfpx1dCodec::Zfpx1dCodec(int bits_per_value) : bits_per_value_(bits_per_value) {
  LFFT_REQUIRE(bits_per_value >= 2 && bits_per_value <= 64,
               "zfpx rate must be in [2, 64] bits/value");
}

std::string Zfpx1dCodec::name() const {
  return "zfpx1d(" + std::to_string(bits_per_value_) + "bpv)";
}

std::size_t Zfpx1dCodec::max_compressed_bytes(std::size_t n) const {
  const std::size_t blocks = (n + 3) / 4;
  return blocks * (2 + block_payload_bytes(bits_per_value_ * 4));
}

double Zfpx1dCodec::nominal_rate() const { return 64.0 / bits_per_value_; }

std::size_t Zfpx1dCodec::compress(std::span<const double> in,
                                  std::span<std::byte> out) const {
  LFFT_REQUIRE(out.size() >= max_compressed_bytes(in.size()),
               "zfpx1d: output too small");
  const int budget = bits_per_value_ * 4;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const std::size_t blocks = (in.size() + 3) / 4;
  for (std::size_t b = 0; b < blocks; ++b) {
    double block[4];
    for (int i = 0; i < 4; ++i) {
      const std::size_t src = std::min(in.size() - 1, b * 4 + i);
      block[i] = in.empty() ? 0.0 : in[src];  // Replicate the tail value.
    }
    encode_block(block, 4, budget, nullptr, out.data() + b * block_bytes);
  }
  return blocks * block_bytes;
}

void Zfpx1dCodec::decompress(std::span<const std::byte> in,
                             std::span<double> out) const {
  LFFT_REQUIRE(in.size() >= max_compressed_bytes(out.size()),
               "zfpx1d: input too small");
  const int budget = bits_per_value_ * 4;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const std::size_t blocks = (out.size() + 3) / 4;
  for (std::size_t b = 0; b < blocks; ++b) {
    double block[4];
    decode_block(in.data() + b * block_bytes, 4, budget, nullptr, block);
    for (int i = 0; i < 4 && b * 4 + i < out.size(); ++i) {
      out[b * 4 + i] = block[i];
    }
  }
}

// ----------------------------------------------- fixed-accuracy stream API

ZfpxAccuracyCodec::ZfpxAccuracyCodec(double abs_tol) : tol_(abs_tol) {
  LFFT_REQUIRE(abs_tol > 0.0 && std::isfinite(abs_tol),
               "zfpx accuracy mode needs a positive finite tolerance");
}

std::string ZfpxAccuracyCodec::name() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "zfpx-acc(%.1e)", tol_);
  return buf;
}

namespace {

// Lowest bit plane that must be encoded so the dropped tail (bounded by
// 2^(k_min+1) quantized units) times the <=4x inverse-lift growth stays
// below the tolerance. Returns kTopPlane+1 when the whole block is below
// the tolerance already.
int accuracy_k_min(double tol, int e) {
  if (e == kZeroBlockExp) return 62;  // Nothing to encode.
  const double quantized_tol = tol / std::ldexp(1.0, e - kQ);
  if (quantized_tol <= 16.0) return 0;  // Encode every plane.
  // From 2^66 up every plane is below the tolerance (k >= 62). Deciding
  // that before the int cast keeps an infinite ratio (a block exponent so
  // small the ldexp underflows; log2(inf) == inf) or a huge one from
  // overflowing it.
  const double planes = std::log2(quantized_tol);
  if (planes >= 66.0) return 62;
  return static_cast<int>(std::floor(planes)) - 4;
}

}  // namespace

std::size_t ZfpxAccuracyCodec::shard_payload_bound(std::size_t m) const {
  // Worst case per 4-block: 16-bit header + 62 planes x (<= 13 bits).
  return ((m + 3) / 4) * (2 + 104);
}

std::size_t ZfpxAccuracyCodec::max_compressed_bytes(std::size_t n) const {
  return framed_max_bytes(*this, n);
}

std::size_t ZfpxAccuracyCodec::compress_shard(std::span<const double> in,
                                              std::span<std::byte> out) const {
  // One shard is a self-contained run of 4-blocks (the tail block
  // replicates the shard's last element, so shard boundaries do not leak
  // across). BitWriter initializes every byte it touches, so no pre-fill.
  const simd::ZfpxKernels& kern = simd::zfpx_kernels();
  BitWriter bw(out);
  const std::size_t blocks = (in.size() + 3) / 4;
  for (std::size_t b = 0; b < blocks; ++b) {
    double block[4];
    for (int i = 0; i < 4; ++i) {
      const std::size_t src =
          std::min(in.size() - 1, b * 4 + static_cast<std::size_t>(i));
      block[i] = in.empty() ? 0.0 : in[src];
    }
    const int e = block_exponent(block, 4);
    bw.put(static_cast<std::uint16_t>(static_cast<std::int16_t>(e)), 16);
    const int k_min = accuracy_k_min(tol_, e);
    if (k_min > 61) continue;  // Whole block is below tolerance.

    std::int64_t q[4];
    quantize(block, 4, e, q);
    std::uint64_t u[4];
    kern.fwd_transform(q, 4, nullptr, u);
    kern.encode_planes(u, 4, 1 << 30, bw, k_min);
  }
  return (bw.bit_count() + 7) / 8;
}

void ZfpxAccuracyCodec::decompress_shard(std::span<const std::byte> in,
                                         std::span<double> out) const {
  const simd::ZfpxKernels& kern = simd::zfpx_kernels();
  BitReader br(in);
  const std::size_t blocks = (out.size() + 3) / 4;
  for (std::size_t b = 0; b < blocks; ++b) {
    const int e = static_cast<std::int16_t>(br.get(16));
    double block[4] = {0, 0, 0, 0};
    const int k_min = accuracy_k_min(tol_, e);
    if (k_min <= 61) {
      std::uint64_t u[4];
      kern.decode_planes(u, 4, 1 << 30, br, k_min);
      std::int64_t q[4];
      kern.inv_transform(u, 4, nullptr, q);
      dequantize(q, 4, e, block);
    }
    for (int i = 0; i < 4 && b * 4 + static_cast<std::size_t>(i) < out.size();
         ++i) {
      out[b * 4 + static_cast<std::size_t>(i)] = block[i];
    }
  }
}

std::size_t ZfpxAccuracyCodec::compress(std::span<const double> in,
                                        std::span<std::byte> out) const {
  return framed_compress(*this, in, out);
}

void ZfpxAccuracyCodec::decompress(std::span<const std::byte> in,
                                   std::span<double> out) const {
  framed_decompress(*this, in, out);
}

// ----------------------------------------------------------------- 2-D API

std::size_t Zfpx2d::compressed_bytes() const {
  const std::size_t bx = (static_cast<std::size_t>(nx) + 3) / 4;
  const std::size_t by = (static_cast<std::size_t>(ny) + 3) / 4;
  return bx * by * (2 + block_payload_bytes(bits_per_value * 16));
}

std::size_t Zfpx2d::compress(std::span<const double> field,
                             std::span<std::byte> out) const {
  LFFT_REQUIRE(field.size() == static_cast<std::size_t>(nx) * ny,
               "zfpx2d: field size mismatch");
  LFFT_REQUIRE(out.size() >= compressed_bytes(), "zfpx2d: output too small");
  const int budget = bits_per_value * 16;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const auto& perm = sequency_perm2d();
  const auto at = [&](int x, int y) {
    x = std::min(x, nx - 1);
    y = std::min(y, ny - 1);
    return field[static_cast<std::size_t>(x) +
                 static_cast<std::size_t>(nx) * static_cast<std::size_t>(y)];
  };
  std::size_t bidx = 0;
  for (int y0 = 0; y0 < ny; y0 += 4) {
    for (int x0 = 0; x0 < nx; x0 += 4) {
      double block[16];
      for (int j = 0; j < 4; ++j)
        for (int i = 0; i < 4; ++i) block[i + 4 * j] = at(x0 + i, y0 + j);
      encode_block(block, 16, budget, perm.data(),
                   out.data() + bidx * block_bytes);
      ++bidx;
    }
  }
  return bidx * block_bytes;
}

void Zfpx2d::decompress(std::span<const std::byte> in,
                        std::span<double> field) const {
  LFFT_REQUIRE(field.size() == static_cast<std::size_t>(nx) * ny,
               "zfpx2d: field size mismatch");
  LFFT_REQUIRE(in.size() >= compressed_bytes(), "zfpx2d: input too small");
  const int budget = bits_per_value * 16;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const auto& perm = sequency_perm2d();
  std::size_t bidx = 0;
  for (int y0 = 0; y0 < ny; y0 += 4) {
    for (int x0 = 0; x0 < nx; x0 += 4) {
      double block[16];
      decode_block(in.data() + bidx * block_bytes, 16, budget, perm.data(),
                   block);
      ++bidx;
      for (int j = 0; j < 4 && y0 + j < ny; ++j)
        for (int i = 0; i < 4 && x0 + i < nx; ++i)
          field[static_cast<std::size_t>(x0 + i) +
                static_cast<std::size_t>(nx) *
                    static_cast<std::size_t>(y0 + j)] = block[i + 4 * j];
    }
  }
}

// ----------------------------------------------------------------- 3-D API

std::size_t Zfpx3d::compressed_bytes() const {
  const std::size_t bx = (static_cast<std::size_t>(nx) + 3) / 4;
  const std::size_t by = (static_cast<std::size_t>(ny) + 3) / 4;
  const std::size_t bz = (static_cast<std::size_t>(nz) + 3) / 4;
  return bx * by * bz * (2 + block_payload_bytes(bits_per_value * 64));
}

std::size_t Zfpx3d::compress(std::span<const double> field,
                             std::span<std::byte> out) const {
  LFFT_REQUIRE(field.size() == static_cast<std::size_t>(nx) * ny * nz,
               "zfpx3d: field size mismatch");
  LFFT_REQUIRE(out.size() >= compressed_bytes(), "zfpx3d: output too small");
  const int budget = bits_per_value * 64;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const auto& perm = sequency_perm3d();
  const auto at = [&](int x, int y, int z) {
    x = std::min(x, nx - 1);
    y = std::min(y, ny - 1);
    z = std::min(z, nz - 1);
    return field[static_cast<std::size_t>(x) +
                 static_cast<std::size_t>(nx) *
                     (static_cast<std::size_t>(y) +
                      static_cast<std::size_t>(ny) * z)];
  };
  std::size_t bidx = 0;
  for (int z0 = 0; z0 < nz; z0 += 4) {
    for (int y0 = 0; y0 < ny; y0 += 4) {
      for (int x0 = 0; x0 < nx; x0 += 4) {
        double block[64];
        for (int k = 0; k < 4; ++k)
          for (int j = 0; j < 4; ++j)
            for (int i = 0; i < 4; ++i)
              block[i + 4 * (j + 4 * k)] = at(x0 + i, y0 + j, z0 + k);
        encode_block(block, 64, budget, perm.data(),
                     out.data() + bidx * block_bytes);
        ++bidx;
      }
    }
  }
  return bidx * block_bytes;
}

void Zfpx3d::decompress(std::span<const std::byte> in,
                        std::span<double> field) const {
  LFFT_REQUIRE(field.size() == static_cast<std::size_t>(nx) * ny * nz,
               "zfpx3d: field size mismatch");
  LFFT_REQUIRE(in.size() >= compressed_bytes(), "zfpx3d: input too small");
  const int budget = bits_per_value * 64;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const auto& perm = sequency_perm3d();
  std::size_t bidx = 0;
  for (int z0 = 0; z0 < nz; z0 += 4) {
    for (int y0 = 0; y0 < ny; y0 += 4) {
      for (int x0 = 0; x0 < nx; x0 += 4) {
        double block[64];
        decode_block(in.data() + bidx * block_bytes, 64, budget, perm.data(),
                     block);
        ++bidx;
        for (int k = 0; k < 4 && z0 + k < nz; ++k)
          for (int j = 0; j < 4 && y0 + j < ny; ++j)
            for (int i = 0; i < 4 && x0 + i < nx; ++i)
              field[static_cast<std::size_t>(x0 + i) +
                    static_cast<std::size_t>(nx) *
                        (static_cast<std::size_t>(y0 + j) +
                         static_cast<std::size_t>(ny) * (z0 + k))] =
                  block[i + 4 * (j + 4 * k)];
      }
    }
  }
}

namespace simd {

// The reference kernels ARE the scalar coder above: the dispatch table's
// scalar row points straight at them, so LOSSYFFT_SIMD=scalar runs exactly
// the code this file has always run.
ZfpxKernels scalar_zfpx_kernels() {
  return {&zfpx_detail::encode_planes, &zfpx_detail::decode_planes,
          &zfpx_detail::fwd_transform, &zfpx_detail::inv_transform};
}

}  // namespace simd

}  // namespace lossyfft
