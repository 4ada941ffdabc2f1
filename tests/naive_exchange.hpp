// Test-only reference all-to-all: the simplest exchange every plan must
// match bit for bit. Each destination's block is encoded whole, sizes
// travel through minimpi::alltoall and bytes through minimpi::alltoallv,
// and each source's block is decoded whole — no chunks, windows, fused
// transport or persistent staging. A null codec trades the raw bytes.
// Counts and displacements are in doubles, as for osc::ExchangePlan.
// Returns the bytes this rank encoded, its self block included.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "compress/truncate.hpp"
#include "minimpi/alltoall.hpp"

namespace lossyfft {

inline std::uint64_t naive_exchange(minimpi::Comm& comm, CodecPtr codec,
                                    std::span<const double> send,
                                    std::span<const std::uint64_t> sc,
                                    std::span<const std::uint64_t> sd,
                                    std::span<double> recv,
                                    std::span<const std::uint64_t> rc,
                                    std::span<const std::uint64_t> rd) {
  if (!codec) codec = std::make_shared<IdentityCodec>();
  const auto p = static_cast<std::size_t>(comm.size());
  std::vector<std::uint64_t> ssize(p), soff(p), rsize(p), roff(p);
  std::vector<std::byte> out;
  for (std::size_t i = 0; i < p; ++i) {
    soff[i] = out.size();
    if (sc[i] == 0) continue;
    out.resize(soff[i] + codec->max_compressed_bytes(sc[i]));
    ssize[i] = codec->compress(send.subspan(sd[i], sc[i]),
                               std::span<std::byte>(out).subspan(soff[i]));
    out.resize(soff[i] + ssize[i]);
  }
  minimpi::alltoall(comm, std::as_bytes(std::span(ssize)),
                    std::as_writable_bytes(std::span(rsize)),
                    sizeof(std::uint64_t));
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < p; ++i) {
    roff[i] = total;
    total += rsize[i];
  }
  std::vector<std::byte> in(total);
  minimpi::alltoallv(comm, out, ssize, soff, in, rsize, roff);
  for (std::size_t i = 0; i < p; ++i) {
    if (rc[i] == 0) continue;
    codec->decompress(std::span<const std::byte>(in).subspan(roff[i], rsize[i]),
                      recv.subspan(rd[i], rc[i]));
  }
  return out.size();
}

}  // namespace lossyfft
