#include "osc/osc_alltoall.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "netsim/model.hpp"

namespace lossyfft::osc {

int plan_pipeline_chunks(std::uint64_t payload_bytes, double rate) {
  const netsim::NetworkParams params;
  const double wire_sb = 1.0 / params.inter_bw;
  double best_t = 0.0;
  int best = 0;
  // Strict improvement keeps ties at fewer chunks (less per-chunk cost).
  for (int c = 1; c <= 64; c <<= 1) {
    const double t = netsim::pipeline_time(
        std::max<std::uint64_t>(payload_bytes, 1), std::max(rate, 1.0), c,
        wire_sb, params);
    if (best == 0 || t < best_t) {
      best_t = t;
      best = c;
    }
  }
  return best;
}

std::vector<std::uint64_t> chunk_partition(std::uint64_t count, int chunks) {
  LFFT_REQUIRE(chunks >= 1, "chunk_partition: need chunks >= 1");
  std::vector<std::uint64_t> sizes;
  if (count == 0) return sizes;
  // Even split rounded up to a multiple of 4 (zfpx block size); the tail
  // chunk absorbs the remainder.
  std::uint64_t per = (count + static_cast<std::uint64_t>(chunks) - 1) /
                      static_cast<std::uint64_t>(chunks);
  per = (per + 3) / 4 * 4;
  std::uint64_t done = 0;
  while (done < count) {
    const std::uint64_t c = std::min(per, count - done);
    sizes.push_back(c);
    done += c;
  }
  return sizes;
}

}  // namespace lossyfft::osc
