#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "osc/schedule.hpp"

namespace lossyfft::osc {
namespace {

std::uint64_t flat80k(int, int) { return 80 * 1024; }

TEST(RingTargets, EveryRankTargetedExactlyOnce) {
  for (const auto& [p, gpn] : std::vector<std::pair<int, int>>{
           {12, 6}, {24, 6}, {7, 3}, {16, 4}, {5, 6}, {9, 2}}) {
    for (int me = 0; me < p; ++me) {
      const auto rounds = ring_targets(p, gpn, me);
      EXPECT_EQ(static_cast<int>(rounds.size()), ring_rounds(p, gpn));
      std::set<int> seen;
      for (const auto& r : rounds) {
        for (const int d : r) {
          EXPECT_TRUE(seen.insert(d).second) << "duplicate target " << d;
          EXPECT_GE(d, 0);
          EXPECT_LT(d, p);
        }
      }
      EXPECT_EQ(static_cast<int>(seen.size()), p) << "p=" << p << " me=" << me;
    }
  }
}

TEST(RingTargets, RoundJTargetsNodeAtDistanceJ) {
  const int p = 24, gpn = 6;
  for (int me = 0; me < p; ++me) {
    const auto rounds = ring_targets(p, gpn, me);
    const int my_node = me / gpn;
    for (std::size_t j = 0; j < rounds.size(); ++j) {
      for (const int d : rounds[j]) {
        EXPECT_EQ(d / gpn, (my_node + static_cast<int>(j)) %
                               ring_rounds(p, gpn));
      }
    }
  }
}

TEST(RingTargets, PermutationStaggersConcurrentSources) {
  // Within one round, the 6 sources of a node must start their put
  // sequences on 6 distinct destination processes.
  const int p = 24, gpn = 6;
  for (int j = 1; j < 4; ++j) {
    std::set<int> first_targets;
    for (int local = 0; local < gpn; ++local) {
      const int me = 6 + local;  // Node 1's sources.
      const auto rounds = ring_targets(p, gpn, me);
      first_targets.insert(rounds[static_cast<std::size_t>(j)].front());
    }
    EXPECT_EQ(first_targets.size(), static_cast<std::size_t>(gpn)) << j;
  }
}

TEST(RingSources, ExactInverseOfRingTargets) {
  // s appears in ring_sources(me)[j] exactly when me appears in
  // ring_targets(s)[j] — the property the PSCW exposure groups and the
  // per-round pipelined decode both rely on.
  for (const auto& [p, gpn] : std::vector<std::pair<int, int>>{
           {12, 6}, {24, 6}, {7, 3}, {16, 4}, {5, 6}, {9, 2}, {8, 1}}) {
    std::vector<std::vector<std::vector<int>>> targets;
    targets.reserve(static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) targets.push_back(ring_targets(p, gpn, s));
    for (int me = 0; me < p; ++me) {
      const auto sources = ring_sources(p, gpn, me);
      ASSERT_EQ(static_cast<int>(sources.size()), ring_rounds(p, gpn));
      std::set<int> seen;
      for (std::size_t j = 0; j < sources.size(); ++j) {
        for (const int s : sources[j]) {
          EXPECT_TRUE(seen.insert(s).second) << "duplicate source " << s;
          const auto& tj = targets[static_cast<std::size_t>(s)][j];
          EXPECT_NE(std::find(tj.begin(), tj.end(), me), tj.end())
              << "p=" << p << " gpn=" << gpn << " me=" << me << " j=" << j
              << " s=" << s;
        }
      }
      // Exhaustive: every rank sources exactly one round.
      EXPECT_EQ(static_cast<int>(seen.size()), p);
      // And the reverse inclusion: me in targets[s][j] => s in sources[j].
      for (int s = 0; s < p; ++s) {
        for (std::size_t j = 0; j < sources.size(); ++j) {
          const auto& tj = targets[static_cast<std::size_t>(s)][j];
          if (std::find(tj.begin(), tj.end(), me) != tj.end()) {
            const auto& sj = sources[j];
            EXPECT_NE(std::find(sj.begin(), sj.end(), s), sj.end())
                << "p=" << p << " gpn=" << gpn << " me=" << me << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(RingTargets, RejectsBadArguments) {
  EXPECT_THROW(ring_targets(4, 2, 4), Error);
  EXPECT_THROW(ring_rounds(0, 2), Error);
}

TEST(ScheduleLinear, OnePhaseAllPairs) {
  const auto s = schedule_linear(12, 6, flat80k);
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].messages.size(), 12u * 11u);
  EXPECT_EQ(s.semantics, netsim::Semantics::kTwoSided);
  EXPECT_FALSE(s.phase_barrier);
}

TEST(SchedulePairwise, PMinusOnePhasesOfPMessages) {
  const auto s = schedule_pairwise(8, 4, flat80k);
  ASSERT_EQ(s.phases.size(), 7u);
  for (const auto& ph : s.phases) EXPECT_EQ(ph.messages.size(), 8u);
}

TEST(ScheduleOscRing, PhaseCountEqualsNodes) {
  const auto s = schedule_osc_ring(24, 6, flat80k);
  EXPECT_EQ(s.phases.size(), 4u);
  EXPECT_EQ(s.semantics, netsim::Semantics::kOneSided);
  EXPECT_TRUE(s.phase_barrier);
}

TEST(Schedules, AllCarryTheSameTotalPayload) {
  const int p = 18, gpn = 6;
  const auto total = [](const netsim::Schedule& s) {
    std::uint64_t t = 0;
    for (const auto& ph : s.phases) {
      for (const auto& m : ph.messages) t += m.bytes;
    }
    return t;
  };
  const std::uint64_t expect =
      static_cast<std::uint64_t>(p) * (p - 1) * 80 * 1024;
  EXPECT_EQ(total(schedule_linear(p, gpn, flat80k)), expect);
  EXPECT_EQ(total(schedule_pairwise(p, gpn, flat80k)), expect);
  EXPECT_EQ(total(schedule_osc_ring(p, gpn, flat80k)), expect);
}

TEST(ScheduleOscRing, EachNodePairActiveInOneRound) {
  const int p = 24, gpn = 6;
  const auto s = schedule_osc_ring(p, gpn, flat80k);
  for (std::size_t j = 0; j < s.phases.size(); ++j) {
    for (const auto& m : s.phases[j].messages) {
      const int sn = m.src / gpn, dn = m.dst / gpn;
      EXPECT_EQ((dn - sn + 4) % 4, static_cast<int>(j));
    }
  }
}

TEST(ScheduleBruck, LogPhasesWithAggregatedPayload) {
  const std::uint64_t blk = 1024;
  const auto s = schedule_bruck(8, 4, blk);
  ASSERT_EQ(s.phases.size(), 3u);  // log2(8).
  // Every phase moves 4 blocks per rank for p=8.
  for (const auto& ph : s.phases) {
    ASSERT_EQ(ph.messages.size(), 8u);
    for (const auto& m : ph.messages) EXPECT_EQ(m.bytes, 4 * blk);
  }
}

TEST(Schedules, SkipZeroByteLanes) {
  const auto none = [](int, int) { return std::uint64_t{0}; };
  EXPECT_TRUE(schedule_linear(6, 6, none).phases[0].messages.empty());
  const auto s = schedule_osc_ring(12, 6, none);
  for (const auto& ph : s.phases) EXPECT_TRUE(ph.messages.empty());
}

}  // namespace
}  // namespace lossyfft::osc
