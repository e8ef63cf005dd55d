// ThresholdAgent runs its per-ant update in 64-ant tiles (algo/threshold.h):
// stimuli and thresholds stored task-major per tile, one tile body compiled
// for several ISAs. Every wrapper must reproduce the plain per-ant automaton
// bit for bit. The reference below is that automaton with its state in
// ant-major (AoS) cells c = i·k + j, one ant at a time; this file is built
// for the baseline ISA, which has no FMA, so its update rounds once per
// operation. Each round the tiles must write the same next[] and bit-equal
// stimuli.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "algo/threshold.h"
#include "noise/sigmoid.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"

namespace antalloc {
namespace {

constexpr std::size_t kLanes = FeedbackAccess::kLackBlock;

// The per-ant automaton as ThresholdAgent ran it before the tiles.
struct AosThreshold {
  ThresholdParams params;
  std::int32_t k = 0;
  std::vector<double> theta;  // n·k, cell i·k + j
  std::vector<double> s;      // n·k

  double& stim(std::size_t i, TaskId j) {
    return s[i * static_cast<std::size_t>(k) + static_cast<std::size_t>(j)];
  }
  double thr(std::size_t i, TaskId j) const {
    return theta[i * static_cast<std::size_t>(k) +
                 static_cast<std::size_t>(j)];
  }

  void step(std::uint64_t active, std::span<const std::uint64_t> lack,
            std::span<const TaskId> prev, std::span<TaskId> next) {
    for (std::size_t i = 0; i < prev.size(); ++i) {
      for (TaskId j = 0; j < k; ++j) {
        const double obs = ((lack[i] >> j) & 1) != 0 ? 1.0 : 0.0;
        double& sj = stim(i, j);
        sj += params.smoothing * (obs - sj);
      }
      const TaskId ct = prev[i];
      TaskId out = ct;
      if (ct == kIdle) {
        TaskId best = kIdle;
        double best_excess = 0.0;
        for (TaskId j = 0; j < k; ++j) {
          if (((active >> j) & 1) == 0) continue;
          const double excess = stim(i, j) - thr(i, j);
          if (excess > best_excess) {
            best_excess = excess;
            best = j;
          }
        }
        if (best != kIdle) out = best;
      } else if (stim(i, ct) < thr(i, ct) - params.hysteresis) {
        out = kIdle;
      }
      next[i] = out;
    }
  }
};

// The colony ThresholdAgent::reset(n, k, ..., seed) draws, in AoS cells.
AosThreshold reference_colony(const ThresholdParams& params, Count n,
                              std::int32_t k, std::uint64_t seed) {
  AosThreshold ref{.params = params, .k = k};
  const auto cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
  for (std::size_t c = 0; c < cells; ++c) {
    rng::Xoshiro256 gen(rng::hash_combine(seed ^ 0x7e57u, c));
    ref.theta.push_back(params.threshold_lo +
                        gen.uniform() *
                            (params.threshold_hi - params.threshold_lo));
  }
  ref.s.assign(cells, 0.5);
  return ref;
}

struct NamedTile {
  std::string name;
  ThresholdTileFn tile;
  bool supported;
};

std::vector<NamedTile> every_tile() {
  std::vector<NamedTile> tiles = {{"base", threshold_tile_base, true}};
#if defined(__x86_64__) || defined(_M_X64)
  tiles.push_back({"v4", threshold_tile_v4,
                   __builtin_cpu_supports("x86-64-v4") != 0});
  tiles.push_back({"v3", threshold_tile_v3,
                   __builtin_cpu_supports("x86-64-v3") != 0});
#endif
  return tiles;
}

void PrintTo(const NamedTile& tile, std::ostream* os) { *os << tile.name; }

class ThresholdTileTest : public ::testing::TestWithParam<NamedTile> {
 protected:
  void SetUp() override {
    if (!GetParam().supported) {
      GTEST_SKIP() << "CPU lacks the " << GetParam().name << " ISA";
    }
  }
};

constexpr std::int32_t kTaskCounts[] = {1, 3, 4, 17, 64};
constexpr Count kColonySizes[] = {1, 63, 64, 65, 300};

// The tasks that go dormant mid-run: every third one, or the only one.
std::uint64_t partly_dormant(std::int32_t k) {
  std::uint64_t mask = 0;
  for (std::int32_t j = 0; j < k; ++j) {
    if (k > 1 && j % 3 != 1) mask |= std::uint64_t{1} << j;
  }
  return mask;
}

// A full ThresholdAgent against the reference through the agent's own block
// draw, under grey-zone sigmoid noise (lack probabilities 0.12–0.88 that
// move every round), from a colony of idle and working ants. Rounds 13–24
// put some tasks dormant while stale stimuli still exceed thresholds, then
// every task is active again.
TEST_P(ThresholdTileTest, AgentMatchesPerAntAutomatonBitForBit) {
  const ThresholdTileFn tile = GetParam().tile;
  const ThresholdParams params{};
  SigmoidFeedback fm(0.1);
  for (const std::int32_t k : kTaskCounts) {
    for (const Count n : kColonySizes) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      const std::uint64_t seed = 17 + static_cast<std::uint64_t>(k * 1000 + n);
      const auto nu = static_cast<std::size_t>(n);
      std::vector<TaskId> prev(nu);
      for (std::size_t i = 0; i < nu; ++i) {
        prev[i] = i % 3 == 0 ? kIdle : static_cast<TaskId>((i * 7) % k);
      }
      ThresholdAgent agent(params);
      agent.reset(n, k, prev, seed);
      AosThreshold ref = reference_colony(params, n, k, seed);
      for (std::size_t i = 0; i < nu; ++i) {
        for (TaskId j = 0; j < k; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(agent.threshold(
                        static_cast<std::int64_t>(i), j)),
                    std::bit_cast<std::uint64_t>(ref.thr(i, j)))
              << "threshold of ant " << i << " task " << j;
        }
      }

      std::vector<TaskId> next(nu, kIdle);
      std::vector<TaskId> ref_next(nu, kIdle);
      std::vector<std::uint64_t> lack(nu);
      std::vector<double> deficits(static_cast<std::size_t>(k));
      const std::vector<Count> demands(static_cast<std::size_t>(k), 100);
      std::int64_t joins = 0;
      std::int64_t leaves = 0;
      for (Round t = 1; t <= 36; ++t) {
        for (std::int32_t j = 0; j < k; ++j) {
          deficits[static_cast<std::size_t>(j)] =
              static_cast<double>((j * 5 + t * 3) % 41 - 20);
        }
        const std::uint64_t active =
            t > 12 && t <= 24 ? partly_dormant(k) : ~0ull;
        const FeedbackAccess fb(fm, t, deficits, demands, seed, active);
        for (std::size_t i = 0; i < nu; ++i) {
          lack[i] = fb.sample_lack_mask(static_cast<std::int64_t>(i));
        }
        agent.step_with(tile, fb, prev, next);
        ref.step(active, lack, prev, ref_next);
        for (std::size_t i = 0; i < nu; ++i) {
          ASSERT_EQ(next[i], ref_next[i]) << "t=" << t << " ant " << i;
          joins += prev[i] == kIdle && next[i] != kIdle;
          leaves += prev[i] != kIdle && next[i] == kIdle;
          for (TaskId j = 0; j < k; ++j) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(
                          agent.stimulus(static_cast<std::int64_t>(i), j)),
                      std::bit_cast<std::uint64_t>(ref.stim(i, j)))
                << "t=" << t << " stimulus of ant " << i << " task " << j;
          }
        }
        // Keep idle and working ants mixed: move a few ants each round.
        prev = next;
        for (std::size_t i = 0; i < nu; ++i) {
          if ((i * 13 + static_cast<std::size_t>(t)) % 11 == 0) {
            prev[i] = static_cast<TaskId>(
                          (i + static_cast<std::size_t>(t)) %
                          static_cast<std::size_t>(k + 1)) -
                      1;
          }
        }
      }
      if (n >= 64) {
        EXPECT_GT(joins, 0);
        EXPECT_GT(leaves, 0);
      }
    }
  }
}

// One tile on exactly representable values, smoothing 1/2: stimuli and
// thresholds on a grid of eighths, so an idle ant's best excess is often
// exactly 0 (it must stay idle) or tied between tasks (the lowest one
// wins), and a working ant's stimulus often sits exactly at θ − h (it
// stays). The tile is filled as ThresholdTile documents: task j's ants at
// [j·64, j·64 + 64).
TEST_P(ThresholdTileTest, TileMatchesPerAntAutomatonOnTiesAndEdges) {
  const ThresholdTileFn tile = GetParam().tile;
  const ThresholdParams params{.smoothing = 0.5, .hysteresis = 0.25};
  rng::Xoshiro256 gen(5);
  std::int64_t ties = 0;
  std::int64_t zero_excess = 0;
  for (const std::int32_t k : kTaskCounts) {
    const auto ku = static_cast<std::size_t>(k);
    for (const std::size_t len : {std::size_t{1}, std::size_t{37}, kLanes}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " len=" + std::to_string(len));
      for (int trial = 0; trial < 20; ++trial) {
        AosThreshold ref{.params = params, .k = k};
        std::vector<double> soa_theta(ku * kLanes, 0.75);
        std::vector<double> soa_s(ku * kLanes, 0.5);
        std::vector<std::uint64_t> lack(len);
        std::vector<TaskId> prev(len);
        for (std::size_t a = 0; a < len; ++a) {
          lack[a] = gen();
          prev[a] = gen.uniform_below(2) == 0
                        ? kIdle
                        : static_cast<TaskId>(gen.uniform_below(ku));
          for (std::size_t j = 0; j < ku; ++j) {
            const double theta =
                0.5 + 0.125 * static_cast<double>(gen.uniform_below(3));
            const double s = 0.25 * static_cast<double>(gen.uniform_below(5));
            ref.theta.push_back(theta);
            ref.s.push_back(s);
            soa_theta[j * kLanes + a] = theta;
            soa_s[j * kLanes + a] = s;
          }
        }
        const std::uint64_t recruiting = gen() | (k == 1 ? 1 : 0);
        std::vector<TaskId> next(len, -2);
        std::vector<TaskId> ref_next(len, -2);
        tile({.lack = lack,
              .prev = prev,
              .next = next,
              .stimulus = soa_s.data(),
              .threshold = soa_theta.data(),
              .k = k,
              .recruiting = recruiting,
              .smoothing = params.smoothing,
              .hysteresis = params.hysteresis});
        ref.step(recruiting, lack, prev, ref_next);
        for (std::size_t a = 0; a < len; ++a) {
          ASSERT_EQ(next[a], ref_next[a]) << "trial " << trial << " ant " << a;
          double top = 0.0;
          int at_top = 0;
          for (TaskId j = 0; j < k; ++j) {
            const auto ju = static_cast<std::size_t>(j);
            ASSERT_EQ(soa_s[ju * kLanes + a], ref.stim(a, j))
                << "trial " << trial << " stimulus of ant " << a << " task "
                << j;
            if (((recruiting >> j) & 1) == 0) continue;
            const double excess = ref.stim(a, j) - ref.thr(a, j);
            if (excess > top) {
              top = excess;
              at_top = 1;
            } else if (excess == top) {
              ++at_top;
            }
          }
          if (prev[a] == kIdle) {
            ties += top > 0.0 && at_top > 1;
            zero_excess += top == 0.0 && at_top > 0;
          }
        }
      }
    }
  }
  // The grid must actually produce the edge cases this test is about.
  EXPECT_GT(ties, 100);
  EXPECT_GT(zero_excess, 100);
}

INSTANTIATE_TEST_SUITE_P(Wrappers, ThresholdTileTest,
                         ::testing::ValuesIn(every_tile()),
                         [](const ::testing::TestParamInfo<NamedTile>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace antalloc
