// Tests for the FeedbackAccess oracle the agent engine hands to algorithms:
// per-(round, ant, task) determinism, mask packing, the out-of-model demand
// accessor, bit-equality of the round-hoisted stream with the full
// (seed, t, ant, j) derivation for every built-in model, and bit-equality of
// the block draw with the per-ant one through every SIMD lane and the
// fallback loop, which hash only the cells whose outcome is uncertain.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo/algorithm.h"
#include "noise/adversarial.h"
#include "noise/correlated.h"
#include "noise/exact.h"
#include "noise/per_task.h"
#include "noise/sigmoid.h"
#include "rng/lack_lane.h"
#include "rng/splitmix.h"

namespace antalloc {
namespace {

TEST(FeedbackAccess, SameCellSameDraw) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{0.0, 0.0};  // fair coins
  const std::vector<Count> demands{Count{100}, Count{100}};
  const FeedbackAccess fb(fm, 7, deficits, demands, 99);
  for (int ant = 0; ant < 50; ++ant) {
    for (TaskId j = 0; j < 2; ++j) {
      EXPECT_EQ(fb.sample(ant, j), fb.sample(ant, j));
    }
  }
}

TEST(FeedbackAccess, CellsAreIndependentAcrossCoordinates) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{0.0};
  const std::vector<Count> demands{Count{100}};
  const FeedbackAccess r1(fm, 1, deficits, demands, 99);
  const FeedbackAccess r2(fm, 2, deficits, demands, 99);
  // At a fair coin, 64 ants agreeing across two rounds is a 2^-64 event.
  int agreements = 0;
  for (int ant = 0; ant < 64; ++ant) {
    if (r1.sample(ant, 0) == r2.sample(ant, 0)) ++agreements;
  }
  EXPECT_GT(agreements, 0);
  EXPECT_LT(agreements, 64);
}

TEST(FeedbackAccess, SeedChangesDraws) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{0.0};
  const std::vector<Count> demands{Count{100}};
  const FeedbackAccess a(fm, 1, deficits, demands, 1);
  const FeedbackAccess b(fm, 1, deficits, demands, 2);
  int diffs = 0;
  for (int ant = 0; ant < 200; ++ant) {
    if (a.sample(ant, 0) != b.sample(ant, 0)) ++diffs;
  }
  EXPECT_GT(diffs, 50);
}

TEST(FeedbackAccess, MaskMatchesPerTaskSamples) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{5.0, -5.0, 0.0};
  const std::vector<Count> demands{Count{100}, Count{100}, Count{100}};
  const FeedbackAccess fb(fm, 3, deficits, demands, 17);
  for (int ant = 0; ant < 30; ++ant) {
    const std::uint64_t mask = fb.sample_lack_mask(ant);
    for (TaskId j = 0; j < 3; ++j) {
      const bool bit = (mask >> j) & 1;
      EXPECT_EQ(bit, fb.sample(ant, j) == Feedback::kLack)
          << "ant " << ant << " task " << j;
    }
    EXPECT_EQ(mask >> 3, 0u);  // no stray bits
  }
}

TEST(FeedbackAccess, ExactFeedbackMaskIsDeterministic) {
  ExactFeedback fm;
  const std::vector<double> deficits{1.0, -1.0};
  const std::vector<Count> demands{Count{10}, Count{10}};
  const FeedbackAccess fb(fm, 1, deficits, demands, 5);
  for (int ant = 0; ant < 10; ++ant) {
    EXPECT_EQ(fb.sample_lack_mask(ant), 0b01u);
  }
}

TEST(FeedbackAccess, DemandAccessor) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits{0.0, 0.0};
  const std::vector<Count> demands{Count{123}, Count{456}};
  const FeedbackAccess fb(fm, 1, deficits, demands, 5);
  EXPECT_EQ(fb.num_tasks(), 2);
  EXPECT_EQ(fb.demand(0), 123);
  EXPECT_EQ(fb.demand(1), 456);
}

// The derivation FeedbackAccess hoists, spelled out in full per cell:
// hash_words(seed, t, ant, j) -> Xoshiro256 -> FeedbackModel::sample.
Feedback reference_sample(const FeedbackModel& fm, Round t,
                          std::span<const double> deficits,
                          std::span<const Count> demands, std::uint64_t seed,
                          std::uint64_t active_mask, std::int64_t ant,
                          TaskId j) {
  if (((active_mask >> j) & 1) == 0) return Feedback::kOverload;
  const auto ju = static_cast<std::size_t>(j);
  rng::Xoshiro256 gen(rng::hash_words(seed, static_cast<std::uint64_t>(t),
                                      static_cast<std::uint64_t>(ant),
                                      static_cast<std::uint64_t>(j)));
  return fm.sample(t, j, ant, deficits[ju], static_cast<double>(demands[ju]),
                   gen);
}

struct NamedModel {
  std::string name;
  bool samples_marginal;
  std::function<std::unique_ptr<FeedbackModel>(std::int32_t k)> make;
};

std::vector<NamedModel> every_builtin_model() {
  std::vector<NamedModel> models;
  models.push_back({"sigmoid", true, [](std::int32_t) {
                      return std::make_unique<SigmoidFeedback>(0.3);
                    }});
  models.push_back({"per-task-sigmoid", true, [](std::int32_t k) {
                      std::vector<double> lambdas;
                      for (std::int32_t j = 0; j < k; ++j) {
                        lambdas.push_back(0.05 + 0.1 * (j % 7));
                      }
                      return std::make_unique<PerTaskSigmoidFeedback>(lambdas);
                    }});
  models.push_back({"exact", true, [](std::int32_t) {
                      return std::make_unique<ExactFeedback>();
                    }});
  for (const std::string& adversary : adversary_names()) {
    models.push_back({"adversarial/" + adversary, true,
                      [adversary](std::int32_t) {
                        return std::make_unique<AdversarialFeedback>(
                            0.1, make_named_adversary(adversary, 0.1));
                      }});
  }
  models.push_back({"correlated", false, [](std::int32_t) {
                      return std::make_unique<CorrelatedFeedback>(
                          std::make_shared<SigmoidFeedback>(0.3), 0.5);
                    }});
  return models;
}

TEST(FeedbackAccess, HoistedStreamEqualsFullDerivationForEveryModel) {
  const std::vector<std::int64_t> ants = {
      0, 1, 2, 3, 17, 255, 4096, 65'537, (std::int64_t{1} << 32) + 5,
      (std::int64_t{1} << 40) - 1, std::int64_t{1} << 40};
  const std::vector<Round> rounds = {1, 2, 3, 999, 1'000'000};
  for (const NamedModel& named : every_builtin_model()) {
    for (const std::int32_t k : {1, 4, 64}) {
      SCOPED_TRACE(named.name + " k=" + std::to_string(k));
      const auto model = named.make(k);
      EXPECT_EQ(model->samples_marginal(), named.samples_marginal);
      // Deficits spanning both signs, zero and the adversarial grey zone
      // (|deficit| <= 0.1 * 100), against demand 100.
      std::vector<double> deficits;
      std::vector<Count> demands;
      for (std::int32_t j = 0; j < k; ++j) {
        deficits.push_back(static_cast<double>((j * 7) % 41 - 20));
        demands.push_back(Count{100});
      }
      // All active, then some dormant tasks (bit j clear = dormant).
      const std::uint64_t all = k == 64 ? ~0ull : (1ull << k) - 1;
      const std::uint64_t some_dormant =
          all & std::uint64_t{0xA5A5'5A5A'F0F0'0F0A};
      for (const std::uint64_t mask : {all, some_dormant}) {
        for (const Round t : rounds) {
          for (const std::uint64_t seed :
               {std::uint64_t{7}, ~std::uint64_t{0}}) {
            rng::Xoshiro256 model_gen(rng::hash_combine(seed, 0xB0u));
            model->begin_round(t, deficits, demands, model_gen);
            const FeedbackAccess fb(*model, t, deficits, demands, seed, mask);
            for (const std::int64_t ant : ants) {
              std::uint64_t expected_mask = 0;
              for (TaskId j = 0; j < k; ++j) {
                const Feedback ref = reference_sample(
                    *model, t, deficits, demands, seed, mask, ant, j);
                ASSERT_EQ(fb.sample(ant, j), ref)
                    << "t=" << t << " seed=" << seed << " ant=" << ant
                    << " j=" << j;
                if (ref == Feedback::kLack) expected_mask |= 1ull << j;
              }
              ASSERT_EQ(fb.sample_lack_mask(ant), expected_mask)
                  << "t=" << t << " seed=" << seed << " ant=" << ant;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Block draws: every lane must give sample_lack_mask's bits.
// ---------------------------------------------------------------------------

struct NamedLane {
  std::string name;
  rng::LackLane lane;  // nullptr = the per-ant fallback loop
  bool supported;
};

std::vector<NamedLane> every_lane() {
  std::vector<NamedLane> lanes = {{"fallback", nullptr, true}};
#if defined(__x86_64__) || defined(_M_X64)
  lanes.push_back({"v4", rng::lack_lane_v4,
                   __builtin_cpu_supports("x86-64-v4") != 0});
  lanes.push_back({"v3", rng::lack_lane_v3,
                   __builtin_cpu_supports("x86-64-v3") != 0});
#endif
  return lanes;
}

void PrintTo(const NamedLane& lane, std::ostream* os) { *os << lane.name; }

class LackLaneTest : public ::testing::TestWithParam<NamedLane> {
 protected:
  void SetUp() override {
    if (!GetParam().supported) {
      GTEST_SKIP() << "CPU lacks the " << GetParam().name << " lane";
    }
  }
};

TEST_P(LackLaneTest, BlockDrawEqualsPerAntMaskForEveryModel) {
  const rng::LackLane lane = GetParam().lane;
  // (first ant, block length): lengths around the 64-ant block, first ants
  // near 2^40.
  const std::int64_t far = std::int64_t{1} << 40;
  const std::vector<std::pair<std::int64_t, std::size_t>> blocks = {
      {0, 4096},      {3, 1},        {100, 7},
      {far - 63, 63}, {far - 1, 64}, {far + 5, 65}};
  const std::vector<Round> rounds = {1, 1'000'000};
  rng::Xoshiro256 want_gen(31);
  std::vector<std::uint64_t> out;
  std::vector<std::uint64_t> want;
  for (const NamedModel& named : every_builtin_model()) {
    for (const std::int32_t k : {1, 4, 8, 64}) {
      SCOPED_TRACE(named.name + " k=" + std::to_string(k));
      const auto model = named.make(k);
      std::vector<double> deficits;
      std::vector<Count> demands;
      for (std::int32_t j = 0; j < k; ++j) {
        deficits.push_back(static_cast<double>((j * 7) % 41 - 20));
        demands.push_back(Count{100});
      }
      const std::uint64_t all = k == 64 ? ~0ull : (1ull << k) - 1;
      const std::uint64_t some_dormant =
          all & std::uint64_t{0xA5A5'5A5A'F0F0'0F0A};
      for (const std::uint64_t mask : {all, some_dormant, ~std::uint64_t{0}}) {
        for (const Round t : rounds) {
          const std::uint64_t seed = 0x5EED + static_cast<std::uint64_t>(t);
          rng::Xoshiro256 model_gen(rng::hash_combine(seed, 0xB0u));
          model->begin_round(t, deficits, demands, model_gen);
          const FeedbackAccess fb(*model, t, deficits, demands, seed, mask);
          for (const auto& [first, len] : blocks) {
            out.assign(len, 0xDEAD);
            fb.sample_lack_masks(first, std::vector<std::uint64_t>(len, ~0ull),
                                 out, lane);
            for (std::size_t a = 0; a < len; ++a) {
              const std::int64_t ant = first + static_cast<std::int64_t>(a);
              ASSERT_EQ(out[a], fb.sample_lack_mask(ant))
                  << "t=" << t << " ant=" << ant << " len=" << len;
            }
            // Wants of a mixed block (everything, nothing, one task, bits
            // past k, random); of a working colony (one task each, one idle
            // ant in 23, so short blocks hold no idle ant at all); and of
            // idle ants that each want their own set of several tasks.
            const auto one_task = [&](std::size_t a) {
              return 1ull << (a % static_cast<std::size_t>(k));
            };
            for (const int shape : {0, 1, 2}) {
              want.resize(len);
              for (std::size_t a = 0; a < len; ++a) {
                const std::uint64_t mixed[] = {~0ull, 0, one_task(a), ~all,
                                               want_gen()};
                want[a] = shape == 0   ? mixed[a % 5]
                          : shape == 1 ? (a % 23 == 22 ? ~0ull : one_task(a))
                                       : want_gen() | 0b11;
              }
              std::vector<std::uint64_t> wanted(len, 0xBEEF);
              fb.sample_lack_masks(first, want, wanted, lane);
              for (std::size_t a = 0; a < len; ++a) {
                const std::int64_t ant = first + static_cast<std::int64_t>(a);
                ASSERT_EQ(wanted[a], fb.sample_lack_mask(ant) & want[a])
                    << "t=" << t << " ant=" << ant << " want=" << want[a]
                    << " shape=" << shape;
              }
            }
          }
        }
      }
    }
  }
}

// A marginal model whose lack probability for task j is a fixed p_j.
class FixedProbabilities final : public FeedbackModel {
 public:
  explicit FixedProbabilities(std::vector<double> ps) : ps_(std::move(ps)) {}
  std::string_view name() const override { return "fixed"; }
  double lack_probability(Round, TaskId j, double, double) const override {
    return ps_[static_cast<std::size_t>(j)];
  }
  bool samples_marginal() const override { return true; }

 private:
  std::vector<double> ps_;
};

// Probabilities at the edges of the integer threshold, against the float
// compare the threshold replaces: Xoshiro256(cell seed).uniform() < p. Tasks
// 0 and 3-6 are certain (threshold 0 or 2^53), so the block draw sets their
// bits without hashing; 1 and 2 sit one step inside the edges.
TEST_P(LackLaneTest, BlockDrawMatchesUniformCompareAtEdgeProbabilities) {
  const std::vector<double> ps = {0.0,
                                  0x1p-53,
                                  std::nextafter(1.0, 0.0),
                                  1.0,
                                  1.5,
                                  -0.5,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  0.5,
                                  0.3};
  const std::vector<std::size_t> certain = {0, 3, 4, 5, 6};
  FixedProbabilities fm(ps);
  const std::vector<double> deficits(ps.size(), 0.0);
  const std::vector<Count> demands(ps.size(), Count{1});
  const std::uint64_t seed = 123;
  const Round t = 45;
  const FeedbackAccess fb(fm, t, deficits, demands, seed);
  const auto uniform_compare = [&](std::uint64_t ant) {
    std::uint64_t expected = 0;
    for (std::size_t j = 0; j < ps.size(); ++j) {
      rng::Xoshiro256 gen(
          rng::hash_words(seed, static_cast<std::uint64_t>(t), ant, j));
      if (gen.uniform() < ps[j]) expected |= 1ull << j;
    }
    return expected;
  };
  // (first ant, block length): one long run across many blocks, then short
  // and odd-length blocks.
  const std::int64_t far = std::int64_t{1} << 40;
  const std::vector<std::pair<std::int64_t, std::size_t>> blocks = {
      {far - 500, 1000}, {3, 1}, {100, 7}, {far - 63, 63}, {far + 5, 65}};
  const std::uint64_t all = (1ull << ps.size()) - 1;
  rng::Xoshiro256 want_gen(47);
  std::vector<std::uint64_t> want;
  for (const auto& [first, len] : blocks) {
    // Wants: everything; a mixed block (everything, nothing, one task, bits
    // past k, random); one task each; idle ants wanting several tasks; and
    // only certain tasks, one or all of them, so no cell is hashed.
    for (const int shape : {0, 1, 2, 3, 4}) {
      SCOPED_TRACE("first=" + std::to_string(first) +
                   " len=" + std::to_string(len) +
                   " shape=" + std::to_string(shape));
      want.resize(len);
      for (std::size_t a = 0; a < len; ++a) {
        const std::uint64_t one_task = 1ull << (a % ps.size());
        const std::uint64_t mixed[] = {~0ull, 0, one_task, ~all, want_gen()};
        std::uint64_t only_certain = 0;
        for (const std::size_t j : certain) only_certain |= 1ull << j;
        if (a % 2 == 0) only_certain = 1ull << certain[a % certain.size()];
        want[a] = shape == 0   ? ~0ull
                  : shape == 1 ? mixed[a % 5]
                  : shape == 2 ? one_task
                  : shape == 3 ? want_gen() | 0b11
                               : only_certain;
      }
      std::vector<std::uint64_t> out(len, 0xDEAD);
      fb.sample_lack_masks(first, want, out, GetParam().lane);
      for (std::size_t a = 0; a < len; ++a) {
        const auto ant = static_cast<std::uint64_t>(first) + a;
        ASSERT_EQ(out[a], uniform_compare(ant) & want[a])
            << "ant " << ant << " want " << want[a];
      }
    }
  }
}

TEST_P(LackLaneTest, RejectsWantAndOutOfDifferentSizes) {
  SigmoidFeedback fm(0.3);
  const std::vector<double> deficits{1.0, -1.0};
  const std::vector<Count> demands(2, Count{10});
  const FeedbackAccess fb(fm, 1, deficits, demands, 5);
  std::vector<std::uint64_t> out(65);
  for (const std::size_t len : {0, 1, 64, 66}) {
    EXPECT_THROW(fb.sample_lack_masks(0, std::vector<std::uint64_t>(len, ~0ull),
                                      out, GetParam().lane),
                 std::invalid_argument)
        << "want of " << len;
  }
}

// The tasks handed to recording_lane since the last reset.
std::uint64_t lane_tasks_seen = 0;

// A lane that records which tasks it was asked to draw and draws none.
void recording_lane(const rng::LackStream& stream, std::uint64_t,
                    std::span<const std::uint64_t>,
                    std::span<std::uint64_t> out) {
  lane_tasks_seen |= stream.tasks;
  std::fill(out.begin(), out.end(), 0);
}

// Certain tasks never reach a lane: the block draw sets their bits itself.
TEST(FeedbackAccess, OnlyUncertainTasksReachTheLane) {
  FixedProbabilities fm({1.0, 0.5, 0.0, 1.0, 0.25});
  const std::vector<double> deficits(5, 0.0);
  const std::vector<Count> demands(5, Count{1});
  // Task 4 is dormant; 0 and 3 always lack, 2 never does.
  const FeedbackAccess fb(fm, 3, deficits, demands, 9, 0b01111);
  std::vector<std::uint64_t> out(130);
  fb.sample_lack_masks(0, std::vector<std::uint64_t>(out.size(), ~0ull), out,
                       recording_lane);
  EXPECT_EQ(lane_tasks_seen, 0b00010u);
  for (const std::uint64_t mask : out) EXPECT_EQ(mask, 0b01001u);
}

INSTANTIATE_TEST_SUITE_P(
    Lanes, LackLaneTest, ::testing::ValuesIn(every_lane()),
    [](const ::testing::TestParamInfo<NamedLane>& info) {
      return info.param.name;
    });

TEST(FeedbackAccess, ForEachLackMaskVisitsEveryAntInOrder) {
  SigmoidFeedback fm(0.3);
  const std::vector<double> deficits{3.0, -2.0, 0.0, 8.0};
  const std::vector<Count> demands(4, Count{50});
  const FeedbackAccess fb(fm, 9, deficits, demands, 4, 0b1011);
  for (const std::int64_t n : {0, 1, 63, 64, 65, 200}) {
    std::int64_t next = 0;
    fb.for_each_lack_mask(
        n, [](std::int64_t i) { return i % 3 == 0 ? ~0ull : 1ull << (i % 4); },
        [&](std::int64_t i, std::uint64_t lack) {
          ASSERT_EQ(i, next++);
          const std::uint64_t want = i % 3 == 0 ? ~0ull : 1ull << (i % 4);
          ASSERT_EQ(lack, fb.sample_lack_mask(i) & want) << "ant " << i;
        });
    EXPECT_EQ(next, n);
  }
}

TEST(FeedbackAccess, RejectsMoreTasksThanAMaskHolds) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits(kMaxAgentTasks + 1, 0.0);
  const std::vector<Count> demands(kMaxAgentTasks + 1, Count{10});
  EXPECT_THROW(FeedbackAccess(fm, 1, deficits, demands, 5),
               std::invalid_argument);
}

}  // namespace
}  // namespace antalloc
