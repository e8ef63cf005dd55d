// Tests for the FeedbackAccess oracle the agent engine hands to algorithms:
// per-(round, ant, task) determinism, mask packing, the out-of-model demand
// accessor, and bit-equality of the round-hoisted stream with the full
// (seed, t, ant, j) derivation for every built-in model.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/algorithm.h"
#include "noise/adversarial.h"
#include "noise/correlated.h"
#include "noise/exact.h"
#include "noise/per_task.h"
#include "noise/sigmoid.h"
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

TEST(FeedbackAccess, RejectsMoreTasksThanAMaskHolds) {
  SigmoidFeedback fm(1.0);
  const std::vector<double> deficits(kMaxAgentTasks + 1, 0.0);
  const std::vector<Count> demands(kMaxAgentTasks + 1, Count{10});
  EXPECT_THROW(FeedbackAccess(fm, 1, deficits, demands, 5),
               std::invalid_argument);
}

}  // namespace
}  // namespace antalloc
