// The agent engine's block draw skips the hash of a feedback cell whose
// threshold already fixes it (lack probability exactly 0 or 1). These tests
// run each agent algorithm that draws through
// FeedbackAccess::for_each_lack_mask twice: under a marginal model, which
// takes that shortcut (and the SIMD lane, where the CPU has one), and under
// the same model behind a wrapper that does not claim samples_marginal,
// which forces the full per-cell derivation (a generator per cell and
// FeedbackModel::sample). Every round's loads and switches must agree bit
// for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "agent/agent_sim.h"
#include "algo/registry.h"
#include "core/demand.h"
#include "metrics/metric.h"
#include "noise/adversarial.h"
#include "noise/feedback_model.h"
#include "noise/sigmoid.h"
#include "sim/scenario.h"

namespace antalloc {
namespace {

// Forwards `inner` but keeps FeedbackModel's default `sample` and its
// samples_marginal() == false, so FeedbackAccess builds every cell's
// generator and calls `sample`: no threshold, no certain-cell shortcut and
// no SIMD lane.
class NonMarginal final : public FeedbackModel {
 public:
  explicit NonMarginal(FeedbackModel& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  double lack_probability(Round t, TaskId j, double deficit,
                          double demand) const override {
    return inner_.lack_probability(t, j, deficit, demand);
  }
  bool iid_across_ants() const override { return inner_.iid_across_ants(); }
  bool deterministic() const override { return inner_.deterministic(); }
  void begin_round(Round t, std::span<const double> deficits,
                   std::span<const Count> demands,
                   rng::Xoshiro256& gen) override {
    inner_.begin_round(t, deficits, demands, gen);
  }

 private:
  FeedbackModel& inner_;
};

struct RoundRow {
  Round t = 0;
  std::vector<Count> loads;
  std::int64_t switches = 0;
  bool operator==(const RoundRow&) const = default;
};

// Every round's loads and switches, as the recorder sees them.
class RoundLog final : public RoundSink {
 public:
  void on_round(const RoundView& view) override {
    rows.push_back({view.t, {view.loads.begin(), view.loads.end()},
                    view.switches});
  }
  std::vector<RoundRow> rows;
};

// The agent algorithms whose step draws through for_each_lack_mask.
const std::vector<std::string> kBlockDrawAlgorithms = {
    "ant", "precise-sigmoid", "precise-adversarial", "trivial", "threshold"};

std::vector<RoundRow> run_rounds(const std::string& algo_name,
                                 FeedbackModel& fm,
                                 const DemandSchedule& schedule, Count n,
                                 Round rounds,
                                 std::vector<Count> initial_loads = {}) {
  AlgoConfig algo_cfg;
  algo_cfg.name = algo_name;
  algo_cfg.epsilon = 0.8;  // a 200-round precise-adversarial phase
  const auto algo = make_agent_algorithm(algo_cfg);
  RoundLog log;
  MetricsRecorder::Options metrics;
  metrics.sink = &log;
  const AgentSimConfig cfg{.n_ants = n,
                           .rounds = rounds,
                           .seed = 11,
                           .metrics = std::move(metrics),
                           .initial_loads = std::move(initial_loads)};
  run_agent_sim(*algo, fm, schedule, cfg);
  return log.rows;
}

std::int64_t total_switches(const std::vector<RoundRow>& rows) {
  std::int64_t total = 0;
  for (const RoundRow& row : rows) total += row.switches;
  return total;
}

// Runs every block-draw algorithm under `fm` and under NonMarginal(fm).
void expect_same_rounds(FeedbackModel& fm, const DemandSchedule& schedule,
                        Count n, Round rounds,
                        const std::vector<Count>& initial_loads = {}) {
  ASSERT_TRUE(fm.samples_marginal());
  NonMarginal full(fm);
  ASSERT_FALSE(full.samples_marginal());
  for (const std::string& algo : kBlockDrawAlgorithms) {
    SCOPED_TRACE(algo);
    const auto fast = run_rounds(algo, fm, schedule, n, rounds, initial_loads);
    const auto reference =
        run_rounds(algo, full, schedule, n, rounds, initial_loads);
    ASSERT_EQ(fast.size(), static_cast<std::size_t>(rounds));
    ASSERT_EQ(reference.size(), fast.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i], reference[i]) << "round " << fast[i].t;
    }
    // Some ant moved, so the two runs are not two frozen colonies.
    EXPECT_GT(total_switches(fast), 0);
  }
}

// All idle against deficits of 200 and more at lambda 0.2: every cell of
// the first rounds has p == 1.0 exactly, and tasks leave saturation one by
// one as they fill.
TEST(CertainCells, AllIdleSaturatedStartMatchesFullDerivation) {
  SigmoidFeedback fm(0.2);
  const DemandSchedule schedule(
      DemandVector({Count{600}, Count{600}, Count{400}, Count{200}}));
  expect_same_rounds(fm, schedule, 2048, 240);
}

// Loads near demand at a shallow sigmoid: almost every cell is uncertain.
TEST(CertainCells, GreyZoneDemandMatchesFullDerivation) {
  SigmoidFeedback fm(0.05);
  const DemandSchedule schedule(
      DemandVector({Count{50}, Count{80}, Count{30}}));
  expect_same_rounds(fm, schedule, 400, 240, {Count{45}, Count{85}, Count{30}});
}

// Tasks die and are reborn: dormant tasks never lack, whatever their cell.
TEST(CertainCells, LifecycleFamilyMatchesFullDerivation) {
  SigmoidFeedback fm(0.2);
  ScenarioSpec spec;
  spec.name = "task-churn";
  spec.params = {{"period", 60.0}, {"overlap", 0.5}};
  const Scenario scenario = make_scenario(
      spec, DemandVector({Count{120}, Count{90}, Count{60}}), 240);
  expect_same_rounds(fm, scenario.schedule, 600, 240);
}

// Adversarial feedback is certain for every cell, so the marginal run
// hashes nothing at all.
TEST(CertainCells, AdversarialFeedbackMatchesFullDerivation) {
  const DemandSchedule schedule(
      DemandVector({Count{300}, Count{200}, Count{100}}));
  for (const std::string& adversary : adversary_names()) {
    SCOPED_TRACE(adversary);
    AdversarialFeedback fm(0.1, make_named_adversary(adversary, 0.1));
    expect_same_rounds(fm, schedule, 1000, 240);
  }
}

}  // namespace
}  // namespace antalloc
