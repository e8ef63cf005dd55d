#include <gtest/gtest.h>

#include "core/demand.h"

namespace antalloc {
namespace {

TEST(DemandVector, BasicAccessors) {
  const DemandVector d({Count{10}, Count{20}, Count{30}});
  EXPECT_EQ(d.num_tasks(), 3);
  EXPECT_EQ(d[0], 10);
  EXPECT_EQ(d[2], 30);
  EXPECT_EQ(d.total(), 60);
  EXPECT_EQ(d.min_demand(), 10);
  EXPECT_EQ(d.max_demand(), 30);
}

TEST(DemandVector, RejectsEmptyAndNegative) {
  EXPECT_THROW(DemandVector(std::vector<Count>{}), std::invalid_argument);
  EXPECT_THROW(DemandVector({Count{5}, Count{-1}}), std::invalid_argument);
}

TEST(DemandVector, AssumptionCheckSlack) {
  const DemandVector d({Count{100}, Count{100}});
  // Sum = 200; needs n >= 400 and min demand >= log2(n).
  EXPECT_TRUE(d.satisfies_assumptions(400));
  EXPECT_FALSE(d.satisfies_assumptions(399));
}

TEST(DemandVector, AssumptionCheckLogDemand) {
  const DemandVector d({Count{4}});
  // min demand 4 < log2(1024) = 10.
  EXPECT_FALSE(d.satisfies_assumptions(1024));
  EXPECT_TRUE(d.satisfies_assumptions(16));  // log2(16) = 4 <= 4
}

TEST(DemandFactories, Uniform) {
  const auto d = uniform_demands(4, 50);
  EXPECT_EQ(d.num_tasks(), 4);
  EXPECT_EQ(d.total(), 200);
  EXPECT_EQ(d.min_demand(), 50);
  EXPECT_EQ(d.max_demand(), 50);
}

TEST(DemandSchedule, ConstantSchedule) {
  const DemandSchedule s(uniform_demands(2, 10));
  EXPECT_TRUE(s.is_constant());
  EXPECT_EQ(s.demands_at(0)[0], 10);
  EXPECT_EQ(s.demands_at(1'000'000)[1], 10);
  EXPECT_EQ(s.max_total(), 20);
}

TEST(DemandSchedule, ChangePoints) {
  DemandSchedule s(uniform_demands(2, 10));
  s.add_change(100, uniform_demands(2, 30));
  s.add_change(200, uniform_demands(2, 5));
  EXPECT_FALSE(s.is_constant());
  EXPECT_EQ(s.demands_at(99)[0], 10);
  EXPECT_EQ(s.demands_at(100)[0], 30);
  EXPECT_EQ(s.demands_at(199)[0], 30);
  EXPECT_EQ(s.demands_at(200)[0], 5);
  EXPECT_EQ(s.max_total(), 60);
}

TEST(DemandSchedule, RejectsOutOfOrderAndShapeChange) {
  DemandSchedule s(uniform_demands(2, 10));
  s.add_change(100, uniform_demands(2, 20));
  EXPECT_THROW(s.add_change(50, uniform_demands(2, 5)), std::invalid_argument);
  EXPECT_THROW(s.add_change(200, uniform_demands(3, 5)), std::invalid_argument);
}

}  // namespace
}  // namespace antalloc
