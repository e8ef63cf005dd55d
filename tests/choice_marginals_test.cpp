// rng::uniform_choice_marginals_into skips certain tasks and runs its
// leave-one-out PMFs in lockstep lanes, one body compiled for several ISAs
// (rng/poisson_binomial.h). Every wrapper must return the bits of the
// textbook evaluation it replaced, kept below as the reference: for each
// task j, rebuild the PMF of the other tasks with poisson_binomial_pmf_into
// and sum pmf[b] / (1 + b). The inputs mix the values that make the skips
// delicate: exact 0 and 1, -0.0, values clamped from outside [0, 1], 1e-300,
// subnormals, 2^-54 and its neighbours, grey values, and NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "rng/poisson_binomial.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"

namespace antalloc::rng {
namespace {

// The leave-one-out loop uniform_choice_marginals_into ran before the lanes.
void reference_marginals(std::span<const double> p, std::span<double> q_out,
                         std::vector<double>& rest, std::vector<double>& pmf) {
  const std::size_t k = p.size();
  std::fill(q_out.begin(), q_out.end(), 0.0);
  if (k == 0) return;
  pmf.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    const double pj = std::clamp(p[j], 0.0, 1.0);
    if (pj == 0.0) continue;
    rest.clear();
    for (std::size_t i = 0; i < k; ++i) {
      if (i != j) rest.push_back(p[i]);
    }
    poisson_binomial_pmf_into(rest, pmf);
    double expectation = 0.0;
    for (std::size_t b = 0; b < pmf.size(); ++b) {
      expectation += pmf[b] / static_cast<double>(1 + b);
    }
    q_out[j] = pj * expectation;
  }
}

struct NamedMarginals {
  std::string name;
  ChoiceMarginalsFn fn;
  bool supported;
};

std::vector<NamedMarginals> every_wrapper() {
  std::vector<NamedMarginals> wrappers = {
      {"base", choice_marginals_base, true}};
#if defined(__x86_64__) || defined(_M_X64)
  wrappers.push_back({"v4", choice_marginals_v4,
                      __builtin_cpu_supports("x86-64-v4") != 0});
  wrappers.push_back({"v3", choice_marginals_v3,
                      __builtin_cpu_supports("x86-64-v3") != 0});
#endif
  return wrappers;
}

void PrintTo(const NamedMarginals& w, std::ostream* os) { *os << w.name; }

constexpr double kTiny = 0x1.0p-54;  // 1 - kTiny rounds to 1

// Values a clamp takes to exactly 0 or 1: certain tasks.
const std::array<double, 9> kCertain = {
    0.0,
    1.0,
    -0.0,
    -0.5,
    -std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::infinity(),
    1.5,
    std::nextafter(1.0, 2.0),
    std::numeric_limits<double>::infinity()};

// Values strictly inside (0, 1) whose steps are easy to get wrong.
const std::array<double, 9> kEdge = {
    1e-300,
    std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::min() / 3.0,  // subnormal
    std::numeric_limits<double>::min(),
    kTiny,
    std::nextafter(kTiny, 0.0),
    std::nextafter(kTiny, 1.0),
    std::nextafter(1.0, 0.0),
    0.5};

// Input vector v of size k. Its certain share cycles through 0, 1/4, 1/2,
// 3/4 and 1 with v, so all-grey and all-certain inputs both occur. An
// uncertain entry is grey (15 in 16) or an edge value; exact 0 and 1 make
// up most certain ones, as they do in the kernels' inputs.
void draw_vector(std::size_t k, std::size_t v, std::span<double> p) {
  Xoshiro256 gen(hash_combine(k, v));
  const double certain = static_cast<double>(v % 5) / 4.0;
  for (double& x : p) {
    if (gen.uniform() < certain) {
      const std::uint64_t r = gen.uniform_below(4);
      x = r < 2 ? kCertain[r] : kCertain[gen.uniform_below(kCertain.size())];
    } else if (gen.uniform_below(16) != 0) {
      x = gen.uniform();
    } else {
      x = kEdge[gen.uniform_below(kEdge.size())];
    }
  }
}

constexpr std::size_t kVectors = 100'000;

// Runs fn(begin, end) over [0, kVectors) in a few threads.
template <typename Fn>
void for_each_chunk(Fn fn) {
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back(fn, kVectors * t / threads, kVectors * (t + 1) / threads);
  }
  for (std::thread& th : pool) th.join();
}

// The reference outputs of input vectors 0..kVectors-1 at size k, kept for
// the last k asked for. The cases run k-major, so every wrapper at one k
// reads one computation.
const std::vector<double>& reference_outputs(std::size_t k) {
  static std::size_t cached_k = 0;
  static std::vector<double> cached;
  if (cached_k != k) {
    cached.assign(k * kVectors, 0.0);
    for_each_chunk([k](std::size_t begin, std::size_t end) {
      std::vector<double> p(k), rest, pmf;
      for (std::size_t v = begin; v < end; ++v) {
        draw_vector(k, v, p);
        reference_marginals(
            p, std::span<double>(cached.data() + v * k, k), rest, pmf);
      }
    });
    cached_k = k;
  }
  return cached;
}

class ChoiceMarginalsTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, NamedMarginals>> {
 protected:
  void SetUp() override {
    const NamedMarginals& w = std::get<1>(GetParam());
    if (!w.supported) GTEST_SKIP() << "CPU lacks the " << w.name << " ISA";
  }
};

TEST_P(ChoiceMarginalsTest, MatchesLeaveOneOutBitForBit) {
  const auto& [k, wrapper] = GetParam();
  const std::vector<double>& want = reference_outputs(k);
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> first{kVectors};
  for_each_chunk([&, k = k, fn = wrapper.fn](std::size_t begin,
                                             std::size_t end) {
    ChoiceMarginalsWorkspace ws;
    std::vector<double> p(k), got(k);
    for (std::size_t v = begin; v < end; ++v) {
      draw_vector(k, v, p);
      std::fill(got.begin(), got.end(), -1.0);
      fn(p, got, ws);
      if (std::memcmp(got.data(), want.data() + v * k, k * sizeof(double)) !=
          0) {
        ++mismatches;
        std::size_t seen = first.load();
        while (v < seen && !first.compare_exchange_weak(seen, v)) {
        }
      }
    }
  });
  if (mismatches == 0) return;
  ADD_FAILURE() << mismatches << " of " << kVectors << " vectors differ";
  std::vector<double> p(k), got(k);
  ChoiceMarginalsWorkspace ws;
  draw_vector(k, first, p);
  wrapper.fn(p, got, ws);
  for (std::size_t j = 0; j < k; ++j) {
    ADD_FAILURE() << "vector " << first << " task " << j << ": p=" << p[j]
                  << " got " << got[j] << " want " << want[first * k + j];
  }
}

std::string case_name(
    const ::testing::TestParamInfo<ChoiceMarginalsTest::ParamType>& info) {
  return "k" + std::to_string(std::get<0>(info.param)) + "_" +
         std::get<1>(info.param).name;
}

INSTANTIATE_TEST_SUITE_P(
    Narrow, ChoiceMarginalsTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 4, 5, 6, 7, 8,
                                                      9, 10, 11, 12, 13, 14,
                                                      15, 16, 17, 32, 33),
                       ::testing::ValuesIn(every_wrapper())),
    case_name);

// At 64, 65 and 70 tasks the PMFs are long and the lanes fill up to nine
// blocks of 8; the reference's O(k^3) loop makes these the slow cases.
INSTANTIATE_TEST_SUITE_P(
    Wide, ChoiceMarginalsTest,
    ::testing::Combine(::testing::Values<std::size_t>(64, 65, 70),
                       ::testing::ValuesIn(every_wrapper())),
    case_name);

class ChoiceMarginalsEdgeTest
    : public ::testing::TestWithParam<NamedMarginals> {
 protected:
  void SetUp() override {
    if (!GetParam().supported) {
      GTEST_SKIP() << "CPU lacks the " << GetParam().name << " ISA";
    }
  }
};

// A NaN p is uncertain: every task whose q the reference makes NaN is NaN,
// and every other q keeps its bits. One workspace serves every k, so
// growing and shrinking k is covered too.
TEST_P(ChoiceMarginalsEdgeTest, NanReachesTheSameTasks) {
  ChoiceMarginalsWorkspace ws;
  std::vector<double> rest, pmf;
  std::size_t nan_outputs = 0;
  for (const std::size_t k : {1u, 2u, 3u, 8u, 17u, 70u, 33u}) {
    Xoshiro256 gen(5 + k);
    std::vector<double> p(k), got(k), want(k);
    for (std::size_t v = 0; v < 2000; ++v) {
      draw_vector(k, v, p);
      p[gen.uniform_below(k)] = std::numeric_limits<double>::quiet_NaN();
      GetParam().fn(p, got, ws);
      reference_marginals(p, want, rest, pmf);
      for (std::size_t j = 0; j < k; ++j) {
        ASSERT_EQ(std::isnan(got[j]), std::isnan(want[j]))
            << "k=" << k << " vector " << v << " task " << j;
        if (std::isnan(want[j])) {
          ++nan_outputs;
        } else {
          ASSERT_EQ(std::memcmp(&got[j], &want[j], sizeof(double)), 0)
              << "k=" << k << " vector " << v << " task " << j;
        }
      }
    }
  }
  EXPECT_GT(nan_outputs, 1000u);
}

TEST_P(ChoiceMarginalsEdgeTest, EmptyInputWritesNothing) {
  ChoiceMarginalsWorkspace ws;
  GetParam().fn({}, {}, ws);
  EXPECT_TRUE(ws.pmf.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Wrappers, ChoiceMarginalsEdgeTest, ::testing::ValuesIn(every_wrapper()),
    [](const ::testing::TestParamInfo<NamedMarginals>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace antalloc::rng
