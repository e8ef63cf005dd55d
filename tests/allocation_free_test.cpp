// Pins the "allocation-free round emission" property of the agent engine,
// for every agent algorithm, and of the aggregate engine, for every
// count-level kernel: with default metrics options (no trace) every
// heap allocation happens during setup (reset, buffer reservation, result
// assembly) — none per round. The proof is a global operator-new counter and two runs differing
// only in round count: if any per-round path allocated, the longer run
// would count more.
//
// This file must stay its own test binary (the CMake one-binary-per-file
// rule guarantees that): the operator new/delete replacements below are
// process-global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "agent/agent_sim.h"
#include "aggregate/aggregate_sim.h"
#include "algo/registry.h"
#include "noise/sigmoid.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t padded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, padded == 0 ? alignment : padded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace antalloc {
namespace {

std::uint64_t g_sink = 0;  // keeps results observable

struct AllocCase {
  std::string algo;
  SamplingMode mode;
};

std::uint64_t allocations_for_run(const AllocCase& c, Round rounds) {
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  {
    // epsilon 0.9 keeps the precise variants' phases short enough that the
    // runs cross phase boundaries and decision rounds.
    auto algo = make_agent_algorithm(
        AlgoConfig{.name = c.algo, .gamma = 0.05, .epsilon = 0.9});
    SigmoidFeedback fm(1.0);
    const DemandVector demands({Count{60}, Count{40}});
    AgentSimConfig cfg{.n_ants = 512,
                       .rounds = rounds,
                       .seed = 7,
                       .metrics = {.gamma = 0.05},
                       .sampling = c.mode};
    const auto res = run_agent_sim(*algo, fm, demands, cfg);
    g_sink += static_cast<std::uint64_t>(res.switches);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class AllocationFree : public ::testing::TestWithParam<AllocCase> {};

TEST_P(AllocationFree, RoundCountDoesNotChangeAllocationCount) {
  const AllocCase& c = GetParam();
  // Warm up once: one-time lazy initialisation inside the stdlib (locale,
  // distribution internals) must not be charged to either measured run.
  (void)allocations_for_run(c, 50);

  const std::uint64_t short_run = allocations_for_run(c, 100);
  const std::uint64_t long_run = allocations_for_run(c, 300);
  // Setup allocations scale with n and k only; if any per-round code path
  // allocated, the 300-round run would exceed the 100-round run.
  EXPECT_EQ(short_run, long_run) << "per-round heap allocations detected for "
                                 << c.algo << " in " << to_string(c.mode)
                                 << " mode";
  // Sanity: the counter is actually live.
  EXPECT_GT(short_run, 0u);
}

// Every agent algorithm on the per-ant path, plus `ant` on its batched
// runner.
INSTANTIATE_TEST_SUITE_P(
    AgentAlgorithms, AllocationFree,
    ::testing::Values(AllocCase{"ant", SamplingMode::kPerAnt},
                      AllocCase{"ant", SamplingMode::kBatched},
                      AllocCase{"threshold", SamplingMode::kPerAnt},
                      AllocCase{"precise-adversarial", SamplingMode::kPerAnt},
                      AllocCase{"precise-sigmoid", SamplingMode::kPerAnt},
                      AllocCase{"trivial", SamplingMode::kPerAnt}),
    [](const ::testing::TestParamInfo<AllocCase>& i) {
      std::string name = i.param.algo + "_" +
                         (i.param.mode == SamplingMode::kPerAnt ? "per_ant"
                                                                 : "batched");
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The aggregate engine on a colony large enough that the count draws take
// every binomial regime (bit sum, inversion and BTRD).
std::uint64_t kernel_allocations_for_run(const std::string& algo,
                                         Round rounds) {
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  {
    auto kernel = make_aggregate_kernel(
        AlgoConfig{.name = algo, .gamma = 0.05, .epsilon = 0.9});
    SigmoidFeedback fm(0.05);
    const DemandVector demands(
        {Count{20'000}, Count{12'000}, Count{6'000}, Count{40}});
    AggregateSimConfig cfg{.n_ants = 65'536, .rounds = rounds, .seed = 11};
    cfg.metrics.gamma = 0.05;
    const auto res = run_aggregate_sim(*kernel, fm, demands, cfg);
    g_sink += static_cast<std::uint64_t>(res.switches);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class KernelAllocationFree : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelAllocationFree, RoundCountDoesNotChangeAllocationCount) {
  const std::string& algo = GetParam();
  (void)kernel_allocations_for_run(algo, 50);
  const std::uint64_t short_run = kernel_allocations_for_run(algo, 100);
  const std::uint64_t long_run = kernel_allocations_for_run(algo, 300);
  EXPECT_EQ(short_run, long_run)
      << "per-round heap allocations detected for the " << algo << " kernel";
  EXPECT_GT(short_run, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AggregateKernels, KernelAllocationFree,
    ::testing::Values("ant", "precise-sigmoid", "trivial", "sharp-threshold",
                      "oracle"),
    [](const ::testing::TestParamInfo<std::string>& i) {
      std::string name = i.param;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace antalloc
