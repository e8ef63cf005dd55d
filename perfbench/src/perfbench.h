// antalloc_perfbench: the repository's end-to-end benchmark driver.
//
// One binary runs one named workload for a fixed number of seconds and
// prints every metric by name and unit, ending with one JSON line. Untraced
// runs (--trace 0) report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer breakdown, measured from outside the library by
// timing calls into each layer's public functions. perfbench/README.md maps
// every workload to the layers it stresses and the metrics that show them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "sim/campaign.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// Quantile with linear interpolation (q in [0, 1]); 0 for an empty sample.
double quantile_of(std::vector<double> values, double q);
inline double median_of(std::vector<double> values) {
  return quantile_of(std::move(values), 0.5);
}

// Metric report. ---------------------------------------------------------------

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // A human-readable line printed before the JSON result.
  void note(const std::string& line) { notes_.push_back(line); }

  const std::vector<MetricValue>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<MetricValue> metrics_;
  std::vector<std::string> notes_;
};

// Every metric a run may emit, with its unit: untraced runs emit exactly the
// end-to-end list, traced runs exactly the per-layer list (report.cpp).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_catalog();
const std::vector<MetricSpec>& per_layer_catalog();
// Unit of a per-layer metric; throws std::invalid_argument for other names.
std::string per_layer_unit(const std::string& name);

// Operation accounting: an operation is a campaign, a job or a sampled-cell
// check. A verification mismatch, a rejected job, an eviction or a dropped
// connection each counts as a failure; none of them aborts the run.
struct Outcome {
  std::atomic<std::int64_t> attempted{0};
  std::atomic<std::int64_t> failed{0};
  std::mutex mutex;
  std::vector<std::string> failures;  // first few reasons, for stderr

  void ok() { attempted.fetch_add(1); }
  void fail(const std::string& why);
};

// Heap-allocation counting (alloc_count.cpp). ----------------------------------
//
// The benchmark replaces global operator new in its own translation unit.
// Allocations are counted per thread, and only while an AllocCounter on that
// thread is open, so a probe measures exactly the calls it makes.
class AllocCounter {
 public:
  AllocCounter();
  ~AllocCounter();
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;

  std::uint64_t count() const;

 private:
  std::uint64_t start_ = 0;
  bool was_counting_ = false;
};

// Spans (trace.cpp). -------------------------------------------------------------
//
// In-memory span recorder for traced runs: name, start, end, parent and the
// job (operation) id the span belongs to. A null Tracer* turns every Span
// into a no-op, so untraced operations share the traced code path.
struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t job = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;  // dense per-run thread number
};

class Tracer {
 public:
  Tracer();

  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  std::int64_t now_ns() const;
  void record(const SpanRecord& span);
  std::uint32_t thread_number();

  std::vector<SpanRecord> spans() const;

  // Every span's parent exists, belongs to the same job and encloses it.
  // Returns an empty string when the spans nest, else the first violation.
  static std::string check_nesting(const std::vector<SpanRecord>& spans);

  // Per-name totals of span time and self time (span minus the union of its
  // children), plus the JSON-lines dump written when the run ends.
  struct NameTotals {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  static std::vector<NameTotals> self_times(
      const std::vector<SpanRecord>& spans);
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint32_t> next_thread_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  // Parent = the innermost open span on this thread (or `parent` when
  // non-zero, for work that hops threads).
  Span(Tracer* tracer, const char* name, std::uint64_t job,
       std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  std::uint64_t saved_current_ = 0;
};

// OS-level observation (sysstat.cpp). --------------------------------------------

// Per-thread CPU ticks (utime + stime) of every live thread of this process.
struct ThreadTicks {
  std::vector<std::pair<int, std::uint64_t>> ticks;  // (tid, ticks)
};
ThreadTicks read_thread_ticks();
// Threads present in `after` whose CPU ticks grew since `before` (a thread
// absent from `before` counts when it has any ticks at all).
std::size_t threads_that_ran(const ThreadTicks& before,
                             const ThreadTicks& after);
double process_cpu_seconds();
double peak_rss_mb();
std::size_t online_cpus();

// Workloads (workloads.cpp). -----------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;         // tiny shapes for the self-check
  std::string out_dir;      // spans, journals and other run files
};

const std::vector<std::string>& workload_names();

// Runs the workload and fills the report; returns false on a fatal error
// (message in *error), in which case no result may be printed.
bool run_workload(const RunOptions& opts, Report& report, Outcome& outcome,
                  std::string* error);

// Layer probes (probes.cpp). -----------------------------------------------------

// Inputs the probes take from the workload: its job shape, and a campaign
// result of that shape (cells for the codec, journal and merger probes).
struct ProbeInputs {
  antalloc::JobSpec job;
  antalloc::CampaignResult result;
  bool toy = false;
  std::string out_dir;
};

// Single-thread probes of agent/, noise/, aggregate/, metrics/, io/ (journal),
// net/ (frame codec) and orch/ (merger, lease table); each adds its metrics.
void run_layer_probes(const ProbeInputs& in, Report& report, Outcome& outcome);

// Bit-equality of two cells: labels, engine and every RunningStats state word.
bool cells_bit_equal(const antalloc::CampaignCell& a,
                     const antalloc::CampaignCell& b);

}  // namespace perfbench
