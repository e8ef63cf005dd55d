#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "perfbench.h"

namespace perfbench {

double quantile_of(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

const std::vector<MetricSpec>& end_to_end_catalog() {
  static const std::vector<MetricSpec> catalog = {
      {"wall_s", "s"},        {"job_latency_p90_s", "s"},
      {"setup_s", "s"},       {"rounds_per_s", "1/s"},
      {"jobs_per_s", "1/s"},  {"peak_rss_mb", "MB"},
  };
  return catalog;
}

const std::vector<MetricSpec>& per_layer_catalog() {
  static const std::vector<MetricSpec> catalog = {
      {"parallel.threads_observed", "count"},
      {"parallel.cpu_util", "share"},
      {"parallel.steals", "count"},
      {"parallel.tail_s", "s"},
      {"sim.build_s", "s"},
      {"sim.cells", "count"},
      {"sim.replicates", "count"},
      {"sim.cells.agent", "count"},
      {"sim.cells.aggregate", "count"},
      {"agent.ant_rounds_per_s.threshold", "1/s"},
      {"agent.ant_rounds_per_s.precise-adversarial", "1/s"},
      {"agent.allocs_per_round.threshold", "count"},
      {"agent.allocs_per_round.precise-adversarial", "count"},
      {"noise.lack_mask_ns_per_ant", "ns"},
      {"noise.sample_ns.sigmoid", "ns"},
      {"noise.lack_probability_ns.sigmoid", "ns"},
      {"aggregate.rounds_per_s.ant", "1/s"},
      {"aggregate.rounds_per_s.precise-sigmoid", "1/s"},
      {"aggregate.rounds_per_s.trivial", "1/s"},
      {"aggregate.rounds_per_s.sharp-threshold", "1/s"},
      {"aggregate.rounds_per_s.oracle", "1/s"},
      {"aggregate.allocs_per_round.ant", "count"},
      {"aggregate.allocs_per_round.precise-sigmoid", "count"},
      {"aggregate.allocs_per_round.trivial", "count"},
      {"aggregate.allocs_per_round.sharp-threshold", "count"},
      {"aggregate.allocs_per_round.oracle", "count"},
      {"metrics.on_round_ns.regret", "ns"},
      {"metrics.on_round_ns.violations", "ns"},
      {"metrics.on_round_ns.switches", "ns"},
      {"metrics.on_round_ns.regret-split", "ns"},
      {"metrics.on_round_ns.convergence", "ns"},
      {"metrics.on_round_ns.oscillation", "ns"},
      {"io.to_csv_s", "s"},
      {"io.journal_append_us", "us"},
      {"io.journal_bytes", "bytes"},
      {"net.frames_per_job", "count"},
      {"net.bytes_per_job", "bytes"},
      {"net.submit_rtt_s", "s"},
      {"net.feed_s", "s"},
      {"net.verify_s", "s"},
      {"net.first_cell_s", "s"},
      {"net.encode_ns.cell_update", "ns"},
      {"net.decode_ns.cell_update", "ns"},
      {"net.evictions", "count"},
      {"net.jobs_rejected", "count"},
      {"orch.leases_granted", "count"},
      {"orch.leases_released", "count"},
      {"orch.leases_expired", "count"},
      {"orch.duplicates_verified", "count"},
      {"orch.cells_shipped", "count"},
      {"orch.cells_folded", "count"},
      {"orch.useful_cell_share", "share"},
      {"orch.cell_interarrival_s", "s"},
      {"orch.merge_add_us", "us"},
      {"orch.lease_table_ns", "ns"},
      {"trace.overhead_share", "share"},
      {"trace.spans", "count"},
  };
  return catalog;
}

std::string per_layer_unit(const std::string& name) {
  for (const MetricSpec& m : per_layer_catalog()) {
    if (name == m.name) return m.unit;
  }
  throw std::invalid_argument("no per-layer metric named '" + name + "'");
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  // JSON has no NaN or infinity; a metric that cannot be computed is a bug in
  // the benchmark, and a 0 keeps the line parseable while the note says why.
  if (!std::isfinite(value)) {
    note("metric " + name + " was not finite; reported as 0");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Outcome::fail(const std::string& why) {
  attempted.fetch_add(1);
  failed.fetch_add(1);
  const std::lock_guard<std::mutex> lock(mutex);
  if (failures.size() < 8) failures.push_back(why);
}

}  // namespace perfbench
