// antalloc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--toy] [--out-dir <dir>]
//
// Prints human-readable notes, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when a result was printed (correct or not), 2 on a usage
// error, 1 when the workload could not run at all.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>

#include "perfbench.h"

namespace {

using perfbench::MetricSpec;

int usage(const char* why) {
  std::fprintf(stderr,
               "antalloc_perfbench: %s\n"
               "usage: antalloc_perfbench --workload <peragent|kernel|daemon|"
               "fleet> --seed <n> --seconds <s> --trace <0|1> [--toy] "
               "[--out-dir <dir>]\n",
               why);
  return 2;
}

// The emitted metric set must be exactly the catalog of the run's mode, with
// the catalog's units; returns the first discrepancy.
std::string check_catalog(const perfbench::Report& report, bool trace) {
  const auto& catalog = trace ? perfbench::per_layer_catalog()
                              : perfbench::end_to_end_catalog();
  std::set<std::string> seen;
  for (const auto& m : report.metrics()) {
    if (!seen.insert(m.name).second) return "metric " + m.name + " emitted twice";
    bool known = false;
    for (const MetricSpec& spec : catalog) {
      if (m.name == spec.name) {
        known = true;
        if (m.unit != spec.unit) return "metric " + m.name + " has unit " + m.unit;
      }
    }
    if (!known) return "metric " + m.name + " is not in the catalog";
  }
  for (const MetricSpec& spec : catalog) {
    if (seen.count(spec.name) == 0) {
      return std::string("metric ") + spec.name + " was not emitted";
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.out_dir = ".bench_build/perfbench-out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--toy") {
      opts.toy = true;
    } else if (arg == "--out-dir") {
      opts.out_dir = value();
    } else {
      return usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == opts.workload;
  }
  if (!known) return usage(("unknown workload '" + opts.workload + "'").c_str());
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  try {
    std::filesystem::create_directories(opts.out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "antalloc_perfbench: %s\n", e.what());
    return 1;
  }

  perfbench::Report report;
  perfbench::Outcome outcome;
  std::string error;
  if (!perfbench::run_workload(opts, report, outcome, &error)) {
    std::fprintf(stderr, "antalloc_perfbench: %s\n", error.c_str());
    return 1;
  }
  const std::string catalog_error = check_catalog(report, opts.trace);
  if (!catalog_error.empty()) {
    std::fprintf(stderr, "antalloc_perfbench: %s\n", catalog_error.c_str());
    return 1;
  }

  for (const std::string& why : outcome.failures) {
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              opts.workload.c_str(), opts.seed, opts.seconds,
              opts.trace ? 1 : 0);
  for (const std::string& note : report.notes()) {
    std::printf("# %s\n", note.c_str());
  }
  for (const auto& m : report.metrics()) {
    std::printf("# %-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::int64_t attempted = outcome.attempted.load();
  const std::int64_t failed = outcome.failed.load();
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& m : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
