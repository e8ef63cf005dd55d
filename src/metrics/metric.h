// Streaming metrics: the third registry of the system, next to
// algo/registry.h (algorithms) and sim/scenario.h (scenarios).
//
// The paper's analysis is a family of per-round statistics — the regret
// split R⁺/R≈/R⁻, Theorem 3.1 band violations, Theorem 3.6 switch counts,
// convergence time, oscillation amplitude — and new theorem-shaped
// measurements keep appearing. Instead of hardcoding one fixed set into
// SimResult and every consumer above it, a metric is a named fold: both
// engines emit one RoundView per round, MetricSet reduces it to one
// RoundSummary in a single pass over the tasks (the deficit row, r(t), the
// R⁺/R⁻ terms and the Theorem 3.1 band flags), each selected metric folds
// that summary into O(1)-per-round state, and finish() yields named scalars
// that flow into SimResult's scalar map, campaign columns, shard CSVs and
// the CLI with no further wiring. Metrics stream, so million-round runs
// never need a retained Trace to be measured (traces remain available as
// the post-hoc oracle — the equivalence tests pin streaming == trace-scan
// bit-exactly).
//
// Adding a metric = add its fold to MetricSet (state, one line in
// fold(), its scalars in finish()), add one row to the registry table in
// metric.cpp (name, description, scalar columns, fold), and it is
// selectable everywhere: MetricsRecorder::Options::names, CampaignConfig
// (campaign columns + shard CSV columns appear automatically),
// `antalloc_cli --metrics=` / `--list-metrics`. See the metrics-subsystem
// section of docs/ARCHITECTURE.md for the recipe.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/demand.h"
#include "core/types.h"
#include "metrics/convergence.h"
#include "metrics/oscillation.h"

namespace antalloc {

struct RegretBands {
  // Paper constants. The arXiv text renders cs as "213"; the surrounding
  // inequalities (Claim 4.2 needs cs >= 20/9 + 2/(cd-1); Claim 4.5 needs
  // 1 + 1.2*cs <= 4 at gamma = 1/16) pin cs to [2.34, 2.5], so we default to
  // 2.4 and keep it configurable. See DESIGN.md §5.
  double cs = 2.4;
  double cd = 19.0;

  double c_plus() const { return 1.2 * cs; }
  double c_minus() const { return 1.0 + 1.2 * cs; }
};

// One round as both engines expose it to the metrics layer: emitted exactly
// once per round, after the round's transitions (lifecycle flush + algorithm
// step) have been applied. Spans/pointers borrow the engine's buffers and
// are valid only during the on_round call — observers must fold, not store.
struct RoundView {
  Round t = 0;
  // Visible per-task loads W(j)_t after this round's step.
  std::span<const Count> loads;
  // Demand vector in force during round t (never null inside on_round).
  const DemandVector* demands = nullptr;
  // Active-task set in force (task lifecycle); nullptr = all tasks active.
  const ActiveSet* active = nullptr;
  // Ant-assignment changes applied during round t, including the lifecycle
  // flush at a segment boundary (engines that do not track switches emit 0).
  std::int64_t switches = 0;
  // The lifecycle-flush share of `switches`: workers retired off dying
  // tasks at this round's segment boundary (0 on non-boundary rounds and
  // for drivers that do not track the split). Trace records persist it so
  // replay can distinguish flush events from ordinary churn.
  std::int64_t flushes = 0;

  bool task_active(TaskId j) const { return active == nullptr || (*active)[j]; }
};

// Run-constant context handed to metric factories: colony shape and the
// recording options every band-shaped statistic needs.
struct MetricContext {
  std::int32_t num_tasks = 0;
  Count n_ants = 0;
  double gamma = 0.01;  // the algorithm's learning rate (band widths)
  RegretBands bands{};
  Round warmup = 0;  // rounds excluded from post-warmup statistics
};

// A raw per-round tap: like MetricSet but with no scalar contract — sinks see
// every RoundView the recorder sees and do something external with it
// (write a binary trace record, feed a network subscriber). The recorder
// does NOT own its sink (MetricsRecorder::Options::sink is a borrowed
// pointer); the driver that created the sink calls close() after the run to
// surface deferred I/O errors — destructors alone must stay silent.
class RoundSink {
 public:
  virtual ~RoundSink();

  virtual void on_round(const RoundView& view) = 0;

  // Flushes and finalizes whatever the sink streams to; called once after
  // the last round. Implementations throw here (never from the destructor)
  // on deferred errors.
  virtual void close() {}
};

// One scalar a metric emits, plus how campaign tables render its replicate
// statistics. The shard CSV persists the full RunningStats state under
// "<name>_{count,mean,m2,min,max}" columns regardless of this spec.
struct MetricScalar {
  std::string name;    // key in SimResult's scalar map / shard CSV stem
  std::string column;  // campaign table column for the replicate mean
  int digits = 6;      // Table::fmt precision for the mean column
  bool ci95 = false;   // also emit a "<name>_ci95" column
  int ci_digits = 4;
};

// Registry (static table in metric.cpp, mirroring algo/scenario). ----------
//
// Besides the fixed table, two PARAMETERIZED families are recognized:
// "oscillation-per-task@K" and "convergence-per-task@K" (K >= 1 the task
// count) emit each task's statistics as separate "<scalar>.task<i>"
// columns instead of the task-aggregated scalars. K lives in the NAME so
// every downstream layer — campaign_config_hash, shard identity frames, the
// wire metric lists, scalar_columns — derives the column set from the name
// alone; the factory refuses a run whose colony has a different task count.
// The per-task values are exact decompositions of the aggregates:
// oscillation's aggregate scalars are bit-reconstructable from the per-task
// columns by the same task-order arithmetic, and convergence's joint
// last_violation is the max of the per-task ones (per_task_metric_test pins
// both).

// Registered metric names, in registration order (the fixed table only —
// parameterized names are accepted by the functions below, not listed).
std::vector<std::string> metric_names();
bool has_metric(const std::string& name);

// One-line description (CLI --list-metrics); throws std::invalid_argument
// on unknown names.
std::string metric_description(const std::string& name);

// The scalars `name` emits, in emission order; throws on unknown names.
// By value: parameterized per-task selections compute their column sets
// from the name's K.
std::vector<MetricScalar> metric_scalars(const std::string& name);

// The selection every run uses when none is given: exactly the statistics
// the pre-registry SimResult/campaign hardcoded ("regret", "violations",
// "switches"), so default outputs reproduce the historical numbers.
std::vector<std::string> default_metric_names();

// Canonicalizes a selection: empty -> default_metric_names(); throws
// std::invalid_argument on unknown or duplicate names (duplicates would
// collide in the scalar map and CSV columns).
std::vector<std::string> resolve_metric_names(
    const std::vector<std::string>& names);

// Flattened scalar specs for a (resolved or raw) selection, in selection
// order — the column layout of campaign tables and shard CSVs. Resolves
// empty to the default set and validates like resolve_metric_names.
std::vector<MetricScalar> metric_scalar_columns(
    const std::vector<std::string>& names);

// One round as the built-in metrics consume it, derived from a RoundView in
// one pass over the tasks. Spans borrow MetricSet's buffers until its next
// on_round().
struct RoundSummary {
  Round t = 0;
  std::int64_t switches = 0;
  std::span<const Count> deficits;        // Δ(j) = d(j) − W(j)
  std::span<const std::uint8_t> outside;  // 1 where |Δ(j)| > 5γ·d(j) + 3
  Count regret = 0;                       // r(t) = Σ_j |Δ(j)|
  Count total_demand = 0;                 // Σ_j d(j) in force
  double regret_plus = 0.0;   // Σ_j max(0, W(j) − (1 + c⁺γ)·d(j))
  double regret_minus = 0.0;  // Σ_j max(0, (1 − c⁻γ)·d(j) − W(j))
  bool violated = false;      // some task outside its band
};

// The always-on totals (SimResult's fixed fields), folded every round
// whatever the selection.
struct RoundTotals {
  Round rounds = 0;  // t of the last folded round
  std::int64_t switches = 0;
  double total_regret = 0.0;
  double regret_plus = 0.0;
  double regret_near = 0.0;
  double regret_minus = 0.0;
  std::int64_t violation_rounds = 0;
  Round post_warmup_rounds = 0;
  double post_warmup_regret = 0.0;
};

// What a registered metric folds per round (see MetricSet).
enum class MetricFold : std::uint8_t {
  kRegret,       // reads RoundTotals at finish
  kViolations,   // reads RoundTotals at finish
  kSwitches,     // reads RoundTotals at finish
  kRegretSplit,  // reads RoundTotals at finish
  kCloseness,    // O(1): r(t) / (γ·Σd(t)) after warmup
  kConvergence,  // O(1): the joint band flag
  kOscillation,  // the deficit row, shared with the per-task family
  kOscillationPerTask,
  kConvergencePerTask,  // the per-task band flags
};

// A metric selection folded as one unit: on_round() makes the round's one
// pass over the tasks and folds the summary into the totals and every
// selected metric, with no per-metric dispatch. Each metric's arithmetic
// exists once, here or in the column folds of metrics/convergence.h and
// metrics/oscillation.h; MetricsRecorder and make_metric both run it.
class MetricSet {
 public:
  // `names` as resolve_metric_names accepts them (empty = default set);
  // throws std::invalid_argument on unknown or duplicate names and on a
  // per-task family whose K is not ctx.num_tasks.
  MetricSet(const MetricContext& ctx, const std::vector<std::string>& names);

  // Folds one round; the returned summary is valid until the next call.
  const RoundSummary& on_round(const RoundView& view);

  const RoundTotals& totals() const { return totals_; }

  // Appends every selected metric's scalars, one per declared MetricScalar,
  // in selection and declaration order (metric_registry_test checks every
  // built-in).
  void finish(std::vector<std::string>& names,
              std::vector<double>& values) const;

 private:
  void summarize(const RoundView& view);
  void fold(const RoundSummary& s);

  bool selected(MetricFold fold) const {
    return ((folds_ >> static_cast<unsigned>(fold)) & 1) != 0;
  }

  MetricContext ctx_;
  std::vector<MetricFold> order_;  // the selection, in order, for finish()
  std::uint32_t folds_ = 0;        // bit f set = MetricFold f selected

  std::vector<Count> deficits_;
  std::vector<std::uint8_t> outside_;
  RoundSummary summary_;
  RoundTotals totals_;
  double closeness_sum_ = 0.0;
  ConvergenceAccumulator convergence_acc_;
  // Sized only when a fold that uses them is selected.
  OscillationColumns oscillation_cols_;
  ConvergenceColumns convergence_cols_;
};

// One registered or per-task metric on its own: the same pass and fold the
// recorder runs for a whole selection. Throws std::invalid_argument on
// unknown names.
std::unique_ptr<MetricSet> make_metric(const std::string& name,
                                       const MetricContext& ctx);

}  // namespace antalloc
