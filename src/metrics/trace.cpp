#include "metrics/trace.h"

namespace antalloc {

Trace::Trace(std::int32_t num_tasks, Round stride)
    : k_(num_tasks), stride_(stride) {}

void Trace::append(Round t, std::span<const Count> deficits, Count regret) {
  rounds_.push_back(t);
  deficits_.insert(deficits_.end(), deficits.begin(), deficits.end());
  regret_.push_back(regret);
}

std::vector<Count> Trace::task_series(TaskId j) const {
  std::vector<Count> series;
  series.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) series.push_back(deficit_at(i, j));
  return series;
}

}  // namespace antalloc
