// Span recorder: spans live in memory for the whole run and are written out
// as JSON lines once the run ends, so recording costs two clock reads and
// one locked push per span.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "perfbench.h"

namespace perfbench {
namespace {

// The innermost open span on this thread (automatic parenting).
thread_local std::uint64_t t_current_span = 0;
thread_local std::uint32_t t_thread_number = 0;
thread_local const Tracer* t_thread_tracer = nullptr;

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::uint32_t Tracer::thread_number() {
  if (t_thread_tracer != this) {
    t_thread_tracer = this;
    t_thread_number = next_thread_.fetch_add(1);
  }
  return t_thread_number;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::check_nesting(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  for (const SpanRecord& s : spans) {
    if (s.end_ns < s.start_ns) {
      return std::string("span '") + s.name + "' ends before it starts";
    }
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) {
      return std::string("span '") + s.name + "' has no recorded parent";
    }
    const SpanRecord& p = *it->second;
    if (p.job != s.job) {
      return std::string("span '") + s.name + "' and its parent '" + p.name +
             "' belong to different jobs";
    }
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return std::string("span '") + s.name + "' is not inside its parent '" +
             p.name + "'";
    }
  }
  return "";
}

std::vector<Tracer::NameTotals> Tracer::self_times(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, NameTotals> totals;
  for (const SpanRecord& s : spans) {
    // Self time = span minus the union of its children's intervals (children
    // on other threads may overlap each other, hence the union).
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0;
      std::int64_t hi = -1;
      for (const auto& [a0, b0] : iv) {
        const std::int64_t a = std::max(a0, s.start_ns);
        const std::int64_t b = std::min(b0, s.end_ns);
        if (b <= a) continue;
        if (hi < lo || a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    NameTotals& t = totals[s.name];
    t.name = s.name;
    ++t.count;
    const std::int64_t dur = s.end_ns - s.start_ns;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : totals) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const SpanRecord& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"job\":%" PRIu64 ",\"thread\":%u,\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 s.name, s.id, s.parent, s.job, s.thread, s.start_ns,
                 s.end_ns);
  }
  std::fclose(f);
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t job,
           std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  rec_.name = name;
  rec_.id = tracer_->next_id();
  rec_.parent = parent != 0 ? parent : t_current_span;
  rec_.job = job;
  rec_.thread = tracer_->thread_number();
  saved_current_ = t_current_span;
  t_current_span = rec_.id;
  rec_.start_ns = tracer_->now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = tracer_->now_ns();
  t_current_span = saved_current_;
  tracer_->record(rec_);
}

}  // namespace perfbench
