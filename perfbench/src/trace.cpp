#include "trace.hpp"

#include <fstream>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last. One tracer exists per
/// process, so the stack needs no tracer key.
thread_local std::vector<int> open_spans;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::open(const char* name, int job) {
  if (!enabled_) {
    return -1;
  }
  const double start = offset(Clock::now());
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, start, start, parent, job});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) {
    return;
  }
  const double end = offset(Clock::now());
  open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_s = end;
}

void Tracer::add(const char* name, Clock::time_point start, Clock::time_point end,
                 int job) {
  if (!enabled_) {
    return;
  }
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, offset(start), offset(end), parent, job});
}

std::map<std::string, double> Tracer::total_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> totals;
  for (const SpanRecord& span : spans_) {
    totals[span.name] += span.end_s - span.start_s;
  }
  return totals;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].end_s - spans_[i].start_s;
    }
  }
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    totals[spans_[i].name] += self[i];
  }
  return totals;
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  out.precision(9);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start_s\": " << span.start_s << ", \"end_s\": " << span.end_s
        << ", \"parent\": " << span.parent << ", \"job\": " << span.job << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
