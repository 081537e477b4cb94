// In-memory span recorder for the traced benchmark run. Spans are recorded
// only from the benchmark's own files, around its calls into the library
// (and from the library's public hooks), kept in memory, and written out as
// one JSON document when the benchmark ends. A disabled tracer records
// nothing, so the untraced run pays one branch per call site.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

struct SpanRecord {
  const char* name = "";
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int job = -1;     ///< job (operation) the span belongs to, -1 for none
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span nested in the calling thread's innermost open span.
  /// Returns its id, or -1 when tracing is off. `name` must be a literal.
  int open(const char* name, int job);
  void close(int id);

  /// Records an already finished span (a duration reported by a library
  /// hook) as a child of the calling thread's innermost open span.
  void add(const char* name, Clock::time_point start, Clock::time_point end, int job);

  /// Summed span duration per name.
  [[nodiscard]] std::map<std::string, double> total_seconds() const;
  /// Summed self time per name: each span's duration minus the part of it
  /// its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  [[nodiscard]] std::size_t span_count() const;

  /// Writes every span as JSON; returns false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] double offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int job = -1)
      : tracer_(tracer), id_(tracer.open(name, job)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
