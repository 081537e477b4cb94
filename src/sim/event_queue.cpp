#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cohls::sim {

namespace {

/// Heap order: true when `a` drains after `b` in (at, type, key, seq)
/// order, which makes the std heap algorithms' max-heap a min-heap. A
/// functor rather than a function pointer, so the heap operations inline it.
struct DrainsAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.at != b.at) {
      return a.at > b.at;
    }
    if (a.type != b.type) {
      return a.type > b.type;
    }
    if (a.key != b.key) {
      return a.key > b.key;
    }
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::Stats::merge(const Stats& other) {
  posted += other.posted;
  popped += other.popped;
  cascaded += other.cascaded;
  overflowed += other.overflowed;
  peak_pending = std::max(peak_pending, other.peak_pending);
}

void EventQueue::reset(std::int64_t start) {
  COHLS_EXPECT(start >= 0, "event queue start time must be non-negative");
  heap_.clear();
  now_ = start;
  seq_ = 0;
}

void EventQueue::post(Event e) {
  COHLS_EXPECT(e.at >= now_, "events must be posted at or after the queue clock");
  e.seq = seq_++;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), DrainsAfter{});
  ++stats_.posted;
  stats_.peak_pending = std::max(stats_.peak_pending, heap_.size());
}

std::optional<Event> EventQueue::next(std::int64_t horizon) {
  if (heap_.empty() || heap_.front().at > horizon) {
    now_ = std::max(now_, horizon + 1);
    return std::nullopt;
  }
  std::pop_heap(heap_.begin(), heap_.end(), DrainsAfter{});
  const Event e = heap_.back();
  heap_.pop_back();
  now_ = e.at + 1;
  ++stats_.popped;
  return e;
}

}  // namespace cohls::sim
