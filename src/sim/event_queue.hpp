// Event queue of the runtime replay: a binary min-heap over one vector.
//
// The replay engine posts attempt-exhaustion and device-failure events at
// integer assay minutes and consumes them strictly in time order. Its queue
// holds a few dozen events at most, so a heap over one contiguous vector,
// reused across runs, is all it needs.
//
// Determinism contract: events are popped in (at, type, key, seq) order —
// at one instant device failures by device id, then exhaustions by
// operation id — so a replay that stops at the first break event resolves
// simultaneous candidates exactly like the reference implementation's
// Break::beats tie-break. `seq` is the posting order, making the full drain
// order a pure function of the posted events.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace cohls::sim {

/// Drain priority at one instant, in ascending order: failures beat
/// exhaustions (the reference tie-break).
enum class EventType : std::uint8_t {
  DeviceFailure = 0,
  Exhaustion = 1,
};

struct Event {
  std::int64_t at = 0;  ///< absolute assay minute
  EventType type = EventType::DeviceFailure;
  /// Deterministic same-instant tie-break: device id for failures,
  /// operation id for exhaustions.
  std::int32_t key = 0;
  /// Free payload: fault index (device failure) or window index
  /// (exhaustion).
  std::int32_t payload = 0;
  /// Posting order; final tie-break so drain order is reproducible.
  std::uint32_t seq = 0;
};

class EventQueue {
 public:
  struct Stats {
    std::uint64_t posted = 0;
    std::uint64_t popped = 0;
    /// Always 0: left from the calendar wheel this queue replaced, whose
    /// cascades and overflow list it counted. Kept only while benchmark
    /// drivers still compare them.
    std::uint64_t cascaded = 0;
    std::uint64_t overflowed = 0;
    /// Maximum number of events pending at once.
    std::size_t peak_pending = 0;

    void merge(const Stats& other);
  };

  /// Clears all pending events and rewinds the clock to `start`, keeping
  /// the heap's storage. Cumulative stats survive a reset (they aggregate
  /// across fleet runs); call `clear_stats` to zero them.
  void reset(std::int64_t start = 0);
  void clear_stats() { stats_ = Stats{}; }

  /// Posts an event at `e.at >= now()`. `e.seq` is assigned by the queue.
  void post(Event e);

  /// Pops the next pending event with `at <= horizon` in deterministic
  /// (time, type, key, seq) order, or nullopt when none is due yet. The
  /// clock never moves backwards: after a pop at time t it reads t + 1, and
  /// a call that finds nothing due moves it to max(now(), horizon + 1).
  [[nodiscard]] std::optional<Event> next(std::int64_t horizon);

  [[nodiscard]] std::int64_t now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::vector<Event> heap_;
  std::int64_t now_ = 0;
  std::uint32_t seq_ = 0;
  Stats stats_;
};

}  // namespace cohls::sim
