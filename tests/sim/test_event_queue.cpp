#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

// The suite keeps the name of the calendar wheel that EventQueue replaced,
// so the ids of these cases stay stable.
namespace cohls::sim {
namespace {

Event make_event(std::int64_t at, EventType type = EventType::DeviceFailure,
                 std::int32_t key = 0, std::int32_t payload = 0) {
  Event e;
  e.at = at;
  e.type = type;
  e.key = key;
  e.payload = payload;
  return e;
}

std::vector<Event> drain(EventQueue& queue, std::int64_t horizon) {
  std::vector<Event> out;
  while (std::optional<Event> e = queue.next(horizon)) {
    out.push_back(*e);
  }
  return out;
}

TEST(EventWheel, DrainsInTimeOrder) {
  EventQueue queue;
  queue.reset();
  for (const std::int64_t at : {17, 3, 0, 99, 4, 3, 250}) {
    queue.post(make_event(at));
  }
  const std::vector<Event> events = drain(queue, 1'000);
  ASSERT_EQ(events.size(), 7u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at, events[i].at);
  }
  EXPECT_EQ(events.front().at, 0);
  EXPECT_EQ(events.back().at, 250);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventWheel, SameInstantPriorityIsTypeKeySeq) {
  EventQueue queue;
  queue.reset();
  // Posted deliberately out of drain order.
  queue.post(make_event(5, EventType::Exhaustion, 9));
  queue.post(make_event(5, EventType::DeviceFailure, 4));
  queue.post(make_event(5, EventType::Exhaustion, 2));
  queue.post(make_event(5, EventType::DeviceFailure, 1));
  queue.post(make_event(5, EventType::DeviceFailure, 1));  // tie -> posting order
  queue.post(make_event(5, EventType::Exhaustion, 2));     // tie -> posting order

  const std::vector<Event> events = drain(queue, 10);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].type, EventType::DeviceFailure);
  EXPECT_EQ(events[0].key, 1);
  EXPECT_EQ(events[1].type, EventType::DeviceFailure);
  EXPECT_EQ(events[1].key, 1);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_EQ(events[2].type, EventType::DeviceFailure);
  EXPECT_EQ(events[2].key, 4);
  EXPECT_EQ(events[3].type, EventType::Exhaustion);
  EXPECT_EQ(events[3].key, 2);
  EXPECT_EQ(events[4].type, EventType::Exhaustion);
  EXPECT_EQ(events[4].key, 2);
  EXPECT_LT(events[3].seq, events[4].seq);
  EXPECT_EQ(events[5].type, EventType::Exhaustion);
  EXPECT_EQ(events[5].key, 9);
}

TEST(EventWheel, HorizonGatesDelivery) {
  EventQueue queue;
  queue.reset();
  queue.post(make_event(2));
  queue.post(make_event(7));
  queue.post(make_event(30));

  EXPECT_EQ(drain(queue, 7).size(), 2u);
  EXPECT_EQ(queue.pending(), 1u);
  // Events may be posted at or after the current clock while others wait.
  queue.post(make_event(8));
  const std::vector<Event> rest = drain(queue, 40);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].at, 8);
  EXPECT_EQ(rest[1].at, 30);
}

TEST(EventWheel, MatchesSortedOrderOnRandomWorkload) {
  EventQueue queue;
  Rng rng{123};
  for (int round = 0; round < 5; ++round) {
    queue.reset();
    std::vector<Event> posted;
    for (int i = 0; i < 500; ++i) {
      Event e = make_event(rng.uniform_int(0, 4'000),
                           static_cast<EventType>(rng.uniform_int(0, 1)),
                           static_cast<std::int32_t>(rng.uniform_int(0, 9)), i);
      queue.post(e);
      e.seq = static_cast<std::uint32_t>(i);
      posted.push_back(e);
    }
    std::stable_sort(posted.begin(), posted.end(), [](const Event& a, const Event& b) {
      if (a.at != b.at) {
        return a.at < b.at;
      }
      if (a.type != b.type) {
        return a.type < b.type;
      }
      if (a.key != b.key) {
        return a.key < b.key;
      }
      return a.seq < b.seq;
    });
    const std::vector<Event> drained = drain(queue, 10'000);
    ASSERT_EQ(drained.size(), posted.size());
    for (std::size_t i = 0; i < posted.size(); ++i) {
      EXPECT_EQ(drained[i].at, posted[i].at) << i;
      EXPECT_EQ(drained[i].type, posted[i].type) << i;
      EXPECT_EQ(drained[i].key, posted[i].key) << i;
      EXPECT_EQ(drained[i].payload, posted[i].payload) << i;
    }
  }
}

TEST(EventWheel, ResetReplaysWithoutStalePendingAndKeepsStats) {
  EventQueue queue;
  queue.reset();
  queue.post(make_event(3));
  queue.post(make_event(900));
  EXPECT_EQ(drain(queue, 5).size(), 1u);
  EXPECT_EQ(queue.pending(), 1u);

  queue.reset();
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.now(), 0);
  queue.post(make_event(2, EventType::Exhaustion));
  const std::vector<Event> events = drain(queue, 10);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at, 2);

  EXPECT_EQ(queue.stats().posted, 3u);  // stats accumulate across resets
  queue.clear_stats();
  EXPECT_EQ(queue.stats().posted, 0u);
}

TEST(EventWheel, PostAtCurrentInstantIsDelivered) {
  EventQueue queue;
  queue.reset();
  queue.post(make_event(4));
  const std::optional<Event> first = queue.next(100);
  ASSERT_TRUE(first.has_value());
  // The clock sits just past 4 now; a post at now() must still drain.
  queue.post(make_event(queue.now(), EventType::Exhaustion));
  const std::optional<Event> second = queue.next(100);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->at, queue.now() - 1);
  EXPECT_THROW(queue.post(make_event(0)), PreconditionError);
}

TEST(EventWheel, StatsMergeSumsAndPeaks) {
  EventQueue::Stats a;
  a.posted = 10;
  a.popped = 8;
  a.cascaded = 2;
  a.overflowed = 1;
  a.peak_pending = 5;
  EventQueue::Stats b;
  b.posted = 3;
  b.popped = 3;
  b.peak_pending = 9;
  a.merge(b);
  EXPECT_EQ(a.posted, 13u);
  EXPECT_EQ(a.popped, 11u);
  EXPECT_EQ(a.cascaded, 2u);
  EXPECT_EQ(a.overflowed, 1u);
  EXPECT_EQ(a.peak_pending, 9u);
}

}  // namespace
}  // namespace cohls::sim
