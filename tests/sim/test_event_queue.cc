/**
 * @file
 * Tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace tdp {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule("b", 20, [&] { order.push_back(2); });
    q.schedule("a", 10, [&] { order.push_back(1); });
    q.schedule("c", 30, [&] { order.push_back(3); });
    q.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule("later", 11, [&] { order.push_back(4); });
    q.schedule("first", 10, [&] { order.push_back(1); });
    q.schedule("second", 10, [&] { order.push_back(2); });
    q.schedule("third", 10, [&] { order.push_back(3); });
    q.runUntil(11);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int fired = 0;
    q.schedule("in", 10, [&] { ++fired; });
    q.schedule("out", 11, [&] { ++fired; });
    q.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTick(), 11u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule("outer", 5, [&] {
        q.schedule("inner", 7, [&] { ++fired; });
    });
    q.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.processedCount(), 2u);
}

TEST(EventQueue, PastSchedulingPanics)
{
    EventQueue q;
    q.schedule("now", 10, [] {});
    q.runUntil(10);
    EXPECT_THROW(q.schedule("past", 5, [] {}), PanicError);
}

TEST(EventQueue, SameTickSchedulingAllowed)
{
    EventQueue q;
    int fired = 0;
    q.schedule("outer", 5, [&] {
        // Scheduling at the current tick must work (same-instant
        // follow-up work).
        q.schedule("inner", 5, [&] { ++fired; });
    });
    q.runUntil(5);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EmptyQueueQueries)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_THROW(q.nextTick(), PanicError);
    EXPECT_THROW(q.step(), PanicError);
}

TEST(EventQueue, NullEventPanics)
{
    // An empty callback is rejected when scheduled, not when fired.
    EventQueue q;
    EXPECT_THROW(q.schedule("x", 1, nullptr), PanicError);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, HeapOrderingSurvivesInterleavedPopsAndPushes)
{
    // Every event fires in (tick, insertion) order, including events
    // scheduled from inside a callback at the tick being processed:
    // the firing order must equal a stable sort of the insertion list
    // by tick, so any other tie-break fails.
    EventQueue q;
    std::vector<std::pair<Tick, int>> inserted;
    std::vector<int> fired;
    auto add = [&](Tick when, auto &&fn) {
        const int index = static_cast<int>(inserted.size());
        inserted.emplace_back(when, index);
        q.schedule("mix", when, [&fired, index, fn] {
            fired.push_back(index);
            fn();
        });
    };
    for (int i = 0; i < 50; ++i) {
        // Shuffled ticks in 1..7, so every tick is shared.
        const Tick when = static_cast<Tick>(1 + (i * 37) % 97 % 7);
        add(when, [&, i, when] {
            if (i % 3 != 0)
                return;
            // Nested same-tick and later-tick follow-ups.
            add(when, [] {});
            add(when + 2, [] {});
        });
    }
    q.runUntil(200);

    std::vector<std::pair<Tick, int>> expected = inserted;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), expected.size());
    for (size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].second) << "position " << i;
}

} // namespace
} // namespace tdp
