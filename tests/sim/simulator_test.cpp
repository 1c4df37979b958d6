#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace fl::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(TimePoint::from_nanos(30), [&] { order.push_back(3); });
    sim.schedule_at(TimePoint::from_nanos(10), [&] { order.push_back(1); });
    sim.schedule_at(TimePoint::from_nanos(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventKeyTest, OrdersByTimeThenDomainThenSequence) {
    const EventKey a{TimePoint::from_nanos(10), 5, 7};
    EXPECT_LT(a, (EventKey{TimePoint::from_nanos(11), 0, 0}));
    EXPECT_LT(a, (EventKey{TimePoint::from_nanos(10), 6, 0}));
    EXPECT_LT(a, (EventKey{TimePoint::from_nanos(10), 5, 8}));
    EXPECT_EQ(a, (EventKey{TimePoint::from_nanos(10), 5, 7}));
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
    Simulator sim;
    std::vector<int> order;
    const TimePoint t = TimePoint::from_nanos(5);
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(t, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(SimulatorTest, EqualTimeEventsOrderByDomainThenSequence) {
    Simulator sim;
    std::vector<int> order;
    const TimePoint t = TimePoint::from_nanos(5);
    {
        DomainScope scope(sim, 7);
        sim.schedule_at(t, [&order] { order.push_back(7); });
    }
    {
        DomainScope scope(sim, 3);
        sim.schedule_at(t, [&order] { order.push_back(3); });
        sim.schedule_at(t, [&order] { order.push_back(4); });
    }
    EXPECT_EQ(sim.domain(), 0u);  // the scopes restore the previous domain
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{3, 4, 7}));
}

TEST(SimulatorTest, ScheduleAfterOnExecutesUnderTheGivenDomain) {
    Simulator sim;
    std::vector<DomainId> seen;
    std::vector<int> order;
    {
        DomainScope scope(sim, 9);
        sim.schedule_after_on(Duration::nanos(10), 2, [&] {
            seen.push_back(sim.domain());
            // Keyed under domain 2 now: runs before the domain-5 event below
            // although it was scheduled later.
            sim.schedule_after(Duration::nanos(10), [&order] { order.push_back(2); });
        });
        sim.schedule_after_on(Duration::nanos(-5), 4, [&] { seen.push_back(sim.domain()); });
    }
    {
        DomainScope scope(sim, 5);
        sim.schedule_at(TimePoint::from_nanos(20), [&order] { order.push_back(5); });
    }
    sim.run();
    EXPECT_EQ(seen, (std::vector<DomainId>{4, 2}));  // negative delay clamps to 0
    EXPECT_EQ(order, (std::vector<int>{2, 5}));
}

TEST(SimulatorTest, CrossDomainMessageExecutesAtItsTime) {
    // A message sent by domain 0 to domain 1: delivered exactly `delay`
    // after the send, with the receiver's domain installed.
    Simulator sim;
    const Duration delay = Duration::micros(100);
    TimePoint delivered_at;
    DomainId delivered_domain = 99;
    {
        DomainScope scope(sim, 0);
        sim.schedule_at(TimePoint::from_nanos(10), [&] {
            sim.schedule_after_on(delay, 1, [&] {
                delivered_at = sim.now();
                delivered_domain = sim.domain();
            });
        });
    }
    EXPECT_EQ(sim.run(), 2u);
    EXPECT_EQ(delivered_at, TimePoint::from_nanos(10) + delay);
    EXPECT_EQ(delivered_domain, 1u);
}

TEST(SimulatorTest, EqualTimeCrossDomainMessagesTiebreakBySender) {
    // Two senders deliver into one receiver at the same simulated instant.
    // The messages are keyed under their senders, so the lower sender domain
    // runs first whatever order the sends were scheduled in.
    Simulator sim;
    const Duration delay = Duration::micros(100);
    const TimePoint t0 = TimePoint::from_nanos(40);
    std::vector<std::string> order;
    {
        // The higher-domain sender is scheduled first: if delivery order
        // followed scheduling order, the result would flip.
        DomainScope scope(sim, 1);
        sim.schedule_at(t0, [&] {
            sim.schedule_after_on(delay, 2, [&] { order.push_back("domain1"); });
        });
    }
    {
        DomainScope scope(sim, 0);
        sim.schedule_at(t0, [&] {
            sim.schedule_after_on(delay, 2, [&] { order.push_back("domain0"); });
        });
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"domain0", "domain1"}));
}

TEST(SimulatorTest, SetupScheduledMessageIsVisibleBeforeFirstRun) {
    // Component construction schedules cross-domain work before any run
    // loop exists; next_event_time() and run() must surface it.
    Simulator sim;
    bool ran = false;
    DomainId ran_under = 99;
    {
        DomainScope scope(sim, 0);
        sim.schedule_after_on(Duration::nanos(5), 1, [&] {
            ran = true;
            ran_under = sim.domain();
        });
    }
    EXPECT_EQ(sim.next_event_time(), TimePoint::from_nanos(5));
    EXPECT_EQ(sim.now(), TimePoint::origin());  // peeking does not move the clock
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_TRUE(ran);
    EXPECT_EQ(ran_under, 1u);
}

TEST(SimulatorTest, RunDrainsQueueAndCountsEvents) {
    Simulator sim;
    int ran = 0;
    sim.schedule_after(Duration::millis(1), [&] { ++ran; });
    sim.schedule_after(Duration::millis(2), [&] { ++ran; });
    EXPECT_EQ(sim.run(), 2u);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(sim.events_executed(), 2u);
    EXPECT_TRUE(sim.empty());
    EXPECT_EQ(sim.run(), 0u);  // a drained queue runs nothing
    EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
    Simulator sim;
    TimePoint seen;
    sim.schedule_after(Duration::millis(7), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, TimePoint::origin() + Duration::millis(7));
    EXPECT_EQ(sim.now(), seen);
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
    Simulator sim;
    sim.schedule_after(Duration::millis(10), [&] {
        // Scheduling "in the past" must not rewind the clock.
        sim.schedule_at(TimePoint::from_nanos(1), [&] {
            EXPECT_GE(sim.now().as_nanos(), Duration::millis(10).as_nanos());
        });
    });
    sim.run();
    EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, NegativeDelayClampsToZero) {
    Simulator sim;
    bool ran = false;
    sim.schedule_after(Duration::millis(-5), [&] { ran = true; });
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.now(), TimePoint::origin());
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) {
            sim.schedule_after(Duration::millis(1), recurse);
        }
    };
    sim.schedule_after(Duration::zero(), recurse);
    sim.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(4));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
    Simulator sim;
    int count = 0;
    for (int i = 1; i <= 10; ++i) {
        sim.schedule_at(TimePoint::origin() + Duration::millis(i), [&] { ++count; });
    }
    sim.run_until(TimePoint::origin() + Duration::millis(5));
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(5));
    sim.run();
    EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, ConsecutiveRunUntilWindowsSplitEventsAtTheDeadline) {
    // perfbench's chunked run drives a network by consecutive run_until
    // windows.  An event exactly at a window's end runs in that window, one
    // a nanosecond later in the next, and the clock finishes every window at
    // its end even when the last event ran earlier.
    Simulator sim;
    const TimePoint end = TimePoint::origin() + Duration::millis(1);
    std::vector<int> order;
    sim.schedule_at(end - Duration::micros(10), [&] { order.push_back(0); });
    sim.schedule_at(end, [&] { order.push_back(1); });
    sim.schedule_at(end + Duration::nanos(1), [&] { order.push_back(2); });
    EXPECT_EQ(sim.run_until(end), 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(sim.now(), end);
    EXPECT_EQ(sim.run_until(end + Duration::millis(1)), 1u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sim.now(), end + Duration::millis(1));
    EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, LastEventAtTracksLatestDequeuedEvent) {
    Simulator sim;
    EXPECT_EQ(sim.last_event_at(), TimePoint::origin());
    sim.schedule_at(TimePoint::from_nanos(10), [] {});
    sim.schedule_at(TimePoint::from_nanos(30), [] {});
    sim.run();
    EXPECT_EQ(sim.last_event_at(), TimePoint::from_nanos(30));
    // run_until moves the clock past the last event; last_event_at does not.
    sim.run_until(TimePoint::from_nanos(100));
    EXPECT_EQ(sim.now(), TimePoint::from_nanos(100));
    EXPECT_EQ(sim.last_event_at(), TimePoint::from_nanos(30));
}

TEST(SimulatorTest, RunUntilAdvancesClockOnEmptyQueue) {
    Simulator sim;
    sim.run_until(TimePoint::origin() + Duration::seconds(3));
    EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(3));
}

TEST(SimulatorTest, StepExecutesOne) {
    Simulator sim;
    int count = 0;
    sim.schedule_after(Duration::millis(1), [&] { ++count; });
    sim.schedule_after(Duration::millis(2), [&] { ++count; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, TimerCancellation) {
    Simulator sim;
    bool fired = false;
    TimerHandle h = sim.schedule_timer(Duration::millis(5), [&] { fired = true; });
    EXPECT_TRUE(h.active());
    h.cancel();
    EXPECT_FALSE(h.active());
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelledTimerDoesNotCountAsExecution) {
    Simulator sim;
    TimerHandle h = sim.schedule_timer(Duration::millis(5), [] {});
    h.cancel();
    sim.schedule_after(Duration::millis(10), [] {});
    EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
    Simulator sim;
    bool fired = false;
    TimerHandle h = sim.schedule_timer(Duration::millis(1), [&] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    h.cancel();  // must not crash
    EXPECT_FALSE(h.active());
}

TEST(SimulatorTest, DefaultTimerHandleInactive) {
    TimerHandle h;
    EXPECT_FALSE(h.active());
    h.cancel();  // no-op
}

TEST(SimulatorTest, EventLimitThrows) {
    Simulator sim;
    sim.set_event_limit(10);
    std::function<void()> forever = [&] { sim.schedule_after(Duration::millis(1), forever); };
    sim.schedule_after(Duration::zero(), forever);
    EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulatorTest, PendingCount) {
    Simulator sim;
    EXPECT_TRUE(sim.empty());
    sim.schedule_after(Duration::millis(1), [] {});
    sim.schedule_after(Duration::millis(2), [] {});
    EXPECT_EQ(sim.pending(), 2u);
}

TEST(SimulatorTest, NextEventTimeReportsEarliestLiveEvent) {
    Simulator sim;
    EXPECT_EQ(sim.next_event_time(), TimePoint::max());
    sim.schedule_after(Duration::millis(10), [] {});
    sim.schedule_after(Duration::millis(3), [] {});
    EXPECT_EQ(sim.next_event_time(), TimePoint::origin() + Duration::millis(3));
}

TEST(SimulatorTest, NextEventTimeSkipsCancelledHead) {
    // Regression: a cancelled timer sitting at the queue head used to be
    // reported as the next event time, making engines wait on (or cut
    // windows around) an event that would never run.
    Simulator sim;
    TimerHandle h = sim.schedule_timer(Duration::millis(5), [] {});
    sim.schedule_after(Duration::millis(10), [] {});
    h.cancel();
    EXPECT_EQ(sim.next_event_time(), TimePoint::origin() + Duration::millis(10));
    EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorTest, NextEventTimeAllCancelledReportsIdle) {
    Simulator sim;
    TimerHandle a = sim.schedule_timer(Duration::millis(1), [] {});
    TimerHandle b = sim.schedule_timer(Duration::millis(2), [] {});
    a.cancel();
    b.cancel();
    EXPECT_EQ(sim.next_event_time(), TimePoint::max());
    EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, NextEventTimePrunePreservesRunSemantics) {
    // Pruning mirrors run_one's cancelled-pop bookkeeping, so peeking the
    // next event time before running changes nothing observable.
    const auto drive = [](bool peek) {
        Simulator sim;
        TimerHandle h = sim.schedule_timer(Duration::millis(3), [] {});
        sim.schedule_after(Duration::millis(8), [] {});
        h.cancel();
        if (peek) {
            (void)sim.next_event_time();
        }
        const std::uint64_t executed = sim.run();
        return std::tuple{executed, sim.now(), sim.last_event_at()};
    };
    EXPECT_EQ(drive(true), drive(false));
}

}  // namespace
}  // namespace fl::sim
