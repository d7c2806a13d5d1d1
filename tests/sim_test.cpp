/**
 * @file
 * Unit tests for the discrete-event simulation core: event ordering,
 * determinism, and FIFO resource serialization (DESIGN.md invariant
 * #6).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace ccube {
namespace sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(3.0, [&]() { order.push_back(3); });
    queue.schedule(1.0, [&]() { order.push_back(1); });
    queue.schedule(2.0, [&]() { order.push_back(2); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsFifo)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        queue.schedule(1.0, [&order, i]() { order.push_back(i); });
    queue.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(1.0, [&]() { order.push_back(2); }, /*priority=*/2);
    queue.schedule(1.0, [&]() { order.push_back(1); }, /*priority=*/1);
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(1.0, [&]() {
        queue.schedule(2.0, [&]() { ++fired; });
    });
    queue.run();
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(queue.now(), 2.0);
    EXPECT_EQ(queue.executedCount(), 2u);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(1.0, [&]() { ++fired; });
    queue.schedule(5.0, [&]() { ++fired; });
    queue.runUntil(2.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(queue.now(), 2.0);
    queue.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue queue;
    queue.schedule(1.0, []() {});
    queue.run();
    queue.reset();
    EXPECT_TRUE(queue.empty());
    EXPECT_DOUBLE_EQ(queue.now(), 0.0);
    EXPECT_EQ(queue.executedCount(), 0u);
}

TEST(EventQueue, SchedulingInThePastDies)
{
    EventQueue queue;
    queue.schedule(5.0, []() {});
    queue.run();
    EXPECT_DEATH(queue.schedule(1.0, []() {}), "past");
}

TEST(Simulation, AfterIsRelative)
{
    Simulation sim;
    double fired_at = -1.0;
    sim.at(2.0, [&]() {
        sim.after(3.0, [&]() { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(FifoResource, SerializesRequests)
{
    Simulation sim;
    FifoResource res(sim, "ch");
    std::vector<double> done_times;
    for (int i = 0; i < 3; ++i) {
        res.request(2.0, [&]() { done_times.push_back(sim.now()); });
    }
    sim.run();
    ASSERT_EQ(done_times.size(), 3u);
    EXPECT_DOUBLE_EQ(done_times[0], 2.0);
    EXPECT_DOUBLE_EQ(done_times[1], 4.0);
    EXPECT_DOUBLE_EQ(done_times[2], 6.0);
    EXPECT_DOUBLE_EQ(res.busyTime(), 6.0);
    EXPECT_EQ(res.grants(), 3u);
}

TEST(FifoResource, OccupancyIntervalsNeverOverlap)
{
    Simulation sim;
    FifoResource res(sim, "ch");
    // Each interval is read back from its completion: it ends when
    // `done` fires and started one hold earlier.
    std::vector<std::pair<double, double>> intervals;
    for (int i = 0; i < 5; ++i) {
        const double hold = 0.5 + 0.25 * i;
        res.request(hold, [&, hold]() {
            intervals.emplace_back(sim.now() - hold, sim.now());
        });
    }
    sim.run();
    ASSERT_EQ(intervals.size(), 5u);
    for (std::size_t i = 1; i < intervals.size(); ++i)
        EXPECT_GE(intervals[i].first, intervals[i - 1].second);
}

TEST(FifoResource, HundredWaitersFinishInRequestOrder)
{
    // 96 requests at once leave 95 waiting, 12 blocks of 8; four more
    // issued from the eighth completion, after the head block was read
    // through, fill the tail block and spill into the spare, the
    // chain's 13th block.
    Simulation sim;
    FifoResource res(sim, "ch");
    constexpr int kRequests = 100;
    constexpr int kFirstWave = 96;
    std::vector<int> finished;
    std::vector<double> done_times;
    std::vector<std::size_t> queue_lengths;
    int requested = 0;
    auto hold_of = [](int i) { return 0.5 + 0.125 * i; };
    std::function<void()> issue = [&]() {
        const int i = requested++;
        res.request(hold_of(i), [&, i]() {
            finished.push_back(i);
            done_times.push_back(sim.now());
            if (i == 7)
                while (requested < kRequests)
                    issue();
            queue_lengths.push_back(res.queueLength());
        });
    };
    while (requested < kFirstWave)
        issue();
    EXPECT_EQ(res.queueLength(), static_cast<std::size_t>(kFirstWave - 1));
    sim.run();

    ASSERT_EQ(finished.size(), static_cast<std::size_t>(kRequests));
    double end = 0.0;
    for (int i = 0; i < kRequests; ++i) {
        end += hold_of(i);
        EXPECT_EQ(finished[i], i);
        EXPECT_EQ(done_times[i], end) << "request " << i;
        // Request i + 1 is granted before request i's callback fires.
        const int issued = i < 7 ? kFirstWave : kRequests;
        EXPECT_EQ(queue_lengths[i],
                  static_cast<std::size_t>(std::max(0, issued - i - 2)))
            << "request " << i;
    }
    EXPECT_EQ(res.queueLength(), 0u);
    EXPECT_EQ(res.grants(), static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(res.busyTime(), end);
}

TEST(FifoResource, ZeroHoldIsImmediate)
{
    Simulation sim;
    FifoResource res(sim, "ch");
    bool done = false;
    res.request(0.0, [&]() { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(FifoResource, InterleavesWithEvents)
{
    Simulation sim;
    FifoResource res(sim, "ch");
    std::vector<int> order;
    res.request(3.0, [&]() { order.push_back(1); });
    sim.at(1.0, [&]() { order.push_back(0); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

} // namespace
} // namespace sim
} // namespace ccube
