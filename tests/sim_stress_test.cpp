/**
 * @file
 * Randomized stress test of the slab-pool event queue against a
 * reference model (a plain std::priority_queue with the documented
 * (when, priority, seq) ordering). Both sides execute the same
 * scripted workload — including events that schedule more events from
 * inside their callbacks, duplicate timestamps, priority ties, resets,
 * and runUntil windows — and must agree on the exact execution order,
 * firing times, and final clock. This pins down the orderings the
 * collective schedules rely on while exercising slot reuse and pool
 * reallocation under reentrancy.
 */

#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace ccube {
namespace {

/** Execution log entry: which scripted event fired and when. */
struct Firing {
    int id;
    sim::Time when;
    std::uint64_t order;

    bool
    operator==(const Firing& other) const
    {
        return id == other.id && when == other.when &&
               order == other.order;
    }
};

/**
 * Reference queue: the documented semantics with none of the slab,
 * inline-callback, or 4-ary-heap machinery. Events carry only the
 * scripted id; the driver interprets it.
 */
class ModelQueue
{
  public:
    void
    schedule(sim::Time when, int id, int priority)
    {
        heap_.push(Entry{when, priority, next_seq_++, id});
    }

    bool
    step(int& id)
    {
        if (heap_.empty())
            return false;
        const Entry entry = heap_.top();
        heap_.pop();
        now_ = entry.when;
        id = entry.id;
        return true;
    }

    bool
    peekWithin(sim::Time deadline) const
    {
        return !heap_.empty() && heap_.top().when <= deadline;
    }

    sim::Time now() const { return now_; }
    void setNow(sim::Time now) { now_ = now; }
    bool empty() const { return heap_.empty(); }

    void
    reset()
    {
        heap_ = {};
        now_ = 0.0;
        next_seq_ = 0;
    }

  private:
    struct Entry {
        sim::Time when;
        int priority;
        std::uint64_t seq;
        int id;
    };

    struct Later {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    sim::Time now_ = 0.0;
    std::uint64_t next_seq_ = 0;
};

/**
 * A scripted event: fires, and may schedule a batch of children at
 * deterministic offsets. Child parameters are derived from the parent
 * id with a per-run RNG stream, so the real queue and the model see
 * exactly the same workload without sharing state.
 */
struct ScriptedEvent {
    sim::Time delay;      ///< offset from the scheduling event
    int priority;
    int children;         ///< events scheduled from inside the callback
};

/** Deterministic event parameters for scripted event @p id. */
ScriptedEvent
scriptedEvent(std::uint64_t seed, int id)
{
    util::Rng rng(seed ^
                  (0x9E3779B97F4A7C15ull * static_cast<unsigned>(id + 1)));
    ScriptedEvent event;
    // Coarse grid on purpose: collisions in `when` are the interesting
    // case (they exercise the priority and seq tie-breakers).
    event.delay = static_cast<double>(rng.uniformInt(0, 8)) * 0.25;
    event.priority = static_cast<int>(rng.uniformInt(-2, 2));
    // Geometric-ish fan-out, bounded so a run always terminates.
    const std::int64_t roll = rng.uniformInt(0, 9);
    event.children = roll < 6 ? 0 : static_cast<int>(roll - 6);
    return event;
}

/** Drives the real queue through one scripted run. */
std::vector<Firing>
runReal(sim::EventQueue& queue, std::uint64_t seed, int roots,
        int max_events)
{
    std::vector<Firing> log;
    int next_id = 0;
    std::uint64_t order = 0;

    // Recursive scheduling helper: event `id` fires, logs itself, and
    // schedules its children with ids handed out in firing order.
    struct Driver {
        sim::EventQueue& queue;
        std::uint64_t seed;
        std::vector<Firing>& log;
        int& next_id;
        std::uint64_t& order;
        int max_events;

        void
        schedule(int id)
        {
            const ScriptedEvent event = scriptedEvent(seed, id);
            queue.schedule(queue.now() + event.delay, [this, id]() {
                fire(id);
            }, event.priority);
        }

        void
        fire(int id)
        {
            log.push_back(Firing{id, queue.now(), order++});
            const ScriptedEvent event = scriptedEvent(seed, id);
            for (int c = 0; c < event.children; ++c) {
                if (next_id >= max_events)
                    return;
                schedule(next_id++);
            }
        }
    } driver{queue, seed, log, next_id, order, max_events};

    for (int r = 0; r < roots; ++r)
        driver.schedule(next_id++);
    queue.run();
    return log;
}

/** Drives the reference model through the same scripted run. */
std::vector<Firing>
runModel(std::uint64_t seed, int roots, int max_events)
{
    ModelQueue queue;
    std::vector<Firing> log;
    int next_id = 0;
    std::uint64_t order = 0;

    auto schedule = [&](int id) {
        const ScriptedEvent event = scriptedEvent(seed, id);
        queue.schedule(queue.now() + event.delay, id, event.priority);
    };

    for (int r = 0; r < roots; ++r)
        schedule(next_id++);
    int id = -1;
    while (queue.step(id)) {
        log.push_back(Firing{id, queue.now(), order++});
        const ScriptedEvent event = scriptedEvent(seed, id);
        for (int c = 0; c < event.children && next_id < max_events;
             ++c)
            schedule(next_id++);
    }
    return log;
}

TEST(EventQueueStress, MatchesReferenceModelAcrossSeeds)
{
    for (std::uint64_t seed :
         {1ull, 2ull, 3ull, 17ull, 42ull, 99ull, 12345ull, 777777ull}) {
        sim::EventQueue queue;
        const std::vector<Firing> real =
            runReal(queue, seed, /*roots=*/16, /*max_events=*/2000);
        const std::vector<Firing> model =
            runModel(seed, /*roots=*/16, /*max_events=*/2000);
        ASSERT_EQ(real.size(), model.size()) << "seed " << seed;
        for (std::size_t i = 0; i < real.size(); ++i)
            ASSERT_TRUE(real[i] == model[i])
                << "seed " << seed << " firing " << i << ": real (id "
                << real[i].id << ", t " << real[i].when
                << ") vs model (id " << model[i].id << ", t "
                << model[i].when << ")";
        EXPECT_TRUE(queue.empty()) << "seed " << seed;
        EXPECT_EQ(queue.executedCount(), real.size());
    }
}

TEST(EventQueueStress, ReusedQueueStaysConsistent)
{
    // One queue, many runs: slot recycling and pool growth from a
    // previous run must not leak into the next one's ordering.
    sim::EventQueue queue;
    for (std::uint64_t seed : {5ull, 6ull, 7ull, 8ull}) {
        queue.reset();
        EXPECT_DOUBLE_EQ(queue.now(), 0.0);
        const std::vector<Firing> real =
            runReal(queue, seed, /*roots=*/8, /*max_events=*/500);
        const std::vector<Firing> model =
            runModel(seed, /*roots=*/8, /*max_events=*/500);
        ASSERT_EQ(real, model) << "seed " << seed;
    }
}

TEST(EventQueueStress, RunUntilHonorsDeadlineLikeTheModel)
{
    for (std::uint64_t seed : {11ull, 23ull, 31ull}) {
        sim::EventQueue queue;
        std::vector<int> fired;
        util::Rng rng(seed);
        const int events = 400;
        for (int i = 0; i < events; ++i) {
            const double when = rng.uniform(0.0, 10.0);
            const int priority = static_cast<int>(rng.uniformInt(-1, 1));
            queue.schedule(when, [&fired, i]() { fired.push_back(i); },
                           priority);
        }

        ModelQueue model;
        util::Rng model_rng(seed);
        for (int i = 0; i < events; ++i) {
            const double when = model_rng.uniform(0.0, 10.0);
            const int priority =
                static_cast<int>(model_rng.uniformInt(-1, 1));
            model.schedule(when, i, priority);
        }

        // Drain in windows; events at exactly the deadline run.
        for (double deadline : {2.5, 5.0, 5.0, 7.75, 11.0}) {
            fired.clear();
            const double end = queue.runUntil(deadline);
            std::vector<int> expected;
            int id = -1;
            while (model.peekWithin(deadline) && model.step(id))
                expected.push_back(id);
            model.setNow(std::max(model.now(), deadline));
            EXPECT_EQ(fired, expected)
                << "seed " << seed << " deadline " << deadline;
            EXPECT_DOUBLE_EQ(end, model.now())
                << "seed " << seed << " deadline " << deadline;
        }
        EXPECT_TRUE(queue.empty());
    }
}

/**
 * A hand-written event: fires at `when`; when `reentrant`, its callback
 * schedules one more event at the same instant with `child_priority`.
 */
struct TieEvent {
    sim::Time when;
    int priority;
    bool reentrant = false;
    int child_priority = 0;
};

/** (id, time) of each firing; children of event i have id n + i. */
using FiringLog = std::vector<std::pair<int, sim::Time>>;

/** Runs @p events through the real queue and the model and expects
 *  both to fire the same ids at the same times. Returns the real log. */
FiringLog
expectModelOrder(const std::vector<TieEvent>& events)
{
    const int n = static_cast<int>(events.size());
    sim::EventQueue queue;
    FiringLog real;
    for (int i = 0; i < n; ++i) {
        queue.schedule(events[i].when, [&, i]() {
            real.emplace_back(i, queue.now());
            if (events[i].reentrant)
                queue.schedule(queue.now(), [&, i]() {
                    real.emplace_back(n + i, queue.now());
                }, events[i].child_priority);
        }, events[i].priority);
    }
    queue.run();

    ModelQueue model;
    for (int i = 0; i < n; ++i)
        model.schedule(events[i].when, i, events[i].priority);
    FiringLog expected;
    int id = -1;
    while (model.step(id)) {
        expected.emplace_back(id, model.now());
        if (id < n && events[id].reentrant)
            model.schedule(model.now(), n + id, events[id].child_priority);
    }
    EXPECT_EQ(real, expected);
    return real;
}

TEST(EventQueueKeys, SignedZerosAtOneInstantFireInFifoOrder)
{
    // -0.0 must order as the same instant as 0.0, not after every
    // positive time as its raw bit pattern would.
    const FiringLog log = expectModelOrder(
        {{0.0, 0}, {-0.0, 0}, {0.0, 0}, {0.5, 0}, {-0.0, 0}});
    const std::vector<int> ids = {0, 1, 2, 4, 3};
    ASSERT_EQ(log.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(log[i].first, ids[i]) << "firing " << i;
}

TEST(EventQueueKeys, ExtremeTimesOrderLikeTheModel)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kTiny = std::numeric_limits<double>::denorm_min();
    constexpr double kHuge = std::numeric_limits<double>::max();
    const FiringLog log = expectModelOrder({
        {kInf, 0},
        {kTiny, 0},
        {kHuge, 1},
        {2 * kTiny, -1},
        {std::numeric_limits<double>::min(), 0},
        {kHuge, 0},
        {1e300, 0, true, -1},
        {kTiny, -1},
        {kInf, -1},
        {0.0, 0},
        {1.0, 0},
    });
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log.front().first, 9);
    EXPECT_EQ(log.back().second, kInf);
}

TEST(EventQueueKeys, PriorityExtremesOrderLikeTheModel)
{
    constexpr int kLow = std::numeric_limits<std::int16_t>::min();
    constexpr int kHigh = std::numeric_limits<std::int16_t>::max();
    const FiringLog log = expectModelOrder({
        {1.0, kHigh},
        {1.0, 0},
        {1.0, kLow, true, kHigh},
        {1.0, -1},
        {1.0, kLow},
        {1.0, kHigh, true, kLow},
        {0.5, kHigh},
    });
    const std::vector<int> ids = {6, 2, 4, 3, 1, 0, 5, 12, 9};
    ASSERT_EQ(log.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(log[i].first, ids[i]) << "firing " << i;
}

TEST(EventQueueKeys, ThousandEventsAtOneInstantWithReentrantChildren)
{
    util::Rng rng(27);
    std::vector<TieEvent> events;
    for (int i = 0; i < 1000; ++i) {
        TieEvent event{2.5, static_cast<int>(rng.uniformInt(-3, 3))};
        if (rng.uniformInt(0, 3) == 0) {
            event.reentrant = true;
            event.child_priority = static_cast<int>(rng.uniformInt(-3, 3));
        }
        events.push_back(event);
    }
    const FiringLog log = expectModelOrder(events);
    EXPECT_GT(log.size(), 1000u);
}

TEST(EventQueueKeysDeathTest, PriorityOutsideInt16Panics)
{
    sim::EventQueue queue;
    EXPECT_DEATH(queue.schedule(1.0, []() {}, 32768), "int16_t");
    EXPECT_DEATH(queue.schedule(1.0, []() {}, -32769), "int16_t");
}

} // namespace
} // namespace ccube
