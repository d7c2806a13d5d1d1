#include "sim/simulation.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/monitor.h"

namespace ccube {
namespace sim {

namespace {

/**
 * Drains @p queue in monitor-interval slices, firing a heartbeat
 * snapshot at each tick boundary. Events scheduled exactly on a tick
 * execute before the tick's snapshot (runUntil is inclusive), so a
 * heartbeat always observes a consistent post-event state.
 */
Time
runWithHeartbeats(EventQueue& queue, obs::Monitor& monitor,
                  double interval)
{
    Time next = queue.now() + interval;
    while (!queue.empty()) {
        queue.runUntil(next);
        if (queue.empty())
            break;
        monitor.heartbeat(next);
        next += interval;
    }
    return queue.now();
}

} // namespace

Time
Simulation::run()
{
    obs::MetricRegistry& registry = obs::MetricRegistry::global();
    obs::Monitor& monitor = obs::Monitor::global();
    const bool monitored = monitor.enabled();
    if (!registry.enabled() && !monitored)
        return queue_.run();

    double heartbeat_interval = 0.0;
    if (monitored) {
        monitor.beginRun();
        heartbeat_interval = monitor.interval();
    }
    const std::uint64_t before = queue_.executedCount();
    const auto start = std::chrono::steady_clock::now();
    const Time end =
        heartbeat_interval > 0.0
            ? runWithHeartbeats(queue_, monitor, heartbeat_interval)
            : queue_.run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (registry.enabled()) {
        const double events =
            static_cast<double>(queue_.executedCount() - before);
        registry.addCounter("sim.events", events);
        if (elapsed.count() > 0.0 && events > 0.0)
            registry.observe("sim.events_per_sec",
                             events / elapsed.count());
    }
    return end;
}

void
Simulation::after(Time delay, EventFn fn, int priority)
{
    queue_.schedule(queue_.now() + delay, std::move(fn), priority);
}

void
Simulation::at(Time when, EventFn fn, int priority)
{
    queue_.schedule(when, std::move(fn), priority);
}

void
Simulation::reset()
{
    queue_.reset();
}

} // namespace sim
} // namespace ccube
