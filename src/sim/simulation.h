#ifndef CCUBE_SIM_SIMULATION_H_
#define CCUBE_SIM_SIMULATION_H_

/**
 * @file
 * Simulation context: owns the event queue and simulation-wide state.
 *
 * Components (channels, devices, schedules) hold a reference to one
 * Simulation and use it as their single source of simulated time.
 */

#include <cstdint>

#include "sim/event_queue.h"

namespace ccube {
namespace sim {

/**
 * Top-level simulation context.
 *
 * Also carries a simple named-counter facility used by components to
 * export statistics (transfers completed, bytes moved, ...) without
 * each component defining its own bookkeeping.
 */
class Simulation
{
  public:
    Simulation() = default;

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /** The event queue driving this simulation. */
    EventQueue& queue() { return queue_; }

    /** Current simulated time in seconds. */
    Time now() const { return queue_.now(); }

    /** Schedules @p fn to run @p delay seconds from now. */
    void after(Time delay, EventFn fn, int priority = 0);

    /** Schedules @p fn at absolute time @p when. */
    void at(Time when, EventFn fn, int priority = 0);

    /**
     * Runs to completion and returns the final simulated time. While a
     * metrics capture is enabled, also observes the wall-clock DES
     * throughput of the run as the `sim.events_per_sec` histogram and
     * counts executed events in `sim.events` (see obs::MetricRegistry).
     *
     * While the live monitor is enabled (see obs::Monitor), the run is
     * additionally chopped into --monitor-interval simulated-time
     * slices and a heartbeat snapshot fires between slices; a
     * non-positive interval keeps the single-slice fast path.
     */
    Time run();

    /** Clears events and time. */
    void reset();

  private:
    EventQueue queue_;
};

} // namespace sim
} // namespace ccube

#endif // CCUBE_SIM_SIMULATION_H_
