#ifndef CCUBE_SIMNET_FAULT_PLAN_H_
#define CCUBE_SIMNET_FAULT_PLAN_H_

/**
 * @file
 * Timed fault injection for the simulated fabric.
 *
 * A FaultPlan is a list of events — channel fail/restore, bandwidth
 * degrade, whole-node slowdown — stamped with simulated times.
 * applyFaultPlan() schedules each one into the DES so the Network's
 * live channel state mutates *mid-collective*: transfers requested
 * after a failure are dropped (their completion callback never fires,
 * so the flow dies exactly like traffic into a dead NVLink), and
 * transfers after a degrade run at the reduced bandwidth. This is the
 * infrastructure-failure modeling that ASTRA-sim 3.0 motivates,
 * grafted onto the channel/FifoResource fabric.
 *
 * runProgramWithFaults() is the faulted analog of runProgram(): it
 * reports whether the collective survived the plan and returns
 * partial per-chunk results when it did not — the detection signal
 * bench/abl_fault_recovery feeds into core::recoverSchedule. Any
 * program runs under a plan, a recovery rung's included.
 */

#include <vector>

#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/graph.h"

namespace ccube {
namespace simnet {

/** One timed fault event. */
struct FaultEvent {
    enum class Kind {
        kChannelFail,    ///< drop all future transfers on the channel
        kChannelRestore, ///< clear a failure
        kChannelDegrade, ///< multiply channel bandwidth by factor
        kNodeSlowdown,   ///< multiply all of a node's links by factor
    };

    double at = 0.0;      ///< simulated time the event fires
    Kind kind = Kind::kChannelFail;
    int channel_id = -1;  ///< target channel (channel events)
    topo::NodeId node = -1; ///< target node (kNodeSlowdown)
    double factor = 1.0;  ///< bandwidth multiplier (degrade/slowdown)
};

/**
 * Ordered collection of fault events (builder-style; chainable).
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Fails @p channel_id at time @p at. */
    FaultPlan& failChannel(double at, int channel_id);

    /** Restores @p channel_id at time @p at. */
    FaultPlan& restoreChannel(double at, int channel_id);

    /** Multiplies @p channel_id's bandwidth by @p factor at @p at. */
    FaultPlan& degradeChannel(double at, int channel_id, double factor);

    /** Multiplies all of @p node's links by @p factor at @p at. */
    FaultPlan& slowNode(double at, topo::NodeId node, double factor);

    /** The events, in insertion order (the DES orders them by time). */
    const std::vector<FaultEvent>& events() const { return events_; }

    bool empty() const { return events_.empty(); }

  private:
    std::vector<FaultEvent> events_;
};

/**
 * Schedules every event of @p plan into @p network's simulation (at
 * absolute simulated times) so it mutates the live channel state
 * mid-run. Call after constructing the schedules, before
 * simulation.run(). Each event emits an obs:: instant when tracing.
 */
void applyFaultPlan(Network& network, const FaultPlan& plan);

/** Outcome of a schedule run under a fault plan. */
struct FaultedRunResult {
    /** Whether every chunk reached every rank despite the plan. */
    bool completed = false;

    /** Simulated time the DES drained (completion or stall point). */
    double end_time = 0.0;

    /** Transfers the network dropped on failed channels. */
    std::uint64_t dropped_transfers = 0;

    /** Per-chunk results; partial (-1.0 sentinels) when !completed. */
    ScheduleResult result;
};

/**
 * Runs @p program over @p total_bytes under @p plan; tolerates a plan
 * that kills the collective (the DES drains with arrivals
 * outstanding) and reports partial results instead of panicking.
 */
FaultedRunResult runProgramWithFaults(sim::Simulation& simulation,
                                      Network& network,
                                      const sched::Program& program,
                                      double total_bytes,
                                      const FaultPlan& plan);

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_FAULT_PLAN_H_
