#include "simnet/fault_plan.h"

#include "obs/monitor.h"
#include "util/logging.h"

namespace ccube {
namespace simnet {

FaultPlan&
FaultPlan::failChannel(double at, int channel_id)
{
    FaultEvent event;
    event.at = at;
    event.kind = FaultEvent::Kind::kChannelFail;
    event.channel_id = channel_id;
    events_.push_back(event);
    return *this;
}

FaultPlan&
FaultPlan::restoreChannel(double at, int channel_id)
{
    FaultEvent event;
    event.at = at;
    event.kind = FaultEvent::Kind::kChannelRestore;
    event.channel_id = channel_id;
    events_.push_back(event);
    return *this;
}

FaultPlan&
FaultPlan::degradeChannel(double at, int channel_id, double factor)
{
    FaultEvent event;
    event.at = at;
    event.kind = FaultEvent::Kind::kChannelDegrade;
    event.channel_id = channel_id;
    event.factor = factor;
    events_.push_back(event);
    return *this;
}

FaultPlan&
FaultPlan::slowNode(double at, topo::NodeId node, double factor)
{
    FaultEvent event;
    event.at = at;
    event.kind = FaultEvent::Kind::kNodeSlowdown;
    event.node = node;
    event.factor = factor;
    events_.push_back(event);
    return *this;
}

void
applyFaultPlan(Network& network, const FaultPlan& plan)
{
    sim::Simulation& simulation = network.simulation();
    for (const FaultEvent& event : plan.events()) {
        CCUBE_CHECK(event.at >= simulation.now(),
                    "fault event in the past: t=" << event.at);
        // High priority so a fault scheduled at time t applies before
        // any transfer requested at the same instant.
        simulation.at(
            event.at,
            [&network, event]() {
                switch (event.kind) {
                case FaultEvent::Kind::kChannelFail:
                    network.failChannel(event.channel_id);
                    break;
                case FaultEvent::Kind::kChannelRestore:
                    network.restoreChannel(event.channel_id);
                    break;
                case FaultEvent::Kind::kChannelDegrade:
                    network.setChannelBandwidthFactor(event.channel_id,
                                                      event.factor);
                    break;
                case FaultEvent::Kind::kNodeSlowdown:
                    network.slowNode(event.node, event.factor);
                    break;
                }
            },
            /*priority=*/-1);
    }
}

FaultedRunResult
runProgramWithFaults(sim::Simulation& simulation, Network& network,
                     const sched::Program& program, double total_bytes,
                     const FaultPlan& plan)
{
    ProgramDriver driver(network, program, total_bytes);
    const std::uint64_t dropped_before = network.droppedTransfers();
    const double at = simulation.now();
    driver.start(at);
    applyFaultPlan(network, plan);
    // With a lethal plan the event queue simply drains (dropped
    // transfers never complete, so no further events are scheduled)
    // and run() returns with arrivals still pending — the DES analog
    // of the hang the ccl watchdog exists to catch.
    const double end = simulation.run();

    FaultedRunResult out;
    out.completed = driver.finished();
    out.end_time = end;
    out.dropped_transfers =
        network.droppedTransfers() - dropped_before;
    out.result = driver.partialResult(end);

    obs::Monitor& monitor = obs::Monitor::global();
    if (monitor.enabled())
        monitor.collectiveComplete(program.op, at, end, total_bytes,
                                   out.completed);
    return out;
}

} // namespace simnet
} // namespace ccube
