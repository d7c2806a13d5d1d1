/**
 * @file
 * Fault injection in the simulated fabric: failed channels drop
 * transfers (their completion never fires), degraded channels slow
 * down, restores re-enable traffic, and runProgramWithFaults
 * reports partial results instead of panicking when a plan kills the
 * collective mid-flight.
 */

#include <gtest/gtest.h>

#include "simnet/channel.h"
#include "simnet/fault_plan.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "util/units.h"

namespace ccube {
namespace simnet {
namespace {

TEST(NetworkFaults, FailedChannelDropsTransfers)
{
    sim::Simulation sim;
    const topo::Graph graph = topo::makeDgx1();
    Network net(sim, graph);

    net.failChannel(0);
    EXPECT_TRUE(net.channelFailed(0));
    bool done = false;
    net.transferOnChannel(0, 1024.0, [&]() { done = true; });
    sim.run();
    EXPECT_FALSE(done); // completion never fires on a dead link
    EXPECT_EQ(net.droppedTransfers(), 1u);
    EXPECT_DOUBLE_EQ(net.droppedBytes(), 1024.0);

    net.restoreChannel(0);
    EXPECT_FALSE(net.channelFailed(0));
    net.transferOnChannel(0, 1024.0, [&]() { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(net.droppedTransfers(), 1u);
}

TEST(NetworkFaults, DegradeScalesOccupancyAndCompounds)
{
    sim::Simulation sim;
    const topo::Graph graph = topo::makeDgx1();
    Network net(sim, graph);

    net.setChannelBandwidthFactor(0, 0.5);
    EXPECT_DOUBLE_EQ(net.channelBandwidthFactor(0), 0.5);
    net.setChannelBandwidthFactor(0, 0.5);
    EXPECT_DOUBLE_EQ(net.channelBandwidthFactor(0), 0.25);

    double slow_end = 0.0;
    net.transferOnChannel(0, util::mib(1), [&]() {});
    slow_end = sim.run();

    sim::Simulation sim_ref;
    Network net_ref(sim_ref, graph);
    net_ref.transferOnChannel(0, util::mib(1), [&]() {});
    const double ref_end = sim_ref.run();
    EXPECT_GT(slow_end, ref_end);
}

TEST(NetworkFaults, SlowNodeDegradesEveryIncidentChannel)
{
    sim::Simulation sim;
    const topo::Graph graph = topo::makeDgx1();
    Network net(sim, graph);
    net.slowNode(3, 0.5);
    for (int id = 0; id < graph.channelCount(); ++id) {
        const topo::ChannelDesc& desc = graph.channel(id);
        if (desc.src == 3 || desc.dst == 3)
            EXPECT_DOUBLE_EQ(net.channelBandwidthFactor(id), 0.5);
        else
            EXPECT_DOUBLE_EQ(net.channelBandwidthFactor(id), 1.0);
    }
}

TEST(FaultPlan, EventsFireAtTheirScheduledTimes)
{
    sim::Simulation sim;
    const topo::Graph graph = topo::makeDgx1();
    Network net(sim, graph);

    FaultPlan plan;
    plan.failChannel(1.0, 0).restoreChannel(2.0, 0);
    ASSERT_EQ(plan.events().size(), 2u);
    applyFaultPlan(net, plan);

    int completed = 0;
    // Before the failure, inside the outage, and after the restore.
    sim.at(0.5, [&]() {
        net.transferOnChannel(0, 1024.0, [&]() { ++completed; });
    });
    sim.at(1.5, [&]() {
        net.transferOnChannel(0, 1024.0, [&]() { ++completed; });
    });
    sim.at(2.5, [&]() {
        net.transferOnChannel(0, 1024.0, [&]() { ++completed; });
    });
    sim.run();
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(net.droppedTransfers(), 1u);
}

TEST(FaultedRun, EmptyPlanMatchesTheHealthySchedule)
{
    const topo::Graph graph = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(graph);
    const double bytes = util::mib(4);

    sim::Simulation sim_ref;
    Network net_ref(sim_ref, graph);
    const ScheduleResult healthy = simnet::runProgram(
        sim_ref, net_ref,
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped, 8), bytes);

    sim::Simulation sim;
    Network net(sim, graph);
    const FaultedRunResult faulted = simnet::runProgramWithFaults(
        sim, net,
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped, 8), bytes,
        FaultPlan());
    EXPECT_TRUE(faulted.completed);
    EXPECT_EQ(faulted.dropped_transfers, 0u);
    EXPECT_DOUBLE_EQ(faulted.result.completion_time,
                     healthy.completion_time);
}

TEST(FaultedRun, MidCollectiveLinkFailureYieldsPartialResult)
{
    const topo::Graph graph = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(graph);
    const double bytes = util::mib(4);

    sim::Simulation sim_ref;
    Network net_ref(sim_ref, graph);
    const double healthy_time =
        simnet::runProgram(sim_ref, net_ref,
                           sched::doubleTreeProgram(
                               dt, sched::PhaseMode::kOverlapped, 8),
                           bytes)
            .completion_time;

    // Kill both directions of a tree-carrying pair mid-flight.
    FaultPlan plan;
    for (int id : graph.channelIds(2, 3))
        plan.failChannel(0.3 * healthy_time, id);
    for (int id : graph.channelIds(3, 2))
        plan.failChannel(0.3 * healthy_time, id);

    sim::Simulation sim;
    Network net(sim, graph);
    const FaultedRunResult faulted = simnet::runProgramWithFaults(
        sim, net,
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped, 8), bytes,
        plan);
    EXPECT_FALSE(faulted.completed);
    EXPECT_GT(faulted.dropped_transfers, 0u);

    // Chunks that never arrived everywhere carry the -1.0 sentinel;
    // chunks finished before the failure carry real timestamps.
    int unfinished = 0;
    for (double ready : faulted.result.chunk_ready)
        if (ready < 0.0)
            ++unfinished;
    EXPECT_GT(unfinished, 0);
    EXPECT_LT(unfinished,
              static_cast<int>(faulted.result.chunk_ready.size()));
    EXPECT_LE(faulted.end_time, healthy_time);
}

TEST(FaultedRun, DegradePlanSlowsCompletionWithoutKillingIt)
{
    const topo::Graph graph = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(graph);
    const double bytes = util::mib(4);

    sim::Simulation sim_ref;
    Network net_ref(sim_ref, graph);
    const double healthy_time =
        simnet::runProgram(sim_ref, net_ref,
                           sched::doubleTreeProgram(
                               dt, sched::PhaseMode::kOverlapped, 8),
                           bytes)
            .completion_time;

    FaultPlan plan;
    for (int id : graph.channelIds(2, 3))
        plan.degradeChannel(0.0, id, 0.25);
    for (int id : graph.channelIds(3, 2))
        plan.degradeChannel(0.0, id, 0.25);

    sim::Simulation sim;
    Network net(sim, graph);
    const FaultedRunResult faulted = simnet::runProgramWithFaults(
        sim, net,
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped, 8), bytes,
        plan);
    EXPECT_TRUE(faulted.completed);
    EXPECT_EQ(faulted.dropped_transfers, 0u);
    EXPECT_GT(faulted.result.completion_time, healthy_time);
}

} // namespace
} // namespace simnet
} // namespace ccube
