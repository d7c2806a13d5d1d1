/**
 * @file
 * Fabric-specific timed-network tests: cut-through switch stages,
 * lane policies, and endpoint-port contention — the modeling behind
 * the Fig. 14 scale-out runs.
 */

#include <gtest/gtest.h>

#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "simnet/transfer_engine.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/switch_fabric.h"

namespace ccube {
namespace simnet {
namespace {

constexpr double kBw = 25e9;
constexpr double kAlpha = 1e-6;

TEST(SwitchMarking, FabricMarksSwitchesOnly)
{
    topo::SwitchFabricParams params;
    params.num_nodes = 16;
    const topo::Graph g = topo::makeSwitchFabric(params);
    for (topo::NodeId n = 0; n < 16; ++n)
        EXPECT_FALSE(g.isSwitch(n));
    for (topo::NodeId n = 16; n < g.nodeCount(); ++n)
        EXPECT_TRUE(g.isSwitch(n));
}

TEST(CutThrough, SwitchRouteChargesOnlyEndpointPorts)
{
    // node0 → leaf → spine → leaf' → node1: four hops; cut-through
    // charges the two endpoint channels and adds the two middle
    // latencies as pure delay:
    //   t = (α+x) + α_mid1 + α_mid2 + (α+x)
    topo::SwitchFabricParams params;
    params.num_nodes = 16;
    params.leaf_radix = 8;
    params.links_per_node = 1;
    params.link_latency = kAlpha;
    params.switch_latency = 0.0;
    params.link_bandwidth = kBw;
    const topo::Graph g = topo::makeSwitchFabric(params);

    sim::Simulation sim;
    Network net(sim, g);
    TransferEngine engine(net);
    double done_at = -1.0;
    const double bytes = 1e6;
    engine.sendAlongRoute(
        topo::Route{g.shortestPath(0, 15)}, bytes,
        [&]() { done_at = sim.now(); });
    sim.run();
    const double x = bytes / kBw;
    // Spine uplinks are widened (radix × bw): the exit channel into
    // node 15 is a plain endpoint link.
    const double expected =
        (kAlpha + x) + 2 * kAlpha + (kAlpha + x);
    EXPECT_NEAR(done_at, expected, expected * 1e-9);
}

TEST(CutThrough, GpuDetourStillStoresAndForwards)
{
    // A GPU transit (unmarked node) must cost two full occupancies.
    topo::Graph g("gpus");
    g.addNode("a");
    g.addNode("b");
    g.addNode("c");
    g.addLink(0, 1, kBw, kAlpha);
    g.addLink(1, 2, kBw, kAlpha);
    sim::Simulation sim;
    Network net(sim, g);
    TransferEngine engine(net);
    double done_at = -1.0;
    engine.sendAlongRoute(topo::Route{{0, 1, 2}}, 1e6,
                          [&]() { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(done_at, 2 * (kAlpha + 1e6 / kBw), 1e-12);
}

TEST(CutThrough, EndpointPortStillContends)
{
    // Two transfers leaving the same endpoint must serialize on its
    // port even when the rest of the route cuts through.
    topo::SwitchFabricParams params;
    params.num_nodes = 16;
    params.links_per_node = 1;
    params.link_latency = kAlpha;
    params.switch_latency = 0.0;
    const topo::Graph g = topo::makeSwitchFabric(params);
    sim::Simulation sim;
    Network net(sim, g);
    TransferEngine engine(net);
    std::vector<double> done;
    for (topo::NodeId dst : {15, 14})
        engine.sendAlongRoute(
            topo::Route{g.shortestPath(0, dst)},
            1e6, [&]() { done.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done.size(), 2u);
    const double x = 1e6 / kBw;
    // The second transfer's entry hold starts after the first's.
    EXPECT_GT(done[1], done[0] - 1e-12);
    EXPECT_NEAR(done[1] - done[0], kAlpha + x, (kAlpha + x) * 0.5);
}

TEST(LanePolicy, PerTreeLanesBeatPerRoleLanesOnTurnaround)
{
    // With two endpoint links, assigning each *tree* a private lane
    // (kPointToPoint) gives the first chunk an uncontended ascent —
    // the other tree's reduction traffic rides the other lane. The
    // per-role split (kSharedPort) makes both trees' reductions share
    // one lane, halving the ascent rate and delaying turnaround.
    topo::SwitchFabricParams params;
    params.num_nodes = 16;
    params.links_per_node = 2;
    params.link_latency = kAlpha;
    const topo::Graph g = topo::makeSwitchFabric(params);
    const auto dt = topo::makeMirroredDoubleTree(g, 16);
    const double bytes = 64e6;

    sim::Simulation sim_a;
    Network net_a(sim_a, g);
    const auto p2p = simnet::runProgram(sim_a, net_a,
                                        sched::doubleTreeProgram(
                                            dt, sched::PhaseMode::kOverlapped,
                                            64),
                                        bytes);

    sim::Simulation sim_b;
    Network net_b(sim_b, g);
    const auto shared = simnet::runProgram(sim_b, net_b,
                                           sched::doubleTreeProgram(
                                               dt,
                                               sched::PhaseMode::kOverlapped,
                                               64,
                                               sched::LanePolicy::kSharedPort),
                                           bytes);

    EXPECT_LT(p2p.turnaroundTime(), shared.turnaroundTime());
    // Completion is within ~2x either way — the policies trade
    // contention between phases, not total bandwidth.
    EXPECT_LT(p2p.completion_time, shared.completion_time * 2.0);
    EXPECT_LT(shared.completion_time, p2p.completion_time * 2.0);
}

TEST(LanePolicy, PointToPointRightForDgx1)
{
    // On the DGX-1, the point-to-point policy keeps each tree on its
    // own channel of the double links; overlap must beat two-phase.
    const topo::Graph dgx1 = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(dgx1);
    const double bytes = 64e6;

    sim::Simulation sim_a;
    Network net_a(sim_a, dgx1);
    const double base = simnet::runProgram(sim_a, net_a,
                                           sched::doubleTreeProgram(
                                               dt, sched::PhaseMode::kTwoPhase,
                                               32),
                                           bytes)
                            .completion_time;
    sim::Simulation sim_b;
    Network net_b(sim_b, dgx1);
    const double over = simnet::runProgram(sim_b, net_b,
                                           sched::doubleTreeProgram(
                                               dt,
                                               sched::PhaseMode::kOverlapped,
                                               32),
                                           bytes)
                            .completion_time;
    EXPECT_GT(base / over, 1.6);
}

TEST(FabricScaling, TreeCompletionGrowsLogarithmically)
{
    // Doubling the node count must add roughly one pipeline level,
    // not double the time (the tree's O(log P) scalability).
    const double bytes = 8e6;
    double prev = 0.0;
    for (int p : {16, 32, 64, 128}) {
        topo::SwitchFabricParams params;
        params.num_nodes = p;
        params.link_latency = kAlpha;
        const topo::Graph g = topo::makeSwitchFabric(params);
        const auto dt = topo::makeMirroredDoubleTree(g, p);
        sim::Simulation sim;
        Network net(sim, g);
        const double t = simnet::runProgram(sim, net,
                                            sched::doubleTreeProgram(
                                                dt,
                                                sched::PhaseMode::kOverlapped,
                                                16,
                                                sched::LanePolicy::kSharedPort),
                                            bytes)
                             .completion_time;
        if (prev > 0.0) {
            EXPECT_LT(t, prev * 1.5) << "p=" << p;
        }
        prev = t;
    }
}

} // namespace
} // namespace simnet
} // namespace ccube
