/**
 * @file
 * Fabric-specific timed-network tests: cut-through switch stages,
 * lane policies, and endpoint-port contention — the modeling behind
 * the Fig. 14 scale-out runs.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/capture.h"
#include "obs/trace.h"
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

TEST(CutThrough, LowLatencyScalesEveryLatencyTerm)
{
    // LL doubles the wire bytes and scales every fixed latency term —
    // the entry channel's α, the switch delay and the exit channel's
    // α — by its alpha_factor f:
    //   t = (α·f + 2x) + 2α·f + (α·f + 2x)
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
    TransferEngine engine(net, ccl::Protocol::kLL);
    double done_at = -1.0;
    const double bytes = 1e6;
    engine.sendAlongRoute(topo::Route{g.shortestPath(0, 15)}, bytes,
                          [&]() { done_at = sim.now(); });
    sim.run();
    const ccl::ProtocolCosts ll = ccl::protocolCosts(ccl::Protocol::kLL);
    ASSERT_EQ(ll.payload_factor, 2.0);
    ASSERT_LT(ll.alpha_factor, 1.0);
    const double f = ll.alpha_factor;
    const double x = bytes / kBw;
    const double expected =
        (kAlpha * f + 2 * x) + 2 * kAlpha * f + (kAlpha * f + 2 * x);
    EXPECT_NEAR(done_at, expected, expected * 1e-12);
}

TEST(CutThrough, DetourThenSwitchRunOnAClampedLane)
{
    // g0 ⇉ g1 ⇉ s0 ⇉ s1 ⇉ g2: a GPU detour (store-and-forward at g1)
    // followed by a two-switch cut-through run, every pair doubled.
    // Lane 2 exceeds the two parallel channels, so every occupied
    // channel is the second (lane 1) of its pair; the switch-to-switch
    // delay is its first channel's latency. Each lane-1 channel has its
    // own α and bandwidth, so a wrong pick moves the completion time.
    topo::Graph g("detour_then_switches");
    for (const char* label : {"g0", "g1", "s0", "s1", "g2"})
        g.addNode(label);
    g.markSwitch(2);
    g.markSwitch(3);
    g.addLink(0, 1, kBw, 1e-6);
    g.addLink(0, 1, kBw / 2, 2e-6);
    g.addLink(1, 2, kBw, 1e-6);
    g.addLink(1, 2, kBw / 4, 3e-6);
    g.addLink(2, 3, kBw, 5e-6);
    g.addLink(2, 3, kBw, 7e-6);
    g.addLink(3, 4, kBw, 1e-6);
    g.addLink(3, 4, kBw / 2, 4e-6);
    const topo::Route route{{0, 1, 2, 3, 4}};
    constexpr int kLane = 2;

    sim::Simulation sim;
    Network net(sim, g);
    TransferEngine engine(net);
    double done_at = -1.0;
    const double bytes = 1e6;
    engine.sendAlongRoute(route, bytes, [&]() { done_at = sim.now(); },
                          kLane);
    sim.run();
    const double x = bytes / kBw;
    // Detour stage: (2 µs + 2x); cut-through stage: entry (3 µs + 4x),
    // switch delay 5 µs, exit (4 µs + 2x).
    const double expected =
        (2e-6 + 2 * x) + (3e-6 + 4 * x) + 5e-6 + (4e-6 + 2 * x);
    EXPECT_NEAR(done_at, expected, expected * 1e-12);

    // The channels that carried the send are treeChannelIds' pick for
    // the same route and lane, minus the switch-to-switch channel it
    // lists but the engine models as pure delay.
    std::vector<int> carried;
    for (int id = 0; id < g.channelCount(); ++id)
        if (net.channelGrants(id) > 0)
            carried.push_back(id);
    EXPECT_EQ(carried,
              (std::vector<int>{g.channelIds(0, 1)[1], g.channelIds(1, 2)[1],
                                g.channelIds(3, 4)[1]}));
    topo::TreeEmbedding embedding(topo::BinaryTree::inorder(2));
    embedding.routes = {route};
    std::vector<int> listed =
        treeChannelIds(g, embedding, kLane, /*down=*/true);
    const int mid = g.channelIds(2, 3)[1];
    ASSERT_TRUE(std::binary_search(listed.begin(), listed.end(), mid));
    listed.erase(std::find(listed.begin(), listed.end(), mid));
    EXPECT_EQ(listed, carried);
}

TEST(CutThrough, TracedSwitchSendEmitsOneFlowSpan)
{
    topo::SwitchFabricParams params;
    params.num_nodes = 16;
    params.links_per_node = 2;
    params.link_latency = kAlpha;
    const topo::Graph g = topo::makeSwitchFabric(params);

    obs::TraceRecorder recorder;
    recorder.enable();
    obs::ScopedCapture capture{obs::Capture(&recorder)};
    sim::Simulation sim;
    Network net(sim, g);
    TransferEngine engine(net);
    double done_at = -1.0;
    const topo::Route route{g.shortestPath(0, 15)};
    ASSERT_EQ(route.hopCount(), 4);
    engine.sendAlongRoute(route, 1e6, [&]() { done_at = sim.now(); },
                          /*lane=*/1);
    sim.run();

    std::vector<obs::TraceEvent> flows;
    for (const obs::TraceEvent& event : recorder.snapshot())
        if (event.cat == "simnet.flow")
            flows.push_back(event);
    ASSERT_EQ(flows.size(), 1u);
    const obs::TraceEvent& flow = flows.front();
    EXPECT_EQ(flow.name, "flow " + g.nodeLabel(0) + "->" + g.nodeLabel(15));
    EXPECT_EQ(flow.phase, 'X');
    EXPECT_EQ(flow.pid, obs::pids::simNode(0));
    EXPECT_EQ(flow.tid, obs::kFlowTrackBase + 1);
    EXPECT_EQ(flow.ts_us, 0.0);
    EXPECT_EQ(flow.dur_us, done_at * 1e6);
    ASSERT_EQ(flow.args.size(), 2u);
    EXPECT_EQ(flow.args[0].first, "bytes");
    EXPECT_EQ(flow.args[0].second, 1e6);
    EXPECT_EQ(flow.args[1].first, "hops");
    EXPECT_EQ(flow.args[1].second, 4.0);
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
