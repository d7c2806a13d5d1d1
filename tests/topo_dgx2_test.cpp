/**
 * @file
 * DGX-2 (NVSwitch) topology tests — the paper's future-work platform:
 * structure, plane-private double trees, conflict freedom with spare
 * planes, and timed behaviour.
 */

#include <gtest/gtest.h>

#include <set>

#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/detour_router.h"
#include "topo/dgx2.h"
#include "util/units.h"

namespace ccube {
namespace topo {
namespace {

TEST(Dgx2, StructureMatchesPlatform)
{
    const Dgx2Params params;
    const Graph g = makeDgx2(params);
    // 16 GPUs + 6 switch planes.
    EXPECT_EQ(g.nodeCount(), 22);
    // Every GPU: one link per plane.
    for (NodeId gpu = 0; gpu < 16; ++gpu) {
        EXPECT_EQ(static_cast<int>(g.outChannels(gpu).size()), 6);
        EXPECT_FALSE(g.isSwitch(gpu));
    }
    for (int p = 0; p < 6; ++p) {
        const NodeId sw = dgx2SwitchNode(params, p);
        EXPECT_TRUE(g.isSwitch(sw));
        EXPECT_EQ(static_cast<int>(g.outChannels(sw).size()), 16);
    }
}

TEST(Dgx2, NoDirectGpuPairs)
{
    const Graph g = makeDgx2();
    for (NodeId a = 0; a < 16; ++a) {
        for (NodeId b = 0; b < 16; ++b) {
            if (a != b) {
                EXPECT_FALSE(g.hasChannel(a, b));
            }
        }
    }
    // But every pair is two hops through a plane.
    EXPECT_EQ(g.shortestPath(0, 15).size(), 3u);
}

TEST(Dgx2, DoubleTreeIsConflictFreeWithoutDetourKernels)
{
    const Dgx2Params params;
    const Graph g = makeDgx2(params);
    const DoubleTreeEmbedding dt = makeDgx2DoubleTree(g, params);
    EXPECT_TRUE(dt.tree0.tree.valid());
    EXPECT_TRUE(dt.tree1.tree.valid());
    EXPECT_TRUE(isConflictFree(g, dt));
    // Every detour hop is a switch plane, which forwards in hardware:
    // no GPU forwarding kernel, so no rules.
    EXPECT_TRUE(extractForwardingRules(dt).empty());
}

TEST(Dgx2, TreesUseDisjointPlaneSets)
{
    // Tree 0 edge-colors across planes {0,1,2}, tree 1 across
    // {3,4,5}: no plane carries both trees.
    const Dgx2Params params;
    const Graph g = makeDgx2(params);
    const DoubleTreeEmbedding dt = makeDgx2DoubleTree(g, params);
    for (const Route& route : dt.tree0.routes) {
        EXPECT_GE(route.hops[1], dgx2SwitchNode(params, 0));
        EXPECT_LE(route.hops[1], dgx2SwitchNode(params, 2));
    }
    for (const Route& route : dt.tree1.routes) {
        EXPECT_GE(route.hops[1], dgx2SwitchNode(params, 3));
        EXPECT_LE(route.hops[1], dgx2SwitchNode(params, 5));
    }
}

TEST(Dgx2, EdgeColoringKeepsGpuPortsExclusive)
{
    // No GPU uses the same plane for two logical edges of one tree —
    // the property that makes the embedding conflict-free.
    const Dgx2Params params;
    const Graph g = makeDgx2(params);
    const DoubleTreeEmbedding dt = makeDgx2DoubleTree(g, params);
    for (const TreeEmbedding* emb : {&dt.tree0, &dt.tree1}) {
        std::set<std::pair<NodeId, NodeId>> gpu_plane;
        for (const Route& route : emb->routes) {
            // Endpoint ports of this edge: (parent, plane) and
            // (child, plane).
            EXPECT_TRUE(gpu_plane
                            .insert({route.hops[0], route.hops[1]})
                            .second);
            EXPECT_TRUE(gpu_plane
                            .insert({route.hops[2], route.hops[1]})
                            .second);
        }
    }
}

TEST(Dgx2, OverlappedBeatsTwoPhase)
{
    const Dgx2Params params;
    const Graph g = makeDgx2(params);
    const DoubleTreeEmbedding dt = makeDgx2DoubleTree(g, params);
    const double bytes = util::mib(64);

    sim::Simulation sim_a;
    simnet::Network net_a(sim_a, g);
    const double base =
        simnet::runProgram(sim_a, net_a,
                           sched::doubleTreeProgram(dt,
                                                    sched::PhaseMode::kTwoPhase,
                                                    32),
                           bytes)
            .completion_time;
    sim::Simulation sim_b;
    simnet::Network net_b(sim_b, g);
    const double over =
        simnet::runProgram(sim_b, net_b,
                           sched::doubleTreeProgram(
                               dt, sched::PhaseMode::kOverlapped, 32),
                           bytes)
            .completion_time;
    // Same ≥1.6x communication win as on the DGX-1.
    EXPECT_GT(base / over, 1.6);
}

TEST(Dgx2, CutThroughKeepsSwitchHopsCheap)
{
    // One logical edge = 2 physical hops; both are GPU ports, so the
    // edge costs exactly two port holds (entry + exit) — the switch
    // itself adds only its latency, folded into each hop's α here.
    const Dgx2Params params;
    const Graph g = makeDgx2(params);
    sim::Simulation sim;
    simnet::Network net(sim, g);
    simnet::TransferEngine engine(net);
    double done_at = -1.0;
    const double bytes = 1e6;
    engine.sendAlongRoute(
        topo::Route{{0, dgx2SwitchNode(params, 0), 1}}, bytes,
        [&]() { done_at = sim.now(); });
    sim.run();
    const double hold =
        params.nvlink_latency + params.switch_latency + bytes / 25e9;
    EXPECT_NEAR(done_at, 2 * hold, 1e-12);
}

} // namespace
} // namespace topo
} // namespace ccube
