/**
 * @file
 * Timed-network tests: channel occupancy, multi-hop transfers, and —
 * the critical cross-validation — the event-driven collective
 * schedules reproducing the closed-form α-β costs of §II-C exactly on
 * ideal topologies (DESIGN.md invariant #6 plus Eqs. (2)(3)(7)).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "model/overlapped_tree_model.h"
#include "model/ring_model.h"
#include "model/tree_model.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "simnet/transfer_engine.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"

namespace ccube {
namespace simnet {
namespace {

constexpr double kBw = 25e9;
constexpr double kAlpha = 4.6e-6;

/** Fully connected NVLink graph over @p p nodes. */
topo::Graph
makeClique(int p)
{
    topo::Graph g("clique");
    for (int n = 0; n < p; ++n)
        g.addNode("N" + std::to_string(n));
    for (int a = 0; a < p; ++a)
        for (int b = a + 1; b < p; ++b)
            g.addLink(a, b, kBw, kAlpha);
    return g;
}

/** Directed ring graph over @p p nodes (bidirectional links). */
topo::Graph
makeRingGraph(int p)
{
    topo::Graph g("ring");
    for (int n = 0; n < p; ++n)
        g.addNode("N" + std::to_string(n));
    for (int n = 0; n < p; ++n)
        g.addLink(n, (n + 1) % p, kBw, kAlpha);
    return g;
}

TEST(Network, OccupancyIsAlphaPlusBytesOverBandwidth)
{
    sim::Simulation sim;
    const topo::Graph g = makeClique(2);
    Network net(sim, g);
    const int ch = g.channelIds(0, 1).front();
    EXPECT_NEAR(net.occupancy(ch, 1e6), kAlpha + 1e6 / kBw, 1e-15);
}

TEST(Network, BandwidthScaleDividesBandwidthOnly)
{
    sim::Simulation sim;
    const topo::Graph g = makeClique(2);
    Network net(sim, g, /*bandwidth_scale=*/0.25);
    const int ch = g.channelIds(0, 1).front();
    EXPECT_NEAR(net.occupancy(ch, 1e6), kAlpha + 4e6 / kBw, 1e-15);
}

TEST(Network, TransfersOnOneChannelSerialize)
{
    sim::Simulation sim;
    const topo::Graph g = makeClique(2);
    Network net(sim, g);
    std::vector<double> done;
    const int ch = g.channelIds(0, 1).front();
    for (int i = 0; i < 3; ++i)
        net.transferOnChannel(ch, 1e6,
                              [&]() { done.push_back(sim.now()); });
    sim.run();
    const double step = kAlpha + 1e6 / kBw;
    ASSERT_EQ(done.size(), 3u);
    EXPECT_NEAR(done[0], step, 1e-12);
    EXPECT_NEAR(done[1], 2 * step, 1e-12);
    EXPECT_NEAR(done[2], 3 * step, 1e-12);
}

TEST(Network, ParallelLanesDoNotContend)
{
    sim::Simulation sim;
    topo::Graph g("double");
    g.addNode("a");
    g.addNode("b");
    g.addLink(0, 1, kBw, kAlpha);
    g.addLink(0, 1, kBw, kAlpha);
    Network net(sim, g);
    std::vector<double> done;
    const std::vector<int> lanes = g.channelIds(0, 1);
    ASSERT_EQ(lanes.size(), 2u);
    for (int ch : lanes)
        net.transferOnChannel(ch, 1e6,
                              [&]() { done.push_back(sim.now()); });
    sim.run();
    const double step = kAlpha + 1e6 / kBw;
    ASSERT_EQ(done.size(), 2u);
    EXPECT_NEAR(done[0], step, 1e-12);
    EXPECT_NEAR(done[1], step, 1e-12);
}

TEST(TransferEngine, MultiHopStoreAndForward)
{
    sim::Simulation sim;
    const topo::Graph g = makeRingGraph(4);
    Network net(sim, g);
    TransferEngine engine(net);
    double done_at = -1.0;
    engine.sendAlongRoute(topo::Route{{0, 1, 2}}, 1e6,
                          [&]() { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(done_at, 2 * (kAlpha + 1e6 / kBw), 1e-12);
}

TEST(TransferEngine, SendFindsRouteOnFabric)
{
    sim::Simulation sim;
    const topo::Graph g = makeRingGraph(6);
    Network net(sim, g);
    TransferEngine engine(net);
    double done_at = -1.0;
    engine.sendAlongRoute(
        topo::Route{g.shortestPath(0, 2)}, 1e6,
        [&]() { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(done_at, 2 * (kAlpha + 1e6 / kBw), 1e-12);
}

// -------------------------------------------------------------- ring

TEST(RingScheduleVsModel, MatchesEquationTwoExactly)
{
    const model::RingModel ring_model(
        model::AlphaBeta::fromBandwidth(kAlpha, kBw));
    for (int p : {2, 4, 8}) {
        sim::Simulation sim;
        const topo::Graph g = makeRingGraph(p);
        Network net(sim, g);
        const double n = 8e6;
        const ScheduleResult result = simnet::runProgram(
            sim, net,
            sched::ringProgram(topo::makeSequentialRing(p),
                               sched::RingPhase::kAllReduce),
            n);
        EXPECT_NEAR(result.completion_time,
                    ring_model.allReduceTime(p, n),
                    ring_model.allReduceTime(p, n) * 1e-9)
            << "p=" << p;
    }
}

TEST(RingSchedule, OneRankRingIsRejected)
{
    sim::Simulation sim;
    const topo::Graph g = makeRingGraph(2);
    Network net(sim, g);
    EXPECT_DEATH(simnet::runProgram(
                     sim, net,
                     sched::ringProgram(topo::makeSequentialRing(1),
                                        sched::RingPhase::kAllReduce),
                     4e6),
                 "ring needs at least two ranks");
}

TEST(RingSchedule, ChunkTimesOutOfOrderAcrossRanks)
{
    sim::Simulation sim;
    const topo::Graph g = makeRingGraph(4);
    Network net(sim, g);
    const ScheduleResult result =
        simnet::runProgram(sim, net,
                           sched::ringProgram(topo::makeSequentialRing(4),
                                              sched::RingPhase::kAllReduce),
                           4e6);
    // Rank 0's earliest chunk is chunk 1, rank 3's is chunk 0 —
    // different ranks get different chunks first.
    int earliest_rank0 = -1;
    int earliest_rank3 = -1;
    double best0 = 1e99;
    double best3 = 1e99;
    for (int c = 0; c < result.num_chunks; ++c) {
        if (result.chunk_at_rank[0][static_cast<std::size_t>(c)] <
            best0) {
            best0 = result.chunk_at_rank[0][static_cast<std::size_t>(c)];
            earliest_rank0 = c;
        }
        if (result.chunk_at_rank[3][static_cast<std::size_t>(c)] <
            best3) {
            best3 = result.chunk_at_rank[3][static_cast<std::size_t>(c)];
            earliest_rank3 = c;
        }
    }
    EXPECT_NE(earliest_rank0, earliest_rank3);
    // Ring turnaround equals completion in ready-at-all-ranks terms:
    // every chunk finishes its last AllGather hop within the final
    // step window.
    EXPECT_NEAR(result.turnaroundTime(), result.completion_time,
                result.completion_time * 0.2);
}

TEST(MultiRingSchedule, ScalesWithRingCount)
{
    const topo::Graph g = topo::makeDgx1();
    const auto rings = topo::findDisjointRings(g, 8, 4);
    ASSERT_GE(rings.size(), 3u);
    const double n = 64e6;

    sim::Simulation sim_one;
    Network net_one(sim_one, g);
    const double t_one =
        simnet::runProgram(sim_one, net_one,
                           sched::ringProgram(rings.front(),
                                              sched::RingPhase::kAllReduce),
                           n)
            .completion_time;

    sim::Simulation sim_multi;
    Network net_multi(sim_multi, g);
    const double t_multi =
        simnet::runProgram(sim_multi, net_multi, sched::multiRingProgram(rings),
                           n)
            .completion_time;
    // Disjoint rings divide the payload — speedup ≈ ring count.
    const double speedup = t_one / t_multi;
    EXPECT_GT(speedup, 0.8 * static_cast<double>(rings.size()));
    EXPECT_LE(speedup, 1.05 * static_cast<double>(rings.size()));
}

// -------------------------------------------------------------- tree

// Step-count convention: the paper's Eq. (3) counts log(P)+K steps
// per phase *including* the leaf-level reduce step of Fig. 5(a); the
// DES moves data only, so each phase takes (K−1+D) channel steps where
// D = log P is the hop depth. The DES is therefore exactly one step
// per phase tighter than Eq. (3) — asserted exactly below; the
// closed-form comparison with that convention folded in is covered by
// integration_test's SimVsModel.

TEST(TreeScheduleVsModel, TwoPhaseMatchesChunkedPipelineExactly)
{
    const int p = 4; // inorder(4): hop depth D = log2(4) = 2
    const int k = 16;
    const double n = 16e6;
    sim::Simulation sim;
    const topo::Graph g = makeClique(p);
    Network net(sim, g);
    const auto embedding =
        topo::embedTree(g, topo::BinaryTree::inorder(p));
    const ScheduleResult result = simnet::runProgram(
        sim, net,
        sched::treeProgram(embedding, sched::TreeDirection::kAllReduce,
                           sched::PhaseMode::kTwoPhase, k),
        n);
    const double s = kAlpha + (n / k) / kBw;
    // Reduction (K−1+D)s, then broadcast (K−1+D)s.
    EXPECT_NEAR(result.completion_time, 2.0 * (k - 1 + 2) * s, s * 1e-9);
}

TEST(TreeScheduleVsModel, OverlappedMatchesChunkedPipelineExactly)
{
    const int p = 4;
    const int k = 16;
    const double n = 16e6;
    sim::Simulation sim;
    const topo::Graph g = makeClique(p);
    Network net(sim, g);
    const auto embedding =
        topo::embedTree(g, topo::BinaryTree::inorder(p));
    const ScheduleResult result = simnet::runProgram(
        sim, net,
        sched::treeProgram(embedding, sched::TreeDirection::kAllReduce,
                           sched::PhaseMode::kOverlapped, k),
        n);
    const double s = kAlpha + (n / k) / kBw;
    // Single chained pipeline: (K−1+2D) steps.
    EXPECT_NEAR(result.completion_time, (k - 1 + 2.0 * 2) * s,
                s * 1e-9);
    // First chunk turns around after descending and climbing: 2D steps.
    EXPECT_NEAR(result.turnaroundTime(), 2.0 * 2 * s, s * 1e-9);
}

TEST(TreeSchedule, OverlappedNeverSlowerAcrossSweep)
{
    for (int p : {2, 4, 8, 16}) {
        for (int k : {1, 8, 64}) {
            const topo::Graph g = makeClique(p);
            const auto tree = topo::BinaryTree::inorder(p);

            sim::Simulation sim_a;
            Network net_a(sim_a, g);
            const double base =
                simnet::runProgram(sim_a, net_a,
                                   sched::treeProgram(
                                       topo::embedTree(g, tree),
                                       sched::TreeDirection::kAllReduce,
                                       sched::PhaseMode::kTwoPhase, k),
                                   4e6)
                    .completion_time;

            sim::Simulation sim_b;
            Network net_b(sim_b, g);
            const double over =
                simnet::runProgram(sim_b, net_b,
                                   sched::treeProgram(
                                       topo::embedTree(g, tree),
                                       sched::TreeDirection::kAllReduce,
                                       sched::PhaseMode::kOverlapped, k),
                                   4e6)
                    .completion_time;
            EXPECT_LE(over, base * (1.0 + 1e-9))
                << "p=" << p << " k=" << k;
        }
    }
}

TEST(TreeSchedule, InOrderChunkReadyTimes)
{
    sim::Simulation sim;
    const topo::Graph g = makeClique(8);
    Network net(sim, g);
    const ScheduleResult result = simnet::runProgram(
        sim, net,
        sched::treeProgram(topo::embedTree(g, topo::BinaryTree::inorder(8)),
                           sched::TreeDirection::kAllReduce,
                           sched::PhaseMode::kOverlapped, 16),
        8e6);
    for (int c = 1; c < result.num_chunks; ++c) {
        EXPECT_LE(result.chunk_ready[static_cast<std::size_t>(c - 1)],
                  result.chunk_ready[static_cast<std::size_t>(c)]);
    }
}

// ------------------------------------------------------- double tree

TEST(DoubleTreeSchedule, OverlappedBeatsTwoPhaseOnDgx1)
{
    const topo::Graph g = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(g);
    const double n = 64e6;

    sim::Simulation sim_a;
    Network net_a(sim_a, g);
    const ScheduleResult base = simnet::runProgram(
        sim_a, net_a,
        sched::doubleTreeProgram(dt, sched::PhaseMode::kTwoPhase, 32), n);

    sim::Simulation sim_b;
    Network net_b(sim_b, g);
    const ScheduleResult over = simnet::runProgram(
        sim_b, net_b,
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped, 32), n);

    // Paper Fig. 12(a): ≥ 75% communication speedup at 64 MB.
    EXPECT_GT(base.completion_time / over.completion_time, 1.6);
    EXPECT_EQ(base.num_chunks, 64);
    EXPECT_EQ(over.num_chunks, 64);
}

TEST(DoubleTreeSchedule, NaiveEmbeddingContendsUnderOverlap)
{
    // The naive Fig. 10(a) embedding shares channels between trees;
    // FIFO contention must make overlap strictly slower than on the
    // conflict-free C-Cube embedding.
    const topo::Graph g = topo::makeDgx1();
    const auto good = topo::makeDgx1DoubleTree(g);
    const auto naive = topo::makeNaiveDgx1DoubleTree(g);
    const double n = 64e6;

    sim::Simulation sim_a;
    Network net_a(sim_a, g);
    const double t_good = simnet::runProgram(sim_a, net_a,
                                             sched::doubleTreeProgram(
                                                 good,
                                                 sched::PhaseMode::kOverlapped,
                                                 32),
                                             n)
                              .completion_time;

    sim::Simulation sim_b;
    Network net_b(sim_b, g);
    const double t_naive = simnet::runProgram(sim_b, net_b,
                                              sched::doubleTreeProgram(
                                                  naive,
                                                  sched::PhaseMode::kOverlapped,
                                                  32),
                                              n)
                               .completion_time;
    EXPECT_LT(t_good, t_naive);
}

TEST(DoubleTreeSchedule, MergedChunkIdsCoverBothTrees)
{
    const topo::Graph g = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(g);
    sim::Simulation sim;
    Network net(sim, g);
    const ScheduleResult result =
        simnet::runProgram(sim, net,
                           sched::doubleTreeProgram(
                               dt, sched::PhaseMode::kOverlapped, 4),
                           8e6);
    EXPECT_EQ(result.num_chunks, 8);
    EXPECT_EQ(result.chunk_ready.size(), 8u);
    for (const auto& per_rank : result.chunk_at_rank) {
        EXPECT_EQ(per_rank.size(), 8u);
        for (double t : per_rank)
            EXPECT_GE(t, 0.0);
    }
}

TEST(ScheduleResult, TurnaroundIsEarliestChunkReady)
{
    ScheduleResult result;
    result.num_chunks = 2;
    result.completion_time = 3.0;
    result.chunk_at_rank = {{1.0, 3.0}, {2.0, 2.5}};
    result.chunk_ready = {2.0, 3.0};
    EXPECT_DOUBLE_EQ(result.turnaroundTime(), 2.0);
}

} // namespace
} // namespace simnet
} // namespace ccube
