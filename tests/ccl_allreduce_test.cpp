/**
 * @file
 * Functional AllReduce correctness and ordering properties
 * (DESIGN.md invariants #1–#3):
 *   - every rank ends with the elementwise sum, for every algorithm,
 *     across a parameter sweep of P and chunk counts;
 *   - tree algorithms deliver chunks in order at every rank
 *     (Observation #3), the ring does not;
 *   - the overlapped tree produces identical results to the baseline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "ccl/program_task.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "util/rng.h"

namespace ccube {
namespace ccl {
namespace {

RankBuffers
makeBuffers(int ranks, std::size_t elems, std::uint64_t seed)
{
    util::Rng rng(seed);
    RankBuffers buffers(static_cast<std::size_t>(ranks));
    for (auto& b : buffers) {
        b.resize(elems);
        rng.fill(b, -2.0f, 2.0f);
    }
    return buffers;
}

std::vector<float>
expectedSum(const RankBuffers& buffers)
{
    std::vector<float> sum(buffers[0].size(), 0.0f);
    for (const auto& b : buffers)
        for (std::size_t i = 0; i < sum.size(); ++i)
            sum[i] += b[i];
    return sum;
}

void
expectAllEqualSum(const RankBuffers& buffers,
                  const std::vector<float>& sum)
{
    for (std::size_t r = 0; r < buffers.size(); ++r) {
        for (std::size_t i = 0; i < sum.size(); ++i) {
            ASSERT_NEAR(buffers[r][i], sum[i],
                        1e-4f * std::fabs(sum[i]) + 1e-4f)
                << "rank " << r << " elem " << i;
        }
    }
}

// ---------------------------------------------------------------- ring

class RingSweep : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RingSweep, EveryRankGetsTheSum)
{
    const auto [ranks, elems_per_chunk] = GetParam();
    const std::size_t elems =
        static_cast<std::size_t>(ranks) * elems_per_chunk;
    RankBuffers buffers = makeBuffers(ranks, elems, 101);
    const std::vector<float> sum = expectedSum(buffers);
    Communicator comm(ranks);
    ccl::runProgram(comm, buffers,
                    sched::ringProgram(topo::makeSequentialRing(ranks),
                                       sched::RingPhase::kAllReduce));
    expectAllEqualSum(buffers, sum);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(1, 7, 64)));

TEST(RingAllReduce, ChunksCompleteOutOfOrderAcrossRanks)
{
    const int ranks = 4;
    RankBuffers buffers = makeBuffers(ranks, 64, 5);
    Communicator comm(ranks);
    const AllReduceTrace trace =
        ccl::runProgram(comm, buffers,
                        sched::ringProgram(topo::makeSequentialRing(ranks),
                                           sched::RingPhase::kAllReduce));
    // Each rank sees a rotation starting at (pos+1): only the rank at
    // position P−1 sees 0,1,...,P−1 in ascending order; globally the
    // ring violates the in-order property.
    EXPECT_FALSE(trace.inOrder());
    // But every rank sees every chunk exactly once.
    for (int r = 0; r < ranks; ++r)
        EXPECT_EQ(trace.order(r).size(), static_cast<std::size_t>(ranks));
}

TEST(RingAllReduce, WorksOnDgx1HamiltonianRing)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::RingEmbedding ring = topo::findHamiltonianRing(dgx1, 8);
    RankBuffers buffers = makeBuffers(8, 128, 17);
    const std::vector<float> sum = expectedSum(buffers);
    Communicator comm(8);
    ccl::runProgram(comm, buffers,
                    sched::ringProgram(ring, sched::RingPhase::kAllReduce));
    expectAllEqualSum(buffers, sum);
}

// ---------------------------------------------------------------- tree

class TreeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, sched::PhaseMode>>
{
};

TEST_P(TreeSweep, EveryRankGetsTheSumInOrder)
{
    const auto [ranks, chunks, mode] = GetParam();
    const std::size_t elems = static_cast<std::size_t>(chunks) * 5;
    RankBuffers buffers = makeBuffers(ranks, elems, 23);
    const std::vector<float> sum = expectedSum(buffers);
    Communicator comm(ranks);
    const topo::TreeEmbedding embedding =
        topo::directEmbedding(topo::BinaryTree::inorder(ranks));
    const AllReduceTrace trace =
        ccl::runProgram(comm, buffers,
                        sched::treeProgram(embedding,
                                           sched::TreeDirection::kAllReduce,
                                           mode, chunks));
    expectAllEqualSum(buffers, sum);
    // Observation #3: in-order delivery at every rank.
    EXPECT_TRUE(trace.inOrder());
    for (int r = 0; r < ranks; ++r)
        EXPECT_EQ(trace.order(r).size(),
                  static_cast<std::size_t>(chunks));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 16),
                       ::testing::Values(1, 4, 16),
                       ::testing::Values(sched::PhaseMode::kTwoPhase,
                                         sched::PhaseMode::kOverlapped)));

TEST(TreeAllReduce, OverlappedMatchesTwoPhaseResults)
{
    const int ranks = 8;
    RankBuffers a = makeBuffers(ranks, 96, 31);
    RankBuffers b = a;
    const topo::TreeEmbedding embedding =
        topo::directEmbedding(topo::BinaryTree::inorder(ranks));
    {
        Communicator comm(ranks);
        ccl::runProgram(comm, a,
                        sched::treeProgram(embedding,
                                           sched::TreeDirection::kAllReduce,
                                           sched::PhaseMode::kTwoPhase, 8));
    }
    {
        Communicator comm(ranks);
        ccl::runProgram(comm, b,
                        sched::treeProgram(embedding,
                                           sched::TreeDirection::kAllReduce,
                                           sched::PhaseMode::kOverlapped, 8));
    }
    for (int r = 0; r < ranks; ++r)
        EXPECT_EQ(a[static_cast<std::size_t>(r)],
                  b[static_cast<std::size_t>(r)]);
}

TEST(TreeAllReduce, DetourForwardingOnDgx1)
{
    // The C-Cube DGX-1 tree 0 contains the 2→4 detour through GPU0;
    // the functional algorithm must forward through it transparently.
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);
    RankBuffers buffers = makeBuffers(8, 64, 41);
    const std::vector<float> sum = expectedSum(buffers);
    Communicator comm(8);
    const AllReduceTrace trace = ccl::runProgram(
        comm, buffers,
        sched::treeProgram(dt.tree0, sched::TreeDirection::kAllReduce,
                           sched::PhaseMode::kOverlapped, 4));
    expectAllEqualSum(buffers, sum);
    EXPECT_TRUE(trace.inOrder());
}

// ---------------------------------------------------------- double tree

class DoubleTreeSweep
    : public ::testing::TestWithParam<std::tuple<int, sched::PhaseMode>>
{
};

TEST_P(DoubleTreeSweep, EveryRankGetsTheSum)
{
    const auto [chunks_per_tree, mode] = GetParam();
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);
    const std::size_t elems =
        static_cast<std::size_t>(chunks_per_tree) * 2 * 3;
    RankBuffers buffers = makeBuffers(8, elems, 57);
    const std::vector<float> sum = expectedSum(buffers);
    Communicator comm(8);
    const AllReduceTrace trace =
        ccl::runProgram(comm, buffers,
                        sched::doubleTreeProgram(dt, mode, chunks_per_tree));
    expectAllEqualSum(buffers, sum);
    // Every rank sees every global chunk exactly once.
    for (int r = 0; r < 8; ++r)
        EXPECT_EQ(trace.order(r).size(),
                  static_cast<std::size_t>(2 * chunks_per_tree));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DoubleTreeSweep,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(sched::PhaseMode::kTwoPhase,
                                         sched::PhaseMode::kOverlapped)));

TEST(DoubleTreeAllReduce, PerTreeChunksStayInOrder)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);
    const int chunks_per_tree = 6;
    RankBuffers buffers = makeBuffers(8, 48, 71);
    Communicator comm(8);
    const AllReduceTrace trace = ccl::runProgram(
        comm, buffers,
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped,
                                 chunks_per_tree));
    // Within each tree's id range, arrival order is ascending at
    // every rank (the property gradient queuing relies on).
    for (int r = 0; r < 8; ++r) {
        int last_t0 = -1;
        int last_t1 = -1;
        for (int chunk : trace.order(r)) {
            if (chunk < chunks_per_tree) {
                EXPECT_GT(chunk, last_t0);
                last_t0 = chunk;
            } else {
                EXPECT_GT(chunk, last_t1);
                last_t1 = chunk;
            }
        }
    }
}

TEST(AllReduceTrace, InOrderDetection)
{
    AllReduceTrace trace(2);
    trace.record(0, 0);
    trace.record(0, 1);
    trace.record(1, 0);
    EXPECT_TRUE(trace.inOrder());
    trace.record(1, 2);
    trace.record(1, 1);
    EXPECT_FALSE(trace.inOrder());
}

} // namespace
} // namespace ccl
} // namespace ccube
