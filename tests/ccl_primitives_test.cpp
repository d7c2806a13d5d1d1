/**
 * @file
 * Tests for the standalone collective programs (tree broadcast /
 * reduce, ring Reduce-Scatter / AllGather) and ccl::allReduceProgram,
 * the tuner's algorithm → program map — including the identity
 * ReduceScatter ∘ AllGather ≡ AllReduce and broadcast-after-reduce
 * composition.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ccl/program_task.h"
#include "ccl/tuner.h"
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

TEST(TreeBroadcast, EveryRankGetsTheRootBuffer)
{
    const int ranks = 8;
    RankBuffers buffers = makeBuffers(ranks, 64, 3);
    const topo::TreeEmbedding embedding =
        topo::directEmbedding(topo::BinaryTree::inorder(ranks));
    const std::vector<float> root_data =
        buffers[static_cast<std::size_t>(embedding.tree.root())];
    Communicator comm(ranks);
    ccl::runProgram(comm, buffers,
                    sched::treeProgram(embedding,
                                       sched::TreeDirection::kBroadcast,
                                       sched::PhaseMode::kTwoPhase, 4));
    for (int r = 0; r < ranks; ++r)
        EXPECT_EQ(buffers[static_cast<std::size_t>(r)], root_data);
}

TEST(TreeBroadcast, WorksThroughDgx1Detours)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(dgx1);
    RankBuffers buffers = makeBuffers(8, 32, 5);
    const std::vector<float> root_data =
        buffers[static_cast<std::size_t>(dt.tree0.tree.root())];
    Communicator comm(8);
    ccl::runProgram(comm, buffers,
                    sched::treeProgram(dt.tree0,
                                       sched::TreeDirection::kBroadcast,
                                       sched::PhaseMode::kTwoPhase, 4));
    for (int r = 0; r < 8; ++r)
        EXPECT_EQ(buffers[static_cast<std::size_t>(r)], root_data);
}

TEST(TreeReduce, RootHoldsTheSum)
{
    const int ranks = 5;
    RankBuffers buffers = makeBuffers(ranks, 40, 7);
    const std::vector<float> sum = expectedSum(buffers);
    const topo::TreeEmbedding embedding =
        topo::directEmbedding(topo::BinaryTree::inorder(ranks));
    Communicator comm(ranks);
    ccl::runProgram(comm, buffers,
                    sched::treeProgram(embedding, sched::TreeDirection::kReduce,
                                       sched::PhaseMode::kTwoPhase, 8));
    const auto& root_buf =
        buffers[static_cast<std::size_t>(embedding.tree.root())];
    for (std::size_t i = 0; i < sum.size(); ++i)
        ASSERT_NEAR(root_buf[i], sum[i], 1e-4f);
}

TEST(TreeReduceThenBroadcast, ComposesIntoAllReduce)
{
    const int ranks = 8;
    RankBuffers buffers = makeBuffers(ranks, 48, 11);
    const std::vector<float> sum = expectedSum(buffers);
    const topo::TreeEmbedding embedding =
        topo::directEmbedding(topo::BinaryTree::inorder(ranks));
    {
        Communicator comm(ranks);
        ccl::runProgram(comm, buffers,
                        sched::treeProgram(embedding,
                                           sched::TreeDirection::kReduce,
                                           sched::PhaseMode::kTwoPhase, 6));
    }
    {
        Communicator comm(ranks);
        ccl::runProgram(comm, buffers,
                        sched::treeProgram(embedding,
                                           sched::TreeDirection::kBroadcast,
                                           sched::PhaseMode::kTwoPhase, 6));
    }
    for (int r = 0; r < ranks; ++r)
        for (std::size_t i = 0; i < sum.size(); ++i)
            ASSERT_NEAR(buffers[static_cast<std::size_t>(r)][i], sum[i],
                        1e-4f);
}

TEST(RingPhases, ReduceScatterThenAllGatherIsAllReduce)
{
    const int ranks = 8;
    RankBuffers via_phases = makeBuffers(ranks, 64, 13);
    RankBuffers via_allreduce = via_phases;
    const topo::RingEmbedding ring = topo::makeSequentialRing(ranks);
    {
        Communicator comm(ranks);
        ccl::runProgram(comm, via_phases,
                        sched::ringProgram(ring,
                                           sched::RingPhase::kReduceScatter));
    }
    {
        Communicator comm(ranks);
        ccl::runProgram(comm, via_phases,
                        sched::ringProgram(ring, sched::RingPhase::kAllGather));
    }
    {
        Communicator comm(ranks);
        ccl::runProgram(comm, via_allreduce,
                        sched::ringProgram(ring, sched::RingPhase::kAllReduce));
    }
    for (int r = 0; r < ranks; ++r)
        EXPECT_EQ(via_phases[static_cast<std::size_t>(r)],
                  via_allreduce[static_cast<std::size_t>(r)]);
}

TEST(RingReduceScatter, OwnedSliceIsFullyReduced)
{
    const int ranks = 4;
    RankBuffers buffers = makeBuffers(ranks, 16, 17);
    const std::vector<float> sum = expectedSum(buffers);
    const topo::RingEmbedding ring = topo::makeSequentialRing(ranks);
    Communicator comm(ranks);
    ccl::runProgram(comm, buffers,
                    sched::ringProgram(ring, sched::RingPhase::kReduceScatter));
    const auto geometry =
        sched::ringProgram(ring, sched::RingPhase::kReduceScatter)
            .geometry(std::size_t{16});
    for (int pos = 0; pos < ranks; ++pos) {
        const auto& owned =
            geometry[static_cast<std::size_t>((pos + 1) % ranks)];
        const auto& buf = buffers[static_cast<std::size_t>(
            ring.order[static_cast<std::size_t>(pos)])];
        for (std::size_t i = owned.begin; i < owned.end; ++i) {
            ASSERT_NEAR(buf[i], sum[i], 1e-4f)
                << "pos " << pos << " elem " << i;
        }
    }
}

class DispatcherSweep
    : public ::testing::TestWithParam<AllReduceAlgorithm>
{
};

TEST_P(DispatcherSweep, AllAlgorithmsCorrectOnDgx1)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    RankBuffers buffers = makeBuffers(8, 64, 23);
    const std::vector<float> sum = expectedSum(buffers);
    Communicator comm(8);
    runProgram(comm, buffers, allReduceProgram(dgx1, 8, GetParam(), 4));
    for (int r = 0; r < 8; ++r)
        for (std::size_t i = 0; i < sum.size(); ++i)
            ASSERT_NEAR(buffers[static_cast<std::size_t>(r)][i], sum[i],
                        1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DispatcherSweep,
    ::testing::Values(AllReduceAlgorithm::kRing,
                      AllReduceAlgorithm::kTree,
                      AllReduceAlgorithm::kOverlappedTree,
                      AllReduceAlgorithm::kDoubleTree,
                      AllReduceAlgorithm::kCCubeDoubleTree));

TEST(Dispatcher, ObserverSeesEveryChunkOnEveryRank)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    RankBuffers buffers = makeBuffers(8, 64, 29);
    Communicator comm(8);
    std::vector<std::atomic<int>> seen(8);
    runProgram(comm, buffers,
               allReduceProgram(dgx1, 8, AllReduceAlgorithm::kCCubeDoubleTree,
                                4),
               Protocol::kSimple, [&seen](int rank, int) {
                   seen[static_cast<std::size_t>(rank)]++;
               });
    for (const auto& s : seen)
        EXPECT_EQ(s.load(), 8); // 2 trees × 4 chunks
}

} // namespace
} // namespace ccl
} // namespace ccube
