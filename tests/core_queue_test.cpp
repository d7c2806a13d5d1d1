/**
 * @file
 * Gradient-queue and chunk-mapper tests (DESIGN.md invariant #4):
 * FIFO semantics, LIC monotonicity, layer gating via the per-part
 * Layer-Chunk Tables, and the byte↔chunk↔layer mapping that derives
 * them from a program's geometry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/chunk_mapper.h"
#include "core/gradient_queue.h"
#include "sched/program.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace core {
namespace {

/** The tables of a one-part collective (a single tree). */
std::vector<LayerChunkTable>
onePart(std::vector<std::int64_t> bounds)
{
    return {LayerChunkTable{0, std::move(bounds)}};
}

TEST(GradientQueue, TableValidation)
{
    EXPECT_DEATH(GradientQueue({}), "empty");
    EXPECT_DEATH(GradientQueue(onePart({})), "empty");
    EXPECT_DEATH(GradientQueue(onePart({3, 1})), "non-decreasing");
}

TEST(GradientQueue, DequeueUnblocksAtLayerBound)
{
    // Layers gate at cumulative chunk counts 1, 3, 6 (L1 has 1 chunk,
    // L2 has 2, L3 has 3 — the Fig. 8 example).
    GradientQueue queue(onePart({1, 3, 6}));
    queue.enqueueChunk(0);
    EXPECT_TRUE(queue.tryDequeueLayer(0));
    EXPECT_FALSE(queue.tryDequeueLayer(1));
    queue.enqueueChunk(1);
    EXPECT_FALSE(queue.tryDequeueLayer(1));
    queue.enqueueChunk(2);
    EXPECT_TRUE(queue.tryDequeueLayer(1));
    EXPECT_EQ(queue.layerIndexCounter(), 2);
}

TEST(GradientQueue, LicAdvancesInOrderOnly)
{
    GradientQueue queue(onePart({1, 2}));
    queue.enqueueChunk(0);
    queue.enqueueChunk(1);
    EXPECT_DEATH(queue.dequeueLayer(1), "in order");
    queue.dequeueLayer(0);
    queue.dequeueLayer(1);
    EXPECT_EQ(queue.layerIndexCounter(), 2);
}

TEST(GradientQueue, ZeroChunkLayersPassImmediately)
{
    // Layers without parameters (pooling) share the previous bound.
    GradientQueue queue(onePart({2, 2, 5}));
    queue.enqueueChunk(0);
    queue.enqueueChunk(1);
    EXPECT_TRUE(queue.tryDequeueLayer(0));
    EXPECT_TRUE(queue.tryDequeueLayer(1)); // no extra chunks needed
    EXPECT_FALSE(queue.tryDequeueLayer(2));
}

TEST(GradientQueue, BlockingDequeueWaitsForBroadcast)
{
    GradientQueue queue(onePart({2, 4}));
    std::atomic<int> dequeued{0};
    std::thread compute([&]() {
        queue.dequeueLayer(0);
        dequeued.store(1);
        queue.dequeueLayer(1);
        dequeued.store(2);
    });
    EXPECT_EQ(dequeued.load(), 0);
    queue.enqueueChunk(0);
    queue.enqueueChunk(1); // layer 0 complete
    while (dequeued.load() < 1)
        std::this_thread::yield();
    EXPECT_EQ(dequeued.load(), 1);
    queue.enqueueChunk(2);
    queue.enqueueChunk(3); // layer 1 complete
    compute.join();
    EXPECT_EQ(dequeued.load(), 2);
}

TEST(GradientQueue, ConcurrentEnqueueDequeueFullIteration)
{
    // A full "iteration": broadcast thread enqueues 100 chunks while
    // the compute thread dequeues 10 layers of 10 chunks each; the
    // compute thread must never observe a layer before its chunks.
    std::vector<std::int64_t> table;
    for (int l = 1; l <= 10; ++l)
        table.push_back(10 * l);
    GradientQueue queue(onePart(table));
    std::atomic<bool> violated{false};
    std::thread broadcaster([&]() {
        for (int c = 0; c < 100; ++c)
            queue.enqueueChunk(c);
    });
    for (int l = 0; l < 10; ++l) {
        queue.dequeueLayer(l);
        if (queue.enqueued() < table[static_cast<std::size_t>(l)])
            violated.store(true);
    }
    broadcaster.join();
    EXPECT_FALSE(violated.load());
    EXPECT_EQ(queue.layerIndexCounter(), 10);
}

TEST(GradientQueue, ResetForNextIteration)
{
    GradientQueue queue(onePart({1}));
    queue.enqueueChunk(0);
    queue.dequeueLayer(0);
    queue.resetIteration();
    EXPECT_EQ(queue.layerIndexCounter(), 0);
    EXPECT_EQ(queue.enqueued(), 0);
    EXPECT_FALSE(queue.tryDequeueLayer(0));
}

TEST(GradientQueue, RejectsOutOfOrderAndSurplusChunks)
{
    GradientQueue queue(onePart({2}));
    EXPECT_DEATH(queue.enqueueChunk(1), "out of order");
    queue.enqueueChunk(0);
    queue.enqueueChunk(1);
    EXPECT_DEATH(queue.enqueueChunk(2), "more chunks");
}

// A double tree's two parts: each tree delivers its own chunks in
// order, so the queue gates a layer on every part's table.

TEST(GradientQueue, TwoPartsGateOnBothTrees)
{
    // Layer 0 needs 2 chunks of tree 0 only; layer 1 needs one more
    // from each tree (tree 1's chunks have global ids 3, 4).
    GradientQueue queue({{0, {2, 3}}, {3, {0, 1}}});
    queue.enqueueChunk(0);
    EXPECT_FALSE(queue.tryDequeueLayer(0));
    queue.enqueueChunk(1);
    EXPECT_TRUE(queue.tryDequeueLayer(0));
    queue.enqueueChunk(3);
    EXPECT_FALSE(queue.tryDequeueLayer(1)); // tree 0 still at 2
    queue.enqueueChunk(2);
    EXPECT_TRUE(queue.tryDequeueLayer(1));
    EXPECT_EQ(queue.layerIndexCounter(), 2);
}

TEST(GradientQueue, TwoPartsBlockingDequeueAcrossThreads)
{
    GradientQueue queue({{0, {1, 1}}, {1, {1, 2}}});
    std::atomic<int> done{0};
    std::thread compute([&]() {
        queue.dequeueLayer(0);
        done.store(1);
        queue.dequeueLayer(1);
        done.store(2);
    });
    queue.enqueueChunk(0);
    EXPECT_EQ(done.load(), 0); // layer 0 also needs tree 1's chunk
    queue.enqueueChunk(1);
    while (done.load() < 1)
        std::this_thread::yield();
    queue.enqueueChunk(2);
    compute.join();
    EXPECT_EQ(done.load(), 2);
    queue.resetIteration();
    EXPECT_EQ(queue.enqueued(), 0);
}

TEST(GradientQueue, TwoPartsRejectMalformedTables)
{
    EXPECT_DEATH(GradientQueue({{0, {1, 2}}, {2, {1}}}),
                 "same layer count");
    EXPECT_DEATH(GradientQueue({{0, {2, 1}}, {2, {1, 1}}}),
                 "non-decreasing");
    EXPECT_DEATH(GradientQueue({{2, {1}}, {0, {1}}}), "ascending");
}

// ----------------------------------------------------------- mapper

/** A single tree of @p chunks chunks over four ranks. */
sched::Program
singleTree(int chunks)
{
    return sched::treeProgram(
        topo::directEmbedding(topo::BinaryTree::inorder(4)),
        sched::TreeDirection::kAllReduce, sched::PhaseMode::kOverlapped,
        chunks);
}

/** A double tree of @p chunks_per_tree chunks per tree over four ranks. */
sched::Program
doubleTree(int chunks_per_tree)
{
    const topo::BinaryTree tree = topo::BinaryTree::inorder(4);
    return sched::doubleTreeProgram(
        topo::DoubleTreeEmbedding(topo::directEmbedding(tree),
                                  topo::directEmbedding(tree.mirrored())),
        sched::PhaseMode::kOverlapped, chunks_per_tree);
}

TEST(ChunkMapper, SingleTreeRangesPartitionBuffer)
{
    const ChunkMapper mapper(singleTree(7).geometry(100.0));
    double covered = 0.0;
    for (int c = 0; c < mapper.numChunks(); ++c) {
        const auto [lo, hi] = mapper.chunkByteRange(c);
        EXPECT_DOUBLE_EQ(lo, covered);
        EXPECT_GT(hi, lo);
        covered = hi;
    }
    EXPECT_DOUBLE_EQ(covered, 100.0);
}

TEST(ChunkMapper, DoubleTreeSplitsHalves)
{
    const ChunkMapper mapper(doubleTree(2).geometry(100.0));
    EXPECT_EQ(mapper.numChunks(), 4);
    EXPECT_DOUBLE_EQ(mapper.chunkByteRange(0).first, 0.0);
    EXPECT_DOUBLE_EQ(mapper.chunkByteRange(1).second, 50.0);
    EXPECT_DOUBLE_EQ(mapper.chunkByteRange(2).first, 50.0);
    EXPECT_DOUBLE_EQ(mapper.chunkByteRange(3).second, 100.0);
}

TEST(ChunkMapper, ChunksOfLayerIntersection)
{
    const ChunkMapper mapper(singleTree(4).geometry(100.0));
    // Layers of 30 / 0 / 45 / 25 bytes.
    const std::vector<double> layers{30.0, 0.0, 45.0, 25.0};
    EXPECT_EQ(mapper.chunksOfLayer(layers, 0),
              (std::vector<int>{0, 1}));
    EXPECT_TRUE(mapper.chunksOfLayer(layers, 1).empty());
    EXPECT_EQ(mapper.chunksOfLayer(layers, 2),
              (std::vector<int>{1, 2}));
    EXPECT_EQ(mapper.chunksOfLayer(layers, 3),
              (std::vector<int>{3}));
}

TEST(ChunkMapper, LayerReadyTimeIsMaxOfGatingChunks)
{
    const ChunkMapper mapper(singleTree(4).geometry(100.0));
    const std::vector<double> layers{30.0, 0.0, 45.0, 25.0};
    const std::vector<double> ready{1.0, 4.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(mapper.layerReadyTime(layers, 0, ready), 4.0);
    EXPECT_DOUBLE_EQ(mapper.layerReadyTime(layers, 1, ready), 0.0);
    EXPECT_DOUBLE_EQ(mapper.layerReadyTime(layers, 2, ready), 4.0);
    EXPECT_DOUBLE_EQ(mapper.layerReadyTime(layers, 3, ready), 3.0);
}

TEST(ChunkMapper, LayerChunkTableIsMonotoneAndMatchesFig8)
{
    // Fig. 8: L1 has 1 chunk, L2 has 2, L3 has 3 — with 6 equal
    // chunks of equal bytes the cumulative table is 1, 3, 6.
    const ChunkMapper mapper(singleTree(6).geometry(60.0));
    const std::vector<double> layers{10.0, 20.0, 30.0};
    const auto tables = mapper.layerChunkTables(layers);
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables[0].first_chunk, 0);
    EXPECT_EQ(tables[0].bounds, (std::vector<std::int64_t>{1, 3, 6}));
}

TEST(ChunkMapper, TableHandlesZeroByteLayers)
{
    const ChunkMapper mapper(singleTree(4).geometry(40.0));
    const std::vector<double> layers{10.0, 0.0, 10.0, 0.0, 20.0};
    const auto tables = mapper.layerChunkTables(layers);
    EXPECT_EQ(tables[0].bounds,
              (std::vector<std::int64_t>{1, 1, 2, 2, 4}));
}

TEST(ChunkMapper, RingMapperUsesOneSlicePerRank)
{
    const ChunkMapper mapper(
        sched::ringProgram(topo::makeSequentialRing(8),
                           sched::RingPhase::kAllReduce)
            .geometry(80.0));
    EXPECT_EQ(mapper.numChunks(), 8);
    EXPECT_DOUBLE_EQ(mapper.chunkByteRange(7).second, 80.0);
}

TEST(ChunkMapper, DoubleTreeTablesSplitAtTheHalfBoundary)
{
    // 100 bytes, 2 chunks per tree (each 25 bytes). Layers of
    // 50 / 25 / 25 bytes: layer 0 fills tree 0 exactly; layer 1 is
    // tree 1's first chunk; layer 2 its second.
    const ChunkMapper mapper(doubleTree(2).geometry(100.0));
    const auto tables = mapper.layerChunkTables({50.0, 25.0, 25.0});
    ASSERT_EQ(tables.size(), 2u);
    EXPECT_EQ(tables[0].first_chunk, 0);
    EXPECT_EQ(tables[0].bounds, (std::vector<std::int64_t>{2, 2, 2}));
    EXPECT_EQ(tables[1].first_chunk, 2);
    EXPECT_EQ(tables[1].bounds, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(ChunkMapper, StraddlingLayerNeedsBothTrees)
{
    // One layer of 60 bytes and one of 40: the first straddles the
    // 50-byte half boundary.
    const ChunkMapper mapper(doubleTree(2).geometry(100.0));
    const auto tables = mapper.layerChunkTables({60.0, 40.0});
    EXPECT_EQ(tables[0].bounds, (std::vector<std::int64_t>{2, 2}));
    EXPECT_EQ(tables[1].bounds, (std::vector<std::int64_t>{1, 2}));
}

} // namespace
} // namespace core
} // namespace ccube
