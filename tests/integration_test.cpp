/**
 * @file
 * End-to-end integration tests.
 *
 * 1. Functional C-Cube step: the overlapped tree AllReduce (threaded
 *    mini-NCCL with Fig. 11 semaphores) feeds per-rank gradient
 *    queues (Fig. 9); concurrent "forward compute" threads dequeue
 *    layers in order and apply the reduced gradients. Verifies the
 *    whole §III pipeline: correct sums, in-order chaining, no layer
 *    computed before its gradients arrive.
 *
 * 2. Cross-validation: the timed simulator and the analytical model
 *    agree on the C1-over-B benefit (the paper's Fig. 12(b) check).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "ccl/program_task.h"
#include "core/chunk_mapper.h"
#include "core/gradient_queue.h"
#include "model/overlapped_tree_model.h"
#include "model/tree_model.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "util/rng.h"

namespace ccube {
namespace {

TEST(FunctionalCCube, TrainingStepWithGradientQueuing)
{
    constexpr int kRanks = 8;
    constexpr int kChunks = 6;
    // Fig. 8's running example: L1 has 1 chunk, L2 has 2, L3 has 3.
    const std::vector<std::int64_t> layer_table{1, 3, 6};
    constexpr int kLayers = 3;
    constexpr std::size_t kElems = 60; // 10 per chunk
    const std::vector<double> layer_bytes{10.0, 20.0, 30.0};
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);

    // Per-rank gradient buffers ("weights' gradients").
    ccl::RankBuffers gradients(kRanks);
    util::Rng rng(99);
    for (auto& buf : gradients) {
        buf.resize(kElems);
        rng.fill(buf, -1.0f, 1.0f);
    }
    std::vector<float> expected(kElems, 0.0f);
    for (const auto& buf : gradients)
        for (std::size_t i = 0; i < kElems; ++i)
            expected[i] += buf[i];

    // One gradient queue per rank (the real system keeps it in GPU
    // memory; we key enqueues off the broadcast's record events).
    std::vector<std::unique_ptr<core::GradientQueue>> queues;
    for (int r = 0; r < kRanks; ++r)
        queues.push_back(std::make_unique<core::GradientQueue>(
            std::vector<core::LayerChunkTable>{{0, layer_table}}));

    // Compute threads: dequeue layers in order; record, per layer,
    // how many chunks had been enqueued at dequeue time.
    std::vector<std::vector<std::int64_t>> observed(
        static_cast<std::size_t>(kRanks));
    std::vector<std::thread> compute;
    for (int r = 0; r < kRanks; ++r) {
        compute.emplace_back([r, &queues, &observed]() {
            for (int l = 0; l < kLayers; ++l) {
                queues[static_cast<std::size_t>(r)]->dequeueLayer(l);
                observed[static_cast<std::size_t>(r)].push_back(
                    queues[static_cast<std::size_t>(r)]->enqueued());
            }
        });
    }

    // The collective: overlapped tree on the C-Cube DGX-1 tree 0,
    // with the broadcast enqueuing each chunk as it lands.
    ccl::Communicator comm(kRanks);
    const ccl::AllReduceTrace trace = ccl::runProgram(
        comm, gradients,
        sched::treeProgram(dt.tree0, sched::TreeDirection::kAllReduce,
                           sched::PhaseMode::kOverlapped, kChunks),
        ccl::Protocol::kSimple,
        [&queues](int rank, int chunk) {
            queues[static_cast<std::size_t>(rank)]->enqueueChunk(chunk);
        });

    for (auto& t : compute)
        t.join();

    // (a) AllReduce correctness.
    for (int r = 0; r < kRanks; ++r) {
        for (std::size_t i = 0; i < kElems; ++i) {
            ASSERT_NEAR(gradients[static_cast<std::size_t>(r)][i],
                        expected[i], 1e-4f)
                << "rank " << r;
        }
    }
    // (b) In-order broadcast (the property the queue relies on).
    EXPECT_TRUE(trace.inOrder());
    // (c) No layer computed before its chunks: at dequeue of layer l
    //     at least table[l] chunks had been enqueued.
    for (int r = 0; r < kRanks; ++r) {
        ASSERT_EQ(observed[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(kLayers));
        for (int l = 0; l < kLayers; ++l) {
            EXPECT_GE(observed[static_cast<std::size_t>(r)]
                              [static_cast<std::size_t>(l)],
                      layer_table[static_cast<std::size_t>(l)])
                << "rank " << r << " layer " << l;
        }
        EXPECT_EQ(queues[static_cast<std::size_t>(r)]
                      ->layerIndexCounter(),
                  kLayers);
    }
    // (d) The layer table used here matches what the chunk mapper
    //     derives from the program's geometry and the byte layout.
    const core::ChunkMapper mapper(
        sched::treeProgram(dt.tree0, sched::TreeDirection::kAllReduce,
                           sched::PhaseMode::kOverlapped, kChunks)
            .geometry(60.0));
    const auto tables = mapper.layerChunkTables(layer_bytes);
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables[0].bounds, layer_table);
}

TEST(FunctionalCCube, MultipleIterationsWithReset)
{
    core::GradientQueue queue({{0, {2, 4}}});
    for (int iter = 0; iter < 3; ++iter) {
        std::thread broadcaster([&queue]() {
            for (int c = 0; c < 4; ++c)
                queue.enqueueChunk(c);
        });
        queue.dequeueLayer(0);
        queue.dequeueLayer(1);
        broadcaster.join();
        EXPECT_EQ(queue.enqueued(), 4);
        queue.resetIteration();
    }
}

TEST(FunctionalCCube, DoubleTreeWithGradientQueue)
{
    // The full C-Cube data path: overlapped *double* tree (both trees
    // concurrent on the DGX-1 embedding, detour forwarders on
    // GPU0/GPU1) feeding per-rank gradient queues — one Layer-Chunk
    // Table per tree, from the program's geometry — keyed by the
    // observer's global chunk ids; forward threads dequeue layers in
    // order.
    constexpr int kRanks = 8;
    constexpr int kChunksPerTree = 4;
    constexpr std::size_t kElems = 80;
    const std::vector<double> layer_bytes{80.0, 120.0, 120.0};
    const double total_bytes = kElems * 4.0;

    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);
    const core::ChunkMapper mapper(
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped,
                                 kChunksPerTree)
            .geometry(total_bytes));
    const auto tables = mapper.layerChunkTables(layer_bytes);

    ccl::RankBuffers gradients(kRanks);
    util::Rng rng(501);
    for (auto& buf : gradients) {
        buf.resize(kElems);
        rng.fill(buf, -1.0f, 1.0f);
    }
    std::vector<float> expected(kElems, 0.0f);
    for (const auto& buf : gradients)
        for (std::size_t i = 0; i < kElems; ++i)
            expected[i] += buf[i];

    std::vector<std::unique_ptr<core::GradientQueue>> queues;
    for (int r = 0; r < kRanks; ++r)
        queues.push_back(std::make_unique<core::GradientQueue>(tables));

    std::vector<std::thread> forward;
    std::atomic<int> layers_done{0};
    for (int r = 0; r < kRanks; ++r) {
        forward.emplace_back([r, &queues, &layers_done,
                              layers = layer_bytes.size()]() {
            for (int l = 0; l < static_cast<int>(layers); ++l) {
                queues[static_cast<std::size_t>(r)]->dequeueLayer(l);
                layers_done.fetch_add(1);
            }
        });
    }

    ccl::Communicator comm(kRanks);
    ccl::runProgram(
        comm, gradients,
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped,
                                 kChunksPerTree),
        ccl::Protocol::kSimple,
        [&queues](int rank, int chunk) {
            queues[static_cast<std::size_t>(rank)]->enqueueChunk(chunk);
        });

    for (auto& t : forward)
        t.join();

    EXPECT_EQ(layers_done.load(),
              kRanks * static_cast<int>(layer_bytes.size()));
    for (int r = 0; r < kRanks; ++r) {
        for (std::size_t i = 0; i < kElems; ++i) {
            ASSERT_NEAR(gradients[static_cast<std::size_t>(r)][i],
                        expected[i], 1e-4f)
                << "rank " << r;
        }
        EXPECT_EQ(queues[static_cast<std::size_t>(r)]->enqueued(),
                  2 * kChunksPerTree);
    }
}

TEST(SimVsModel, OverlapBenefitMatchesFig12b)
{
    // Fig. 12(b): the measured C1-over-B benefit tracks the α-β model.
    // On an ideal clique the DES must match Eq.(6)/Eq.(7) closely at
    // the model's own K_opt.
    const double alpha = 4.6e-6;
    const double bw = 25e9;
    const model::AlphaBeta link =
        model::AlphaBeta::fromBandwidth(alpha, bw);
    const model::TreeModel tree(link);
    const model::OverlappedTreeModel overlapped(link);

    topo::Graph clique("clique");
    for (int n = 0; n < 8; ++n)
        clique.addNode("N" + std::to_string(n));
    for (int a = 0; a < 8; ++a)
        for (int b = a + 1; b < 8; ++b)
            clique.addLink(a, b, bw, alpha);
    const topo::TreeEmbedding embedding =
        topo::embedTree(clique, topo::BinaryTree::inorder(8));

    for (double n : {4e6, 16e6, 64e6}) {
        const int k = tree.optimalChunksInt(8, n);

        sim::Simulation sim_b;
        simnet::Network net_b(sim_b, clique);
        const double sim_base =
            simnet::runProgram(sim_b, net_b,
                               sched::treeProgram(
                                   embedding, sched::TreeDirection::kAllReduce,
                                   sched::PhaseMode::kTwoPhase, k),
                               n)
                .completion_time;

        sim::Simulation sim_c;
        simnet::Network net_c(sim_c, clique);
        const double sim_over =
            simnet::runProgram(sim_c, net_c,
                               sched::treeProgram(
                                   embedding, sched::TreeDirection::kAllReduce,
                                   sched::PhaseMode::kOverlapped, k),
                               n)
                .completion_time;

        const double model_ratio =
            tree.allReduceTime(8, n) / overlapped.allReduceTime(8, n);
        const double sim_ratio = sim_base / sim_over;
        // The inorder(8) tree is one level deeper than log2(8) on its
        // longest path, so allow a modest tolerance.
        EXPECT_NEAR(sim_ratio, model_ratio, model_ratio * 0.15)
            << "n=" << n;
    }
}

} // namespace
} // namespace ccube
