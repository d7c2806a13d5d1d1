/**
 * @file
 * Randomized property tests: invariants that must hold for *any*
 * workload, topology, or buffer contents — not just the hand-picked
 * cases of the unit suites. All randomness is seeded (deterministic).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ccl/program_task.h"
#include "ccl/tuner.h"
#include "core/ccube_engine.h"
#include "core/chunk_mapper.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/embedding_search.h"
#include "util/rng.h"
#include "util/units.h"

namespace ccube {
namespace {

/** Random synthetic workload with plausible layer profiles. */
dnn::NetworkModel
randomNetwork(util::Rng& rng)
{
    const int layers = static_cast<int>(rng.uniformInt(3, 40));
    std::vector<dnn::Layer> result;
    for (int l = 0; l < layers; ++l) {
        dnn::Layer layer;
        layer.name = std::string("L").append(std::to_string(l));
        layer.kind = dnn::LayerKind::kConv;
        layer.param_count = rng.uniformInt(0, 4000000);
        layer.forward_flops_per_sample =
            rng.uniformInt(1000000, 400000000);
        layer.output_elems_per_sample = rng.uniformInt(1, 500000);
        layer.input_elems_per_sample = rng.uniformInt(1, 500000);
        result.push_back(std::move(layer));
    }
    // Ensure at least one parameterized layer.
    if (std::all_of(result.begin(), result.end(),
                    [](const dnn::Layer& l) {
                        return l.param_count == 0;
                    })) {
        result.front().param_count = 1000000;
    }
    return dnn::NetworkModel("random", std::move(result));
}

TEST(PropertyIteration, InvariantsHoldForRandomWorkloads)
{
    util::Rng rng(2026);
    for (int trial = 0; trial < 10; ++trial) {
        core::CCubeEngine engine(randomNetwork(rng));
        core::IterationConfig config;
        config.batch = static_cast<int>(rng.uniformInt(8, 128));
        config.bandwidth_scale = rng.uniform(0.2, 1.0);

        double prev_cc = 0.0;
        for (core::Mode mode : core::allModes()) {
            const auto r = engine.evaluate(mode, config);
            // Normalized performance is a proper fraction.
            ASSERT_GT(r.normalized_perf, 0.0);
            ASSERT_LE(r.normalized_perf, 1.0 + 1e-9);
            // Iterations contain at least the compute.
            ASSERT_GE(r.iteration_time,
                      r.forward_time + r.backward_time - 1e-12);
            // Turnaround never exceeds completion.
            ASSERT_LE(r.turnaround_time, r.comm_time + 1e-12);
            if (mode == core::Mode::kCCube)
                prev_cc = r.normalized_perf;
        }
        // CC never loses to the unchained overlapped tree.
        const auto c1 =
            engine.evaluate(core::Mode::kOverlappedTree, config);
        ASSERT_GE(prev_cc, c1.normalized_perf - 1e-9) << "trial "
                                                      << trial;
    }
}

TEST(PropertyComm, OverlapNeverSlowerAcrossRandomSizes)
{
    util::Rng rng(7);
    core::CCubeEngine engine(dnn::buildResnet50());
    for (int trial = 0; trial < 12; ++trial) {
        const double bytes = rng.uniform(1e6, 3e8);
        const double bw = rng.uniform(0.2, 1.0);
        const auto base =
            engine.commOnly(core::Mode::kBaseline, bytes, bw);
        const auto over = engine.commOnly(
            core::Mode::kOverlappedTree, bytes, bw);
        ASSERT_LE(over.completion_time,
                  base.completion_time * (1.0 + 1e-9))
            << "bytes=" << bytes;
        ASSERT_LE(over.turnaroundTime(),
                  base.turnaroundTime() * (1.0 + 1e-9));
        // Chunk-ready times are monotone within each tree.
        const int k = over.num_chunks / 2;
        for (int c = 1; c < k; ++c) {
            ASSERT_LE(over.chunk_ready[static_cast<std::size_t>(c - 1)],
                      over.chunk_ready[static_cast<std::size_t>(c)] +
                          1e-15);
        }
    }
}

TEST(PropertyMapper, TablesMonotoneAndCoverAllChunks)
{
    util::Rng rng(11);
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);
    const topo::TreeEmbedding& tree = dt.tree0;
    for (int trial = 0; trial < 20; ++trial) {
        const int layers = static_cast<int>(rng.uniformInt(1, 30));
        std::vector<double> layer_bytes;
        double total = 0.0;
        for (int l = 0; l < layers; ++l) {
            const double b =
                rng.uniform(0.0, 1.0) < 0.2 ? 0.0
                                            : rng.uniform(1e3, 1e7);
            layer_bytes.push_back(b);
            total += b;
        }
        if (total <= 0.0) {
            layer_bytes.back() = 1e6;
            total = 1e6;
        }
        const int chunks = static_cast<int>(rng.uniformInt(1, 64));
        const core::ChunkMapper mapper(
            sched::treeProgram(tree, sched::TreeDirection::kAllReduce,
                               sched::PhaseMode::kOverlapped, chunks)
                .geometry(total));
        const auto tables = mapper.layerChunkTables(layer_bytes);
        ASSERT_EQ(tables.size(), 1u);
        const std::vector<std::int64_t>& table = tables[0].bounds;
        for (std::size_t i = 1; i < table.size(); ++i)
            ASSERT_GE(table[i], table[i - 1]);
        ASSERT_EQ(table.back(), chunks);

        // Union of all layers' chunks covers every chunk.
        std::set<int> covered;
        for (int l = 0; l < layers; ++l)
            for (int c : mapper.chunksOfLayer(layer_bytes, l))
                covered.insert(c);
        ASSERT_EQ(static_cast<int>(covered.size()), chunks);

        // Per-tree tables of the double-tree layout.
        const int per_tree = std::max(1, chunks / 2);
        const core::ChunkMapper dual(
            sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped,
                                     per_tree)
                .geometry(total));
        const auto per_part = dual.layerChunkTables(layer_bytes);
        ASSERT_EQ(per_part.size(), 2u);
        for (const core::LayerChunkTable& t : per_part) {
            ASSERT_EQ(t.bounds.size(), layer_bytes.size());
            for (std::size_t i = 1; i < t.bounds.size(); ++i)
                ASSERT_GE(t.bounds[i], t.bounds[i - 1]);
            ASSERT_EQ(t.bounds.back(), per_tree);
        }
    }
}

TEST(PropertyDispatcher, AlgorithmsAgreeOnRandomBuffers)
{
    util::Rng rng(13);
    const topo::Graph dgx1 = topo::makeDgx1();
    for (int trial = 0; trial < 3; ++trial) {
        const std::size_t elems =
            static_cast<std::size_t>(rng.uniformInt(32, 256));
        ccl::RankBuffers reference(8);
        for (auto& b : reference) {
            b.resize(elems);
            rng.fill(b, -3.0f, 3.0f);
        }
        std::vector<float> first_result;
        for (auto algorithm :
             {ccl::AllReduceAlgorithm::kRing,
              ccl::AllReduceAlgorithm::kOverlappedTree,
              ccl::AllReduceAlgorithm::kCCubeDoubleTree}) {
            ccl::RankBuffers buffers = reference;
            ccl::Communicator comm(8);
            ccl::runProgram(comm, buffers,
                            ccl::allReduceProgram(dgx1, 8, algorithm, 4));
            if (first_result.empty()) {
                first_result = buffers[0];
            } else {
                for (std::size_t i = 0; i < elems; ++i) {
                    ASSERT_NEAR(buffers[0][i], first_result[i],
                                1e-3f)
                        << "trial " << trial << " elem " << i;
                }
            }
        }
    }
}

TEST(PropertyEmbedding, ConflictAnalysisConsistency)
{
    // isConflictFree ⇔ conflictingPairs empty, for random embeddings.
    util::Rng rng(17);
    const topo::Graph dgx1 = topo::makeDgx1();
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        topo::EmbeddingSearchOptions options;
        options.seed = seed;
        options.max_attempts = 200;
        const auto found =
            topo::findConflictFreeDoubleTree(dgx1, options);
        if (!found)
            continue;
        EXPECT_TRUE(topo::conflictingPairs(dgx1, *found).empty());
        EXPECT_TRUE(topo::isConflictFree(dgx1, *found));
    }
    const auto naive = topo::makeNaiveDgx1DoubleTree(dgx1);
    EXPECT_EQ(topo::isConflictFree(dgx1, naive),
              topo::conflictingPairs(dgx1, naive).empty());
}

TEST(PropertyTreeSchedule, CompletionScalesLinearlyInBytes)
{
    // For fixed K, doubling the payload must roughly double the
    // bandwidth-dominated completion (α terms are negligible here).
    core::CCubeEngine engine(dnn::buildResnet50());
    const auto a = engine.commOnly(core::Mode::kOverlappedTree,
                                   util::mib(64));
    const auto b = engine.commOnly(core::Mode::kOverlappedTree,
                                   util::mib(128));
    const double ratio = b.completion_time / a.completion_time;
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.4);
}

} // namespace
} // namespace ccube
