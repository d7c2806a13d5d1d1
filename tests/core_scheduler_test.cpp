/**
 * @file
 * Engine/iteration-scheduler tests: the paper's headline performance
 * relationships (§V-B) must hold in the simulated system —
 *   C1 faster than B in communication; CC at least as fast as every
 *   other mode end-to-end; chaining never reorders computation
 *   (accuracy neutrality, invariant #9); detour GPUs degrade by only
 *   a few percent (Fig. 15).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/ccube_engine.h"
#include "core/chunk_mapper.h"
#include "obs/capture.h"
#include "obs/monitor.h"
#include "util/units.h"

namespace ccube {
namespace core {
namespace {

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest() : engine_(dnn::buildResnet50()) {}
    CCubeEngine engine_;
};

TEST_F(EngineTest, TopologyIsWellFormed)
{
    EXPECT_EQ(engine_.graph().nodeCount(), 8);
    EXPECT_GE(engine_.rings().size(), 3u);
    EXPECT_TRUE(
        topo::isConflictFree(engine_.graph(), engine_.doubleTree()));
}

TEST_F(EngineTest, OverlapSpeedsUpCommunication)
{
    // Fig. 12(a): C1 beats B by ≥ 75% at 64 MB and the gain grows
    // with size.
    const double n64 = util::mib(64);
    const double b64 =
        engine_.commOnly(Mode::kBaseline, n64).completion_time;
    const double c64 =
        engine_.commOnly(Mode::kOverlappedTree, n64).completion_time;
    EXPECT_GT(b64 / c64, 1.70);
    EXPECT_LT(b64 / c64, 2.0);

    const double n256 = util::mib(256);
    const double b256 =
        engine_.commOnly(Mode::kBaseline, n256).completion_time;
    const double c256 =
        engine_.commOnly(Mode::kOverlappedTree, n256).completion_time;
    EXPECT_GE(b256 / c256, b64 / c64 * 0.99);
}

TEST_F(EngineTest, RingBeatsTreesOnSmallSystemLargeMessages)
{
    // §V-B2: on the 8-GPU DGX-1 the multi-ring R is bandwidth-optimal
    // and beats C1 for large payloads.
    const double n = util::mib(64);
    const double r = engine_.commOnly(Mode::kRing, n).completion_time;
    const double c1 =
        engine_.commOnly(Mode::kOverlappedTree, n).completion_time;
    EXPECT_LT(r, c1);
}

TEST_F(EngineTest, TurnaroundGainsExceedCompletionGains)
{
    // The overlapped tree's big win is gradient turnaround (Fig. 7).
    const double n = util::mib(64);
    const auto base = engine_.commOnly(Mode::kBaseline, n);
    const auto over = engine_.commOnly(Mode::kOverlappedTree, n);
    const double completion_gain =
        base.completion_time / over.completion_time;
    const double turnaround_gain =
        base.turnaroundTime() / over.turnaroundTime();
    EXPECT_GT(turnaround_gain, completion_gain);
    EXPECT_GT(turnaround_gain, 3.0);
}

TEST_F(EngineTest, ModeOrderingMatchesPaper)
{
    // Fig. 13 orderings at moderate batch: B slowest; C1 and C2 both
    // improve on B; CC is the best tree-based configuration and beats
    // R by hiding communication.
    IterationConfig config;
    config.batch = 32;
    config.bandwidth_scale = 0.25; // "low" bandwidth stresses comm
    const double b =
        engine_.evaluate(Mode::kBaseline, config).normalized_perf;
    const double c1 =
        engine_.evaluate(Mode::kOverlappedTree, config).normalized_perf;
    const double c2 = engine_.evaluate(Mode::kComputeChaining, config)
                          .normalized_perf;
    const double r =
        engine_.evaluate(Mode::kRing, config).normalized_perf;
    const double cc =
        engine_.evaluate(Mode::kCCube, config).normalized_perf;

    EXPECT_GT(c1, b);
    EXPECT_GE(c2, c1 * 0.98); // C2 comparable to or better than C1
    EXPECT_GT(cc, c1);
    EXPECT_GT(cc, c2);
    EXPECT_GT(cc, r);
    EXPECT_GT(r, b);
}

TEST_F(EngineTest, ChainedIterationNeverExceedsUnchained)
{
    for (double bw : {1.0, 0.25}) {
        for (int batch : {16, 64}) {
            IterationConfig config;
            config.batch = batch;
            config.bandwidth_scale = bw;
            const double unchained =
                engine_.evaluate(Mode::kOverlappedTree, config)
                    .iteration_time;
            const double chained =
                engine_.evaluate(Mode::kCCube, config).iteration_time;
            EXPECT_LE(chained, unchained * (1.0 + 1e-9))
                << "bw=" << bw << " batch=" << batch;
        }
    }
}

TEST_F(EngineTest, EfficiencyRisesWithBatchAndBandwidth)
{
    // §V-B2: larger batch or higher bandwidth → higher efficiency.
    IterationConfig small;
    small.batch = 16;
    small.bandwidth_scale = 0.25;
    IterationConfig big;
    big.batch = 128;
    big.bandwidth_scale = 0.25;
    EXPECT_GT(engine_.evaluate(Mode::kCCube, big).normalized_perf,
              engine_.evaluate(Mode::kCCube, small).normalized_perf);

    IterationConfig high = small;
    high.bandwidth_scale = 1.0;
    EXPECT_GT(engine_.evaluate(Mode::kCCube, high).normalized_perf,
              engine_.evaluate(Mode::kCCube, small).normalized_perf);
}

TEST_F(EngineTest, NormalizedPerfBounded)
{
    for (Mode mode : allModes()) {
        IterationConfig config;
        const auto result = engine_.evaluate(mode, config);
        EXPECT_GT(result.normalized_perf, 0.0) << modeName(mode);
        EXPECT_LE(result.normalized_perf, 1.0) << modeName(mode);
        EXPECT_GE(result.exposed_comm, -1e-9) << modeName(mode);
    }
}

TEST_F(EngineTest, PerGpuDetourPenaltySmall)
{
    // Fig. 15: detour GPUs (0 and 1) lose only ~3-4%, others none.
    IterationConfig config;
    config.batch = 64;
    const auto perf = engine_.perGpuNormalizedPerf(Mode::kCCube, config);
    ASSERT_EQ(perf.size(), 8u);
    for (int g : {0, 1}) {
        EXPECT_LT(perf[static_cast<std::size_t>(g)], 1.0);
        EXPECT_GT(perf[static_cast<std::size_t>(g)], 0.92);
    }
    for (int g = 2; g < 8; ++g)
        EXPECT_NEAR(perf[static_cast<std::size_t>(g)], 1.0, 1e-9);
    // Detour GPUs are strictly slower than non-detour GPUs.
    EXPECT_LT(perf[0], perf[2]);
    EXPECT_LT(perf[1], perf[2]);
}

TEST_F(EngineTest, PerGpuEvaluationSimulatesOnce)
{
    // The detour tax slows compute only, so the per-GPU figure reuses
    // one simulated AllReduce, the same as one evaluation.
    IterationConfig config;
    config.batch = 64;
    auto collectives = [](auto&& run) {
        obs::Monitor monitor;
        monitor.enable();
        obs::ScopedCapture capture{
            obs::Capture(nullptr, nullptr, &monitor)};
        run();
        return monitor.collectivesTotal();
    };
    EXPECT_EQ(collectives(
                  [&] { engine_.evaluate(Mode::kCCube, config); }),
              1u);
    EXPECT_EQ(collectives([&] {
                  engine_.perGpuNormalizedPerf(Mode::kCCube, config);
              }),
              1u);
}

TEST_F(EngineTest, AccuracyNeutralLayerOrder)
{
    // Invariant #9: chaining changes *when* layers run, never their
    // order — layer ready times are consumed strictly in layer order
    // by construction of the chained recurrence; verify via the
    // mapper tables (one per tree) being monotone for the real
    // workload.
    const auto schedule =
        engine_.commOnly(Mode::kCCube, engine_.network()
                                           .totalParamBytes());
    const ChunkMapper mapper(schedule.geometry);
    const auto tables =
        mapper.layerChunkTables(engine_.network().layerParamBytes());
    ASSERT_EQ(tables.size(), 2u);
    for (const LayerChunkTable& table : tables)
        for (std::size_t i = 1; i < table.bounds.size(); ++i)
            EXPECT_GE(table.bounds[i], table.bounds[i - 1]);
}

TEST(EngineWorkloads, ZfNetSmallBatchFavorsRing)
{
    // §V-B2: "except for small batch size for ZFNet, CC exceeds R" —
    // ZFNet's huge gradients + tiny compute at small batch leave CC
    // too little forward time to hide communication.
    CCubeEngine engine(dnn::buildZfNet());
    IterationConfig config;
    config.batch = 16;
    config.bandwidth_scale = 0.25;
    const double r = engine.evaluate(Mode::kRing, config).normalized_perf;
    const double cc =
        engine.evaluate(Mode::kCCube, config).normalized_perf;
    // CC does not dominate R in this corner (ratio near or below 1).
    EXPECT_LT(cc / r, 1.25);
}

TEST(EngineWorkloads, AllCatalogNetworksEvaluate)
{
    for (auto build : {dnn::buildZfNet, dnn::buildVgg16,
                       dnn::buildResnet50}) {
        CCubeEngine engine(build());
        IterationConfig config;
        config.batch = 32;
        for (Mode mode : allModes()) {
            const auto result = engine.evaluate(mode, config);
            EXPECT_GT(result.iteration_time, 0.0)
                << engine.network().name() << " " << modeName(mode);
        }
    }
}

TEST(MachineModelApi, EngineRunsOnDgx2)
{
    // The general-machine constructor: same workload, the NVSwitch
    // platform; all modes evaluate and CC still dominates B.
    CCubeEngine engine(dnn::buildResnet50(), makeDgx2Machine());
    EXPECT_EQ(engine.graph().nodeCount(), 22);
    IterationConfig config;
    config.batch = 32;
    config.bandwidth_scale = 0.25;
    const double b =
        engine.evaluate(Mode::kBaseline, config).normalized_perf;
    const double cc =
        engine.evaluate(Mode::kCCube, config).normalized_perf;
    EXPECT_GT(cc, b);
    // Detour-free machine: no per-GPU forwarding penalty anywhere.
    const auto perf = engine.perGpuNormalizedPerf(Mode::kCCube, config);
    for (double p : perf)
        EXPECT_NEAR(p, 1.0, 1e-9);
}

TEST(MachineModelApi, Dgx1PresetMatchesDefaultConstructor)
{
    CCubeEngine via_default(dnn::buildZfNet());
    CCubeEngine via_machine(dnn::buildZfNet(), makeDgx1Machine());
    IterationConfig config;
    config.batch = 32;
    for (Mode mode : allModes()) {
        EXPECT_DOUBLE_EQ(
            via_default.evaluate(mode, config).iteration_time,
            via_machine.evaluate(mode, config).iteration_time)
            << modeName(mode);
    }
}

TEST(ModeNames, AreStable)
{
    EXPECT_STREQ(modeName(Mode::kBaseline), "B");
    EXPECT_STREQ(modeName(Mode::kOverlappedTree), "C1");
    EXPECT_STREQ(modeName(Mode::kComputeChaining), "C2");
    EXPECT_STREQ(modeName(Mode::kRing), "R");
    EXPECT_STREQ(modeName(Mode::kCCube), "CC");
    EXPECT_EQ(allModes().size(), 5u);
}

} // namespace
} // namespace core
} // namespace ccube
