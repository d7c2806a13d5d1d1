/**
 * @file
 * Cross-validation of the closed-form iteration model against the
 * discrete-event scheduler — the system-level analog of Fig. 12(b):
 * the analytic Eqs. (2)/(6)/(7) plus the linear availability ramp
 * must predict what the DES measures, across workloads, modes, and
 * bandwidth settings.
 */

#include <gtest/gtest.h>

#include "core/ccube_engine.h"
#include "model/iteration_model.h"
#include "util/units.h"

namespace ccube {
namespace {

model::IterationModelParams
machineParams(const core::CCubeEngine& engine, double bw_scale)
{
    model::IterationModelParams params;
    params.link = engine.linkModel();
    params.num_gpus = engine.numGpus();
    params.ring_count =
        static_cast<int>(engine.rings().size());
    params.bandwidth_scale = bw_scale;
    return params;
}

core::Mode
toCoreMode(model::ModeledMode mode)
{
    switch (mode) {
      case model::ModeledMode::kBaseline:
        return core::Mode::kBaseline;
      case model::ModeledMode::kOverlappedTree:
        return core::Mode::kOverlappedTree;
      case model::ModeledMode::kRing: return core::Mode::kRing;
      case model::ModeledMode::kCCube: return core::Mode::kCCube;
    }
    return core::Mode::kBaseline;
}

TEST(IterationModelVsDes, CommTimesWithinTolerance)
{
    core::CCubeEngine engine(dnn::buildResnet50());
    const model::IterationModel model(machineParams(engine, 1.0));
    for (double mb : {16.0, 64.0, 256.0}) {
        const double bytes = util::mib(mb);
        for (auto mode : {model::ModeledMode::kBaseline,
                          model::ModeledMode::kOverlappedTree,
                          model::ModeledMode::kRing}) {
            const double predicted = model.commTime(mode, bytes);
            const double measured =
                engine.commOnly(toCoreMode(mode), bytes)
                    .completion_time;
            // The DES adds detour hops and pipeline-fill effects the
            // closed form omits; 15% agreement across two orders of
            // magnitude of size is the Fig. 12(b)-style check.
            EXPECT_NEAR(measured, predicted, predicted * 0.15)
                << "mode " << static_cast<int>(mode) << " size " << mb;
        }
    }
}

TEST(IterationModelVsDes, TurnaroundWithinTolerance)
{
    core::CCubeEngine engine(dnn::buildResnet50());
    const model::IterationModel model(machineParams(engine, 1.0));
    const double bytes = util::mib(64);
    const double predicted = model.turnaroundTime(
        model::ModeledMode::kOverlappedTree, bytes);
    const double measured =
        engine.commOnly(core::Mode::kOverlappedTree, bytes)
            .turnaroundTime();
    EXPECT_NEAR(measured, predicted, predicted * 0.25);
}

TEST(IterationModelVsDes, NormalizedPerfTracksAcrossSweep)
{
    for (auto build :
         {dnn::buildZfNet, dnn::buildVgg16, dnn::buildResnet50}) {
        core::CCubeEngine engine(build());
        for (double bw : {0.25, 1.0}) {
            const model::IterationModel model(
                machineParams(engine, bw));
            for (int batch : {16, 64}) {
                for (auto mode : {model::ModeledMode::kBaseline,
                                  model::ModeledMode::kOverlappedTree,
                                  model::ModeledMode::kRing,
                                  model::ModeledMode::kCCube}) {
                    core::IterationConfig config;
                    config.batch = batch;
                    config.bandwidth_scale = bw;
                    const double des =
                        engine.evaluate(toCoreMode(mode), config)
                            .normalized_perf;
                    const double analytic = model.normalizedPerf(
                        mode, engine.network(), batch);
                    EXPECT_NEAR(analytic, des, des * 0.12)
                        << engine.network().name() << " bw=" << bw
                        << " batch=" << batch << " mode="
                        << static_cast<int>(mode);
                }
            }
        }
    }
}

TEST(IterationModel, ChainedNeverWorseThanUnchained)
{
    core::CCubeEngine engine(dnn::buildResnet50());
    const model::IterationModel model(machineParams(engine, 0.25));
    const double cc = model.iterationTime(
        model::ModeledMode::kCCube, engine.network(), 32);
    const double c1 = model.iterationTime(
        model::ModeledMode::kOverlappedTree, engine.network(), 32);
    EXPECT_LE(cc, c1 + 1e-12);
}

TEST(IterationModel, BandwidthScaleOnlyAffectsBeta)
{
    core::CCubeEngine engine(dnn::buildZfNet());
    const model::IterationModel high(machineParams(engine, 1.0));
    const model::IterationModel low(machineParams(engine, 0.25));
    const double bytes = util::mib(64);
    const double t_high =
        high.commTime(model::ModeledMode::kRing, bytes);
    const double t_low =
        low.commTime(model::ModeledMode::kRing, bytes);
    // Bandwidth term quadruples; α terms unchanged.
    EXPECT_GT(t_low, t_high * 3.0);
    EXPECT_LT(t_low, t_high * 4.0);
}

} // namespace
} // namespace ccube
