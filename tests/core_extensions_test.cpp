/**
 * @file
 * Tests for the extension modules: the gradient queue over the double
 * tree's per-tree layer-chunk tables, the multi-iteration Trainer,
 * and heterogeneous-bandwidth (straggler) behaviour of the timed
 * schedules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/ccube_engine.h"
#include "core/chunk_mapper.h"
#include "core/gradient_queue.h"
#include "core/timeline.h"
#include "core/trainer.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "util/units.h"

namespace ccube {
namespace core {
namespace {

TEST(GradientQueue, DoubleTreeTablesDrainOnResnet)
{
    // Per-tree tables of the DGX-1 double tree's geometry over
    // ResNet-50: delivering every chunk, interleaved across the trees
    // as the observer would, lets every layer dequeue in order.
    const dnn::NetworkModel net = dnn::buildResnet50();
    const topo::Graph dgx1 = topo::makeDgx1();
    const int chunks_per_tree = 32;
    const sched::Program program = sched::doubleTreeProgram(
        topo::makeDgx1DoubleTree(dgx1), sched::PhaseMode::kOverlapped,
        chunks_per_tree);
    const ChunkMapper mapper(program.geometry(net.totalParamBytes()));
    const auto tables = mapper.layerChunkTables(net.layerParamBytes());
    ASSERT_EQ(tables.size(), 2u);
    ASSERT_EQ(static_cast<int>(tables[0].bounds.size()), net.numLayers());
    GradientQueue queue(tables);
    for (int c = 0; c < chunks_per_tree; ++c) {
        queue.enqueueChunk(c);
        queue.enqueueChunk(chunks_per_tree + c);
    }
    for (int l = 0; l < net.numLayers(); ++l)
        EXPECT_TRUE(queue.tryDequeueLayer(l)) << "layer " << l;
}

TEST(Trainer, SteadyStateDominatesLongRuns)
{
    CCubeEngine engine(dnn::buildResnet50());
    Trainer trainer(engine);
    IterationConfig config;
    config.batch = 32;
    const auto short_run =
        trainer.run(Mode::kCCube, config, /*iterations=*/2);
    const auto long_run =
        trainer.run(Mode::kCCube, config, /*iterations=*/100);
    EXPECT_EQ(long_run.iterations, 100);
    EXPECT_GT(long_run.total_time, short_run.total_time);
    // Per-iteration cost converges to the steady period.
    EXPECT_NEAR(long_run.total_time / 100,
                long_run.steady_iteration_time,
                long_run.steady_iteration_time * 0.05);
    EXPECT_GT(long_run.samples_per_second, 0.0);
    EXPECT_GT(long_run.scaling_efficiency, 0.5);
    EXPECT_LE(long_run.scaling_efficiency, 1.0 + 1e-9);
}

TEST(Trainer, CCubeOutperformsBaselineThroughput)
{
    CCubeEngine engine(dnn::buildVgg16());
    Trainer trainer(engine);
    IterationConfig config;
    config.batch = 32;
    config.bandwidth_scale = 0.25;
    const auto base = trainer.run(Mode::kBaseline, config, 50);
    const auto ccube = trainer.run(Mode::kCCube, config, 50);
    EXPECT_GT(ccube.samples_per_second, base.samples_per_second);
    EXPECT_GT(ccube.scaling_efficiency, base.scaling_efficiency);
}

TEST(Timeline, EventsAreWellFormedAndOrdered)
{
    CCubeEngine engine(dnn::buildZfNet());
    IterationConfig config;
    config.batch = 16;
    config.bandwidth_scale = 0.25;
    for (Mode mode : allModes()) {
        const auto events = TimelineBuilder::build(engine, mode, config);
        ASSERT_FALSE(events.empty()) << modeName(mode);
        double fwd_prev_end = 0.0;
        bool saw_backward = false;
        for (const TimelineEvent& e : events) {
            ASSERT_LE(e.start, e.end) << modeName(mode);
            ASSERT_GE(e.start, 0.0);
            if (e.track == "backward")
                saw_backward = true;
            if (e.track == "forward") {
                // Forward layers execute strictly in order.
                ASSERT_GE(e.start, fwd_prev_end - 1e-12);
                fwd_prev_end = e.end;
            }
        }
        EXPECT_TRUE(saw_backward);
    }
}

TEST(Timeline, ChainedForwardStartsBeforeCommCompletes)
{
    CCubeEngine engine(dnn::buildResnet50());
    IterationConfig config;
    config.batch = 16;
    config.bandwidth_scale = 0.25;
    const auto events =
        TimelineBuilder::build(engine, Mode::kCCube, config);
    double comm_end = 0.0;
    double first_forward = 1e99;
    for (const TimelineEvent& e : events) {
        if (e.track == "allreduce")
            comm_end = std::max(comm_end, e.end);
        if (e.track == "forward")
            first_forward = std::min(first_forward, e.start);
    }
    EXPECT_LT(first_forward, comm_end); // the chaining, visible
}

TEST(Timeline, ForwardEndsAtEvaluatedIterationTime)
{
    // The drawn iteration is the evaluated one: the last forward layer
    // ends at the steady-state period and backward spans its compute.
    CCubeEngine engine(dnn::buildResnet50());
    for (double bw : {1.0, 0.25}) {
        IterationConfig config;
        config.batch = 64;
        config.bandwidth_scale = bw;
        for (Mode mode : allModes()) {
            const IterationResult result = engine.evaluate(mode, config);
            double forward_end = 0.0;
            double backward_end = -1.0;
            for (const TimelineEvent& e :
                 TimelineBuilder::build(engine, mode, config)) {
                if (e.track == "forward")
                    forward_end = e.end;
                if (e.track == "backward") {
                    EXPECT_EQ(e.start, 0.0);
                    backward_end = e.end;
                }
            }
            EXPECT_NEAR(forward_end, result.iteration_time, 1e-12)
                << modeName(mode) << " bw " << bw;
            EXPECT_DOUBLE_EQ(backward_end, result.backward_time)
                << modeName(mode) << " bw " << bw;
        }
    }
}

TEST(Timeline, CsvHasHeaderAndRows)
{
    CCubeEngine engine(dnn::buildZfNet());
    IterationConfig config;
    const auto events =
        TimelineBuilder::build(engine, Mode::kBaseline, config);
    std::ostringstream oss;
    TimelineBuilder::writeCsv(oss, events);
    const std::string out = oss.str();
    EXPECT_EQ(out.rfind("track,label,start_s,end_s\n", 0), 0u);
    EXPECT_NE(out.find("backward"), std::string::npos);
    std::ostringstream gantt;
    TimelineBuilder::printAscii(gantt, events, 40);
    EXPECT_NE(gantt.str().find('#'), std::string::npos);
}

TEST(StragglerChannel, SlowsTheWholeCollective)
{
    // Degrading one channel used by the double tree slows completion
    // — the synchronous collective is gated by its slowest member.
    topo::Graph healthy = topo::makeDgx1();
    const auto dt_h = topo::makeDgx1DoubleTree(healthy);
    sim::Simulation sim_h;
    simnet::Network net_h(sim_h, healthy);
    const double t_healthy =
        simnet::runProgram(sim_h, net_h,
                           sched::doubleTreeProgram(
                               dt_h, sched::PhaseMode::kOverlapped, 32),
                           util::mib(64))
            .completion_time;

    topo::Graph degraded = topo::makeDgx1();
    // Slow every channel of the (2,3) pair — carries both trees.
    for (int id : degraded.channelIds(2, 3))
        degraded.scaleChannelBandwidth(id, 0.5);
    for (int id : degraded.channelIds(3, 2))
        degraded.scaleChannelBandwidth(id, 0.5);
    const auto dt_d = topo::makeDgx1DoubleTree(degraded);
    sim::Simulation sim_d;
    simnet::Network net_d(sim_d, degraded);
    const double t_degraded =
        simnet::runProgram(sim_d, net_d,
                           sched::doubleTreeProgram(
                               dt_d, sched::PhaseMode::kOverlapped, 32),
                           util::mib(64))
            .completion_time;
    EXPECT_GT(t_degraded, t_healthy * 1.2);
}

TEST(StragglerChannel, UnusedChannelIsHarmless)
{
    // Degrading a channel no algorithm uses must not change timing.
    topo::Graph degraded = topo::makeDgx1();
    // Pair (6,7) is not part of the C-Cube double tree (our
    // embedding resolves the cross-tree conflicts on (2,3)/(0,4)
    // instead).
    bool used = false;
    const auto dt = topo::makeDgx1DoubleTree(degraded);
    for (const topo::TreeEmbedding* emb : {&dt.tree0, &dt.tree1}) {
        for (const topo::Route& route : emb->routes) {
            for (std::size_t i = 0; i + 1 < route.hops.size(); ++i) {
                if ((route.hops[i] == 6 && route.hops[i + 1] == 7) ||
                    (route.hops[i] == 7 && route.hops[i + 1] == 6)) {
                    used = true;
                }
            }
        }
    }
    ASSERT_FALSE(used);

    sim::Simulation sim_a;
    simnet::Network net_a(sim_a, degraded);
    const double before =
        simnet::runProgram(sim_a, net_a,
                           sched::doubleTreeProgram(
                               dt, sched::PhaseMode::kOverlapped, 16),
                           util::mib(16))
            .completion_time;
    for (int id : degraded.channelIds(6, 7))
        degraded.scaleChannelBandwidth(id, 0.01);
    sim::Simulation sim_b;
    simnet::Network net_b(sim_b, degraded);
    const double after =
        simnet::runProgram(sim_b, net_b,
                           sched::doubleTreeProgram(
                               dt, sched::PhaseMode::kOverlapped, 16),
                           util::mib(16))
            .completion_time;
    EXPECT_DOUBLE_EQ(before, after);
}

} // namespace
} // namespace core
} // namespace ccube
