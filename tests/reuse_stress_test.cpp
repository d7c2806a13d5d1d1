/**
 * @file
 * Reuse and stress tests: a long-lived communicator running many
 * back-to-back collectives (the steady-state training pattern), the
 * multi-ring channel budget on the DGX-1, and the DGX-1 machine's
 * ring-striping knob.
 */

#include <gtest/gtest.h>

#include <map>

#include "ccl/program_task.h"
#include "core/ccube_engine.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "util/rng.h"
#include "util/units.h"

namespace ccube {
namespace {

TEST(CommunicatorReuse, BackToBackTreeCollectives)
{
    // One communicator, many iterations — mailboxes must drain
    // cleanly between collectives (no stale chunks, no deadlock).
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);
    ccl::Communicator comm(8);
    util::Rng rng(77);
    for (int iter = 0; iter < 5; ++iter) {
        ccl::RankBuffers buffers(8);
        for (auto& b : buffers) {
            b.resize(48);
            rng.fill(b, -1.0f, 1.0f);
        }
        std::vector<float> sum(48, 0.0f);
        for (const auto& b : buffers)
            for (std::size_t i = 0; i < sum.size(); ++i)
                sum[i] += b[i];
        const auto trace = ccl::runProgram(comm, buffers,
                                           sched::doubleTreeProgram(
                                               dt,
                                               sched::PhaseMode::kOverlapped,
                                               3));
        for (int r = 0; r < 8; ++r) {
            for (std::size_t i = 0; i < sum.size(); ++i) {
                ASSERT_NEAR(buffers[static_cast<std::size_t>(r)][i],
                            sum[i], 1e-4f)
                    << "iter " << iter << " rank " << r;
            }
        }
        // Per-tree in-order delivery (global ids interleave across
        // the two concurrent trees).
        for (int r = 0; r < 8; ++r) {
            int last0 = -1;
            int last1 = -1;
            for (int chunk : trace.order(r)) {
                if (chunk < 3) {
                    EXPECT_GT(chunk, last0) << "iter " << iter;
                    last0 = chunk;
                } else {
                    EXPECT_GT(chunk, last1) << "iter " << iter;
                    last1 = chunk;
                }
            }
        }
    }
}

TEST(CommunicatorReuse, MixedAlgorithmsShareFlows)
{
    // Ring then tree on the same communicator: distinct flow ids keep
    // their mailboxes separate.
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);
    const topo::RingEmbedding ring = topo::findHamiltonianRing(dgx1, 8);
    ccl::Communicator comm(8);
    util::Rng rng(78);
    for (int round = 0; round < 2; ++round) {
        ccl::RankBuffers buffers(8);
        for (auto& b : buffers) {
            b.resize(64);
            rng.fill(b, -1.0f, 1.0f);
        }
        std::vector<float> sum(64, 0.0f);
        for (const auto& b : buffers)
            for (std::size_t i = 0; i < sum.size(); ++i)
                sum[i] += b[i];
        if (round == 0)
            ccl::runProgram(comm, buffers,
                            sched::ringProgram(ring,
                                               sched::RingPhase::kAllReduce));
        else
            ccl::runProgram(comm, buffers,
                            sched::doubleTreeProgram(
                                dt, sched::PhaseMode::kTwoPhase, 4));
        for (int r = 0; r < 8; ++r)
            for (std::size_t i = 0; i < sum.size(); ++i)
                ASSERT_NEAR(buffers[static_cast<std::size_t>(r)][i],
                            sum[i], 1e-4f);
    }
}

TEST(MultiRingBudget, NoChannelOversubscribedOnDgx1)
{
    // With lane assignment, 4 striped rings must never put two rings
    // on one physical channel: per channel, the grant count equals
    // the 2(P−1) steps of exactly one ring (or zero).
    const topo::Graph dgx1 = topo::makeDgx1();
    const auto rings = topo::findDisjointRings(dgx1, 8, 4);
    ASSERT_EQ(rings.size(), 4u);
    sim::Simulation sim;
    simnet::Network net(sim, dgx1);
    simnet::runProgram(sim, net, sched::multiRingProgram(rings), util::mib(8));
    const std::uint64_t steps = 2 * (8 - 1);
    for (int id = 0; id < dgx1.channelCount(); ++id) {
        const std::uint64_t grants = net.channelGrants(id);
        EXPECT_TRUE(grants == 0 || grants == steps)
            << "channel " << id << " carried " << grants;
    }
}

TEST(EngineKnobs, RingCountChangesRBaselineOnly)
{
    core::CCubeEngine engine3(dnn::buildResnet50(),
                              core::makeDgx1Machine({}, 3));
    core::CCubeEngine engine4(dnn::buildResnet50(),
                              core::makeDgx1Machine({}, 4));
    const double bytes = util::mib(64);
    const double r3 =
        engine3.commOnly(core::Mode::kRing, bytes).completion_time;
    const double r4 =
        engine4.commOnly(core::Mode::kRing, bytes).completion_time;
    EXPECT_NEAR(r3 / r4, 4.0 / 3.0, 0.15);
    const double c3 = engine3.commOnly(core::Mode::kOverlappedTree,
                                       bytes)
                          .completion_time;
    const double c4 = engine4.commOnly(core::Mode::kOverlappedTree,
                                       bytes)
                          .completion_time;
    EXPECT_DOUBLE_EQ(c3, c4); // trees unaffected
}

} // namespace
} // namespace ccube
