/**
 * @file
 * Seeded chaos fuzzing for the resilience stack — the liveness/safety
 * gate (`ctest -L chaos`).
 *
 * Two fuzz surfaces, both driven by fixed seeds so every CI run
 * replays byte-identical fault schedules:
 *
 *  - DES: simnet::ChaosPlan generates timed fail/restore/degrade/
 *    slowdown schedules against the simulated fabric; every run must
 *    drain (liveness), completions must have every chunk delivered,
 *    and a non-completion must be attributable to a channel-fail
 *    event (safety: degrades and slowdowns alone never kill a
 *    collective).
 *
 *  - Functional: core::ResilienceSupervisor runs real threaded
 *    collectives under injected rank kills and channel-event churn,
 *    on both engine placements and both wire protocols. Every
 *    call must return (never hang); a completion must carry the
 *    exact float sums; a non-completion must surface a structured
 *    CollectiveError message and restore the caller's original
 *    inputs bit-for-bit — never a silent wrong answer.
 *
 * Total seeded runs: 80 DES + 88 functional = 168.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/fault.h"
#include "ccl/protocol.h"
#include "core/supervisor.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/chaos.h"
#include "simnet/fault_plan.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/graph.h"
#include "util/rng.h"
#include "util/units.h"

namespace ccube {
namespace {

using namespace std::chrono_literals;

constexpr int kRanks = 8;
constexpr std::size_t kElems = 48;

/**
 * DGX-1 NVLink fabric plus a PCIe peer ring 0-1-...-7-0 (the same
 * testbed as supervisor_test): tree embeddings route NVLink-only, so
 * NVLink-isolating one node forces the ladder past both tree rungs
 * while the PCIe ring keeps the kRing rung routable. On the stock
 * NVLink-only graph that fail set would bottom out at kNone instead,
 * and churn scenarios could never exercise the fallback ring.
 */
topo::Graph
makeTestbed()
{
    topo::Graph graph = topo::makeDgx1();
    const topo::Dgx1Params params;
    for (int g = 0; g < kRanks; ++g)
        graph.addLink(g, (g + 1) % kRanks, params.pcie_bandwidth,
                      params.pcie_latency, topo::LinkKind::kPcie);
    return graph;
}

// ------------------------------------------------------- DES surface

TEST(ChaosPlanDeterminism, SameSeedSameSchedule)
{
    // The generator's fault mix, restore/flap odds and factor range
    // are constants; these summaries pin them (and the draw order).
    const char* const kExpected[] = {
        "seed=1 events=4 fail=1 restore=0 degrade=1 slow=0 dead=2",
        "seed=2 events=7 fail=1 restore=0 degrade=2 slow=1 dead=2",
        "seed=3 events=2 fail=0 restore=0 degrade=1 slow=0 dead=0",
        "seed=4 events=21 fail=5 restore=4 degrade=1 slow=1 dead=2",
        "seed=5 events=4 fail=0 restore=0 degrade=2 slow=0 dead=0",
        "seed=6 events=3 fail=1 restore=0 degrade=0 slow=1 dead=2",
        "seed=7 events=5 fail=1 restore=0 degrade=1 slow=1 dead=2",
        "seed=8 events=6 fail=1 restore=0 degrade=1 slow=2 dead=2",
    };
    const topo::Graph graph = topo::makeDgx1();
    simnet::ChaosOptions options;
    options.max_faults = 4;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const simnet::ChaosPlan a(graph, seed, options);
        const simnet::ChaosPlan b(graph, seed, options);
        ASSERT_EQ(a.eventCount(), b.eventCount()) << "seed " << seed;
        ASSERT_EQ(a.summary(), b.summary()) << "seed " << seed;
        EXPECT_EQ(a.summary(), kExpected[seed - 1]);
        const auto& ea = a.plan().events();
        const auto& eb = b.plan().events();
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].kind, eb[i].kind);
            EXPECT_DOUBLE_EQ(ea[i].at, eb[i].at);
            EXPECT_EQ(ea[i].channel_id, eb[i].channel_id);
            EXPECT_EQ(ea[i].node, eb[i].node);
            EXPECT_DOUBLE_EQ(ea[i].factor, eb[i].factor);
        }
        EXPECT_EQ(a.deadAtHorizon(), b.deadAtHorizon());
    }
}

TEST(ChaosFuzzDes, EightyChaosPlansNeverHangOrLieAboutCompletion)
{
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(graph);
    const double bytes = util::mib(1);

    // Healthy completion time calibrates the chaos horizon so events
    // land mid-collective, not after the run has drained.
    sim::Simulation sim_ref;
    simnet::Network net_ref(sim_ref, graph);
    const double healthy_time =
        simnet::runProgram(sim_ref, net_ref,
                           sched::doubleTreeProgram(
                               dt, sched::PhaseMode::kOverlapped, 8),
                           bytes)
            .completion_time;
    ASSERT_GT(healthy_time, 0.0);

    int completions = 0;
    int casualties = 0;
    for (std::uint64_t seed = 1; seed <= 80; ++seed) {
        SCOPED_TRACE("chaos seed " + std::to_string(seed));
        simnet::ChaosOptions options;
        options.horizon_s = healthy_time;
        options.max_faults = 3;
        const simnet::ChaosPlan chaos(graph, seed, options);

        sim::Simulation sim;
        simnet::Network net(sim, graph);
        // Liveness: the DES always drains — a hang here trips the
        // ctest timeout, which is the failure mode this guards.
        const simnet::FaultedRunResult run =
            simnet::runProgramWithFaults(sim, net,
                                         sched::doubleTreeProgram(
                                             dt, sched::PhaseMode::kOverlapped,
                                             8),
                                         bytes, chaos.plan());

        if (run.completed) {
            ++completions;
            // Safety: "completed" means every chunk really arrived
            // everywhere — no -1.0 sentinel survives.
            for (double ready : run.result.chunk_ready)
                EXPECT_GE(ready, 0.0) << chaos.summary();
        } else {
            ++casualties;
            // A non-completion must be attributable: only channel
            // fails kill traffic (degrades/slowdowns just slow it),
            // and the network must have dropped something.
            bool had_fail = false;
            for (const simnet::FaultEvent& event :
                 chaos.plan().events())
                had_fail = had_fail ||
                           event.kind ==
                               simnet::FaultEvent::Kind::kChannelFail;
            EXPECT_TRUE(had_fail) << chaos.summary();
            EXPECT_GT(run.dropped_transfers, 0u) << chaos.summary();
        }
    }
    // The seeded mix must exercise both outcomes, or the fuzz is
    // vacuous.
    EXPECT_GT(completions, 0);
    EXPECT_GT(casualties, 0);
}

// ------------------------------------------------ functional surface

struct FuzzConfig {
    ccl::RankExecutor::Mode mode;
    ccl::Protocol proto;
    const char* name;
};

class ChaosFuzzFunctional : public ::testing::TestWithParam<FuzzConfig>
{
};

TEST_P(ChaosFuzzFunctional, SupervisedCollectivesNeverLieOrHang)
{
    const topo::Graph graph = makeTestbed();

    // Computed once: the channel set that forces the ring rung — the
    // whole NVLink fabric. (Partial kills re-plan to a PCIe-routed
    // double tree and stay on kCCube; only a fabric-wide outage drops
    // past both tree rungs onto the PCIe peer ring.)
    std::vector<int> ring_set;
    for (int id = 0; id < graph.channelCount(); ++id)
        if (graph.channel(id).kind == topo::LinkKind::kNvlink)
            ring_set.push_back(id);
    {
        core::RecoveryOptions probe;
        probe.search.num_ranks = graph.nodeCount();
        probe.search.max_attempts = 500;
        probe.search.seed = 7;
        ASSERT_EQ(core::recoverSchedule(graph, ring_set, probe).kind,
                  core::RecoveryKind::kRing);
    }
    ASSERT_FALSE(ring_set.empty());

    const FuzzConfig config = GetParam();
    int completions = 0;
    int failures = 0;
    for (std::uint64_t seed = 0; seed < 22; ++seed) {
        SCOPED_TRACE(std::string(config.name) + " seed " +
                     std::to_string(seed));
        util::Rng rng(0x9E3779B97F4A7C15ull ^ (seed * 2654435761ull));

        ccl::Communicator comm(kRanks, 4, config.mode);
        comm.setDeadline(250ms);
        ccl::FaultInjector injector;
        comm.setFaultInjector(&injector);

        core::SupervisorOptions options;
        options.proto = config.proto;
        options.recovery.search.num_ranks = graph.nodeCount();
        options.recovery.search.max_attempts = 300;
        options.recovery.search.seed = 7;
        options.backoff_base_s = 0.001;
        options.backoff_max_s = 0.005;
        options.max_retries = 3;
        options.probation_runs = 1;
        core::ResilienceSupervisor supervisor(comm, graph, options);

        // Scenario draw: 0-2 rank kills, sometimes ladder churn.
        const int kills = static_cast<int>(rng.uniformInt(0, 5)) - 3;
        for (int k = 0; k < kills; ++k) {
            ccl::FaultInjector::Fault fault;
            fault.rank = static_cast<int>(
                rng.uniformInt(0, kRanks - 1));
            fault.action = ccl::FaultInjector::Action::kKill;
            fault.at_op = static_cast<std::int64_t>(
                rng.uniformInt(0, 16));
            injector.arm(fault);
        }
        const bool churn = rng.uniform() < 0.3;
        if (churn)
            for (int id : ring_set)
                supervisor.noteChannelFail(id);

        // Per-rank integer constants: the reduced value is exact in
        // float, so "right answer" is bit-equality, not tolerance.
        ccl::RankBuffers buffers(kRanks);
        float expected = 0.0f;
        for (std::size_t r = 0; r < buffers.size(); ++r) {
            const float v = static_cast<float>(
                rng.uniformInt(1, 9));
            buffers[r].assign(kElems, v);
            expected += v;
        }
        const ccl::RankBuffers original = buffers;

        const core::SupervisorReport report =
            supervisor.allReduce(buffers);

        if (report.completed) {
            ++completions;
            // Safety: exact sums — a silent wrong answer fails here.
            for (std::size_t r = 0; r < buffers.size(); ++r)
                for (float v : buffers[r])
                    ASSERT_EQ(v, expected)
                        << "rank " << r << ": wrong sum";
        } else {
            ++failures;
            // Structured failure: a reason string from the
            // CollectiveError, and untouched original inputs.
            EXPECT_FALSE(report.error.empty());
            for (std::size_t r = 0; r < buffers.size(); ++r)
                ASSERT_EQ(buffers[r], original[r])
                    << "rank " << r << ": partial sums leaked";
        }

        // Churn seeds restore their links afterwards and must climb
        // back to C-Cube — re-admission under fuzz.
        if (churn && report.completed) {
            for (int id : ring_set)
                supervisor.noteChannelRestore(id);
            comm.setFaultInjector(nullptr);
            for (int run = 0; run < 2; ++run) {
                ccl::RankBuffers again = original;
                const core::SupervisorReport climb =
                    supervisor.allReduce(again);
                ASSERT_TRUE(climb.completed);
                for (std::size_t r = 0; r < again.size(); ++r)
                    for (float v : again[r])
                        ASSERT_EQ(v, expected);
            }
            EXPECT_EQ(supervisor.rung(),
                      core::RecoveryKind::kCCube);
        }
    }
    // 22 seeded runs per (mode, protocol): every one returned, and
    // the mix exercised real completions.
    EXPECT_GT(completions, 0);
    EXPECT_EQ(completions + failures, 22);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndProtocols, ChaosFuzzFunctional,
    ::testing::Values(
        FuzzConfig{ccl::RankExecutor::Mode::kPersistent,
                   ccl::Protocol::kSimple, "persistent_simple"},
        FuzzConfig{ccl::RankExecutor::Mode::kPersistent,
                   ccl::Protocol::kLL, "persistent_ll"},
        FuzzConfig{ccl::RankExecutor::Mode::kStateMachine,
                   ccl::Protocol::kSimple, "statemachine_simple"},
        FuzzConfig{ccl::RankExecutor::Mode::kStateMachine,
                   ccl::Protocol::kLL, "statemachine_ll"}),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
        return info.param.name;
    });

} // namespace
} // namespace ccube
