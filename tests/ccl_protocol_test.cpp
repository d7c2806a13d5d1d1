/**
 * @file
 * Tests for the LL/Simple wire-protocol split (ccl/protocol.h) and the
 * auto-tuner (ccl/tuner.h): byte-identical reduction results across
 * protocols, engine modes and the auto path; faults killed/stalled
 * mid-LL-collective get watchdog blame and a clean clearAbort retry
 * (LL never parks, so the abort epoch must unwedge pure pollers); the
 * tuner picks LL below the α-β crossover and Simple above it, on the
 * functional, analytic-model and DES paths alike.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/executor.h"
#include "ccl/fault.h"
#include "ccl/program_task.h"
#include "ccl/protocol.h"
#include "ccl/tuner.h"
#include "model/ring_model.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "util/rng.h"

namespace ccube {
namespace {

using namespace std::chrono_literals;
using ccl::Protocol;
using ccl::RankExecutor;

constexpr int kChunks = 4;
constexpr int kSlots = 4;

struct Dgx1Topologies {
    topo::Graph graph = topo::makeDgx1();
    topo::RingEmbedding ring = topo::findHamiltonianRing(graph, 8);
    topo::TreeEmbedding tree =
        topo::embedTree(graph, topo::BinaryTree::inorder(8));
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx1DoubleTree(graph);
};

/** Direct-route logical topologies at arbitrary P (no physical graph
 *  needed), as in ccl_statemachine_test. */
struct LogicalTopologies {
    explicit LogicalTopologies(int ranks)
        : ring(topo::makeSequentialRing(ranks)),
          tree(topo::directEmbedding(topo::BinaryTree::inorder(ranks))),
          double_tree(
              topo::directEmbedding(topo::BinaryTree::inorder(ranks)),
              topo::directEmbedding(
                  topo::BinaryTree::inorder(ranks).mirrored()))
    {
    }

    topo::RingEmbedding ring;
    topo::TreeEmbedding tree;
    topo::DoubleTreeEmbedding double_tree;
};

ccl::RankBuffers
seededBuffers(int ranks, int elems, std::uint64_t seed)
{
    util::Rng rng(seed);
    ccl::RankBuffers buffers(static_cast<std::size_t>(ranks));
    for (auto& b : buffers) {
        b.resize(static_cast<std::size_t>(elems));
        rng.fill(b, -1.0f, 1.0f);
    }
    return buffers;
}

ccl::RankBuffers
integerBuffers(int ranks, int elems)
{
    ccl::RankBuffers buffers(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
        auto& b = buffers[static_cast<std::size_t>(r)];
        b.resize(static_cast<std::size_t>(elems));
        for (int i = 0; i < elems; ++i)
            b[static_cast<std::size_t>(i)] =
                static_cast<float>((r * 7 + i * 13) % 17 - 8);
    }
    return buffers;
}

std::vector<float>
integerSums(int ranks, int elems)
{
    std::vector<float> expected(static_cast<std::size_t>(elems));
    for (int i = 0; i < elems; ++i) {
        long sum = 0;
        for (int r = 0; r < ranks; ++r)
            sum += (r * 7 + i * 13) % 17 - 8;
        expected[static_cast<std::size_t>(i)] =
            static_cast<float>(sum);
    }
    return expected;
}

void
expectBytesIdentical(const ccl::RankBuffers& got,
                     const ccl::RankBuffers& want, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), want[r].size()) << what;
        if (std::memcmp(got[r].data(), want[r].data(),
                        got[r].size() * sizeof(float)) != 0) {
            for (std::size_t i = 0; i < got[r].size(); ++i)
                ASSERT_EQ(got[r][i], want[r][i])
                    << what << ": rank " << r << " elem " << i
                    << " diverges between protocols";
        }
    }
}

/** One collective, run under each wire protocol. */
struct Scenario {
    const char* name;
    sched::Program program;
};

std::vector<Scenario>
dgx1Scenarios(const Dgx1Topologies& topo)
{
    return {
        {"ring_allreduce",
         sched::ringProgram(topo.ring, sched::RingPhase::kAllReduce)},
        {"tree_allreduce_two_phase",
         sched::treeProgram(topo.tree, sched::TreeDirection::kAllReduce,
                            sched::PhaseMode::kTwoPhase, kChunks)},
        {"tree_allreduce_overlapped",
         sched::treeProgram(topo.tree, sched::TreeDirection::kAllReduce,
                            sched::PhaseMode::kOverlapped, kChunks)},
        {"double_tree_overlapped",
         sched::doubleTreeProgram(topo.double_tree,
                                  sched::PhaseMode::kOverlapped, kChunks)},
    };
}

// ------------------- LL vs Simple byte identity (DGX-1, P=8, 2 engines)

TEST(ProtocolByteIdentity, LLMatchesSimpleAllEnginesOnDgx1)
{
    const Dgx1Topologies topo;
    const std::vector<RankExecutor::Mode> modes = {
        RankExecutor::Mode::kPersistent,
        RankExecutor::Mode::kStateMachine,
    };
    std::uint64_t seed = 301;
    for (const Scenario& scenario : dgx1Scenarios(topo)) {
        // Reference: Simple on the persistent engine.
        ccl::RankBuffers reference = seededBuffers(8, 64, seed);
        {
            ccl::Communicator comm(8, kSlots,
                                   RankExecutor::Mode::kPersistent);
            ccl::runProgram(comm, reference, scenario.program);
        }
        for (RankExecutor::Mode mode : modes) {
            for (Protocol proto :
                 {Protocol::kSimple, Protocol::kLL}) {
                ccl::RankBuffers buffers = seededBuffers(8, 64, seed);
                ccl::Communicator comm(8, kSlots, mode);
                ccl::runProgram(comm, buffers, scenario.program, proto);
                expectBytesIdentical(
                    buffers, reference,
                    std::string(scenario.name) + "/" +
                        ccl::protocolName(proto));
            }
        }
        ++seed;
    }
}

// ------------------------------------ the tuner's per-algorithm protocol

TEST(ProtocolByteIdentity, TunerProtocolMatchesSimple)
{
    const Dgx1Topologies topo;
    const std::vector<ccl::AllReduceAlgorithm> algorithms = {
        ccl::AllReduceAlgorithm::kRing,
        ccl::AllReduceAlgorithm::kTree,
        ccl::AllReduceAlgorithm::kOverlappedTree,
        ccl::AllReduceAlgorithm::kCCubeDoubleTree,
    };
    const std::vector<RankExecutor::Mode> modes = {
        RankExecutor::Mode::kPersistent,
        RankExecutor::Mode::kStateMachine,
    };
    std::uint64_t seed = 401;
    for (ccl::AllReduceAlgorithm algorithm : algorithms) {
        ccl::RankBuffers reference = seededBuffers(8, 96, seed);
        {
            ccl::Communicator comm(8, kSlots,
                                   RankExecutor::Mode::kPersistent);
            ccl::runProgram(comm, reference,
                            ccl::allReduceProgram(topo.graph, 8, algorithm,
                                                  kChunks));
        }
        const Protocol proto = ccl::Tuner::global().chooseProtocol(
            topo.graph, 8, 96, algorithm);
        for (RankExecutor::Mode mode : modes) {
            ccl::RankBuffers buffers = seededBuffers(8, 96, seed);
            ccl::Communicator comm(8, kSlots, mode);
            ccl::runProgram(comm, buffers,
                            ccl::allReduceProgram(topo.graph, 8, algorithm,
                                                  kChunks),
                            proto);
            expectBytesIdentical(buffers, reference,
                                 std::string("auto/") +
                                     ccl::algorithmName(algorithm));
        }
        ++seed;
    }
}

TEST(ProtocolByteIdentity, RunAutoComputesExactSums)
{
    const Dgx1Topologies topo;
    const std::vector<float> expected = integerSums(8, 64);
    for (RankExecutor::Mode mode : {RankExecutor::Mode::kPersistent,
                                    RankExecutor::Mode::kStateMachine}) {
        ccl::RankBuffers buffers = integerBuffers(8, 64);
        ccl::Communicator comm(8, kSlots, mode);
        comm.runAuto(buffers, topo.graph);
        for (int r = 0; r < 8; ++r)
            for (int i = 0; i < 64; ++i)
                ASSERT_EQ(buffers[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(i)],
                          expected[static_cast<std::size_t>(i)])
                    << "rank " << r << " elem " << i;
    }
}

// ----------------------------- buffers with fewer elements than chunks

/** Every rank of @p buffers holds integerSums(8, elems). */
void
expectIntegerSums(const ccl::RankBuffers& buffers, int elems,
                  const std::string& what)
{
    const std::vector<float> expected = integerSums(8, elems);
    for (std::size_t r = 0; r < buffers.size(); ++r)
        EXPECT_EQ(buffers[r], expected) << what << " rank " << r;
}

TEST(ProtocolByteIdentity, SmallBuffersComputeExactSums)
{
    // Fewer floats than chunks leaves chunks empty; they travel as
    // zero-length messages. The ring splits into P = 8 chunks, the
    // trees into 8, the double trees into two parts of 8 each.
    const topo::Graph graph = topo::makeDgx1();
    const ccl::AllReduceAlgorithm algorithms[] = {
        ccl::AllReduceAlgorithm::kRing,
        ccl::AllReduceAlgorithm::kTree,
        ccl::AllReduceAlgorithm::kOverlappedTree,
        ccl::AllReduceAlgorithm::kDoubleTree,
        ccl::AllReduceAlgorithm::kCCubeDoubleTree,
    };
    for (RankExecutor::Mode mode : {RankExecutor::Mode::kPersistent,
                                    RankExecutor::Mode::kStateMachine}) {
        ccl::Communicator comm(8, kSlots, mode);
        for (int elems : {0, 1, 3, 4, 7, 15}) {
            for (ccl::AllReduceAlgorithm algorithm : algorithms) {
                for (Protocol proto : {Protocol::kSimple, Protocol::kLL}) {
                    ccl::RankBuffers buffers = integerBuffers(8, elems);
                    ccl::runProgram(
                        comm, buffers,
                        ccl::allReduceProgram(graph, 8, algorithm, 8),
                        proto);
                    expectIntegerSums(
                        buffers, elems,
                        std::string(ccl::algorithmName(algorithm)) + "/" +
                            ccl::protocolName(proto) + "/" +
                            std::to_string(elems));
                }
            }
        }
        for (int elems : {0, 1}) {
            ccl::RankBuffers buffers = integerBuffers(8, elems);
            comm.runAuto(buffers, graph);
            expectIntegerSums(buffers, elems,
                              "runAuto/" + std::to_string(elems));
        }
    }
}

// ----------------------------------------- LL at P = 64 (state machine)

TEST(ProtocolByteIdentity, LLMatchesSimpleAtSixtyFourRanks)
{
    constexpr int kRanks = 64;
    const LogicalTopologies topo(kRanks);
    const std::vector<Scenario> scenarios = {
        {"ring_allreduce_p64",
         sched::ringProgram(topo.ring, sched::RingPhase::kAllReduce)},
        {"tree_allreduce_two_phase_p64",
         sched::treeProgram(topo.tree, sched::TreeDirection::kAllReduce,
                            sched::PhaseMode::kTwoPhase, kChunks)},
        {"tree_allreduce_overlapped_p64",
         sched::treeProgram(topo.tree, sched::TreeDirection::kAllReduce,
                            sched::PhaseMode::kOverlapped, kChunks)},
        {"double_tree_p64",
         sched::doubleTreeProgram(topo.double_tree,
                                  sched::PhaseMode::kOverlapped, kChunks)},
    };
    std::uint64_t seed = 501;
    for (const Scenario& scenario : scenarios) {
        ccl::RankBuffers reference = seededBuffers(kRanks, 128, seed);
        {
            ccl::Communicator comm(kRanks, kSlots,
                                   RankExecutor::Mode::kPersistent);
            ccl::runProgram(comm, reference, scenario.program);
        }
        ccl::RankBuffers buffers = seededBuffers(kRanks, 128, seed);
        ccl::Communicator comm(kRanks, kSlots,
                               RankExecutor::Mode::kStateMachine);
        ccl::runProgram(comm, buffers, scenario.program, Protocol::kLL);
        expectBytesIdentical(buffers, reference, scenario.name);
        ++seed;
    }
}

// ----------------------------------------- faults mid-LL-collective

class LLFault : public ::testing::Test
{
  protected:
    static constexpr int kRanks = 16;
    static constexpr int kElems = 64;
    static constexpr auto kDeadline = 300ms;

    /**
     * Arms @p fault, requires the LL tree AllReduce to surface a
     * CollectiveError blaming the faulted rank (LL pollers never park,
     * so only the abort epoch can unwedge them), then verifies
     * clearAbort() re-arms the communicator for a clean LL retry.
     */
    void expectAbortAndRecovery(const ccl::FaultInjector::Fault& fault,
                                RankExecutor::Mode mode)
    {
        const LogicalTopologies topo(kRanks);
        ccl::Communicator comm(kRanks, kSlots, mode);
        comm.setDeadline(kDeadline);
        ccl::FaultInjector injector;
        injector.arm(fault);
        comm.setFaultInjector(&injector);

        ccl::RankBuffers buffers = integerBuffers(kRanks, kElems);
        bool caught = false;
        try {
            ccl::runProgram(comm, buffers,
                            sched::treeProgram(topo.tree,
                                               sched::TreeDirection::kAllReduce,
                                               sched::PhaseMode::kTwoPhase,
                                               kChunks),
                            Protocol::kLL);
        } catch (const ccl::CollectiveError& error) {
            caught = true;
            EXPECT_EQ(error.info().failed_rank, fault.rank);
            EXPECT_EQ(error.info().op, "tree_allreduce");
            EXPECT_GT(error.info().deadline_s, 0.0);
        }
        EXPECT_TRUE(caught) << "LL collective completed despite fault";

        // Poisoned until cleared; then a clean LL retry must succeed.
        EXPECT_THROW(ccl::runProgram(comm, buffers,
                                     sched::treeProgram(
                                         topo.tree,
                                         sched::TreeDirection::kAllReduce,
                                         sched::PhaseMode::kTwoPhase, kChunks),
                                     Protocol::kLL),
                     ccl::CollectiveError);
        comm.clearAbort();
        comm.setFaultInjector(nullptr);
        // The retry only needs the watchdog as a hang backstop; the
        // tight deadline above trips spuriously when LL pollers
        // time-share a loaded CPU.
        comm.setDeadline(10s);
        ccl::RankBuffers retry = integerBuffers(kRanks, kElems);
        ccl::runProgram(comm, retry,
                        sched::treeProgram(topo.tree,
                                           sched::TreeDirection::kAllReduce,
                                           sched::PhaseMode::kTwoPhase,
                                           kChunks),
                        Protocol::kLL);
        const std::vector<float> expected =
            integerSums(kRanks, kElems);
        for (int r = 0; r < kRanks; ++r)
            for (int i = 0; i < kElems; ++i)
                ASSERT_EQ(retry[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(i)],
                          expected[static_cast<std::size_t>(i)]);
    }
};

TEST_F(LLFault, KilledRankMidLLCollectiveIsBlamedStateMachine)
{
    ccl::FaultInjector::Fault fault;
    fault.rank = 5;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 2;
    expectAbortAndRecovery(fault, RankExecutor::Mode::kStateMachine);
}

TEST_F(LLFault, KilledRankMidLLCollectiveIsBlamedPersistent)
{
    ccl::FaultInjector::Fault fault;
    fault.rank = 3;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 2;
    expectAbortAndRecovery(fault, RankExecutor::Mode::kPersistent);
}

TEST_F(LLFault, StalledRankMidLLCollectiveIsBlamed)
{
    ccl::FaultInjector::Fault fault;
    fault.rank = 9;
    fault.action = ccl::FaultInjector::Action::kStall;
    fault.at_op = 3;
    expectAbortAndRecovery(fault, RankExecutor::Mode::kStateMachine);
}

// ------------------------------------------------- tuner crossover

TEST(Tuner, PicksLLBelowCrossoverAndSimpleAbove)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Tuner& tuner = ccl::Tuner::global();
    tuner.clearCache();
    // 1 KiB (256 floats): per-step chunks are far below the
    // 0.75·α/β ≈ 86 KB crossover of the DGX-1 NVLink — LL wins.
    for (ccl::AllReduceAlgorithm algorithm :
         {ccl::AllReduceAlgorithm::kRing,
          ccl::AllReduceAlgorithm::kCCubeDoubleTree}) {
        EXPECT_EQ(tuner.chooseProtocol(graph, 8, 256, algorithm),
                  Protocol::kLL)
            << ccl::algorithmName(algorithm) << " small";
        // 256 MiB: chunks are megabytes — the 2x LL wire inflation
        // dominates and Simple wins.
        EXPECT_EQ(tuner.chooseProtocol(graph, 8, 64 * 1024 * 1024,
                                       algorithm),
                  Protocol::kSimple)
            << ccl::algorithmName(algorithm) << " large";
    }
    // The full-cell pick agrees on protocol at the extremes.
    EXPECT_EQ(tuner.choose(graph, 8, 256).protocol, Protocol::kLL);
    EXPECT_EQ(tuner.choose(graph, 8, 64 * 1024 * 1024).protocol,
              Protocol::kSimple);
}

TEST(Tuner, RunAutoRunsTheTunersCell)
{
    // runAuto's counters must name exactly the cell Tuner::choose
    // picks, and the collective must run on that cell's protocol.
    // 1 KiB picks LL and 4 MiB Simple, so overriding either protocol
    // fails one of the two sizes.
    const topo::Graph graph = topo::makeDgx1();
    std::vector<Protocol> picked;
    for (int elems : {256, 1 << 20}) {
        SCOPED_TRACE(elems);
        const ccl::TunerChoice choice = ccl::Tuner::global().choose(
            graph, 8, static_cast<std::size_t>(elems));
        picked.push_back(choice.protocol);
        obs::MetricRegistry registry;
        registry.enable();
        {
            obs::ScopedCapture capture{obs::Capture(nullptr, &registry)};
            ccl::Communicator comm(8, kSlots);
            ccl::RankBuffers buffers = integerBuffers(8, elems);
            comm.runAuto(buffers, graph);
        }
        const std::string alg = ccl::algorithmName(choice.algorithm);
        const std::string proto = ccl::protocolName(choice.protocol);
        const std::vector<std::string> want = {
            "ccl.proto." + proto, "ccl.tuner.alg." + alg,
            "ccl.tuner.proto." + proto};
        std::vector<std::string> got;
        for (const auto& entry : registry.names())
            if (entry.first.rfind("ccl.proto.", 0) == 0 ||
                entry.first.rfind("ccl.tuner.", 0) == 0)
                got.push_back(entry.first);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want);
        for (const std::string& name : want)
            EXPECT_EQ(registry.counter(name), 1.0) << name;
    }
    EXPECT_EQ(picked,
              (std::vector<Protocol>{Protocol::kLL, Protocol::kSimple}));
}

TEST(Tuner, TableIsCachedAndDeterministic)
{
    const topo::Graph graph = topo::makeDgx1();
    ccl::Tuner& tuner = ccl::Tuner::global();
    tuner.clearCache();
    const std::string table1 = tuner.formatTable(graph, 8);
    const std::string table2 = tuner.formatTable(graph, 8);
    EXPECT_EQ(table1, table2);
    EXPECT_NE(table1.find("ll"), std::string::npos);
    EXPECT_NE(table1.find("simple"), std::string::npos);
    EXPECT_NE(table1.find("tuner table"), std::string::npos);
    tuner.clearCache();
    EXPECT_EQ(tuner.formatTable(graph, 8), table1)
        << "rebuilt table diverges from the cached one";
}

// ------------------------- crossover on the analytic-model path

TEST(ProtocolModel, AnalyticCrossoverMatchesCostShapes)
{
    const model::AlphaBeta base{4.6e-6, 4e-11};
    const ccl::ProtocolCosts ll = ccl::protocolCosts(Protocol::kLL);
    const model::AlphaBeta ll_link =
        model::applyProtocol(base, ll.payload_factor, ll.alpha_factor);
    const model::RingModel simple_ring(base);
    const model::RingModel ll_ring(ll_link);
    // Small message: latency-bound, LL's α/4 wins.
    EXPECT_LT(ll_ring.allReduceTime(8, 1024.0),
              simple_ring.allReduceTime(8, 1024.0));
    // Large message: bandwidth-bound, LL's 2x wire bytes lose.
    EXPECT_GT(ll_ring.allReduceTime(8, 64e6),
              simple_ring.allReduceTime(8, 64e6));
    // Simple's costs are the identity: the model is unchanged.
    const ccl::ProtocolCosts simple =
        ccl::protocolCosts(Protocol::kSimple);
    EXPECT_EQ(simple.payload_factor, 1.0);
    EXPECT_EQ(simple.alpha_factor, 1.0);
}

// --------------------------------- crossover on the DES (simnet) path

double
desRingCompletion(double total_bytes, Protocol proto)
{
    sim::Simulation sim;
    const topo::Graph graph = topo::makeDgx1();
    simnet::Network net(sim, graph);
    const topo::RingEmbedding ring =
        topo::findHamiltonianRing(graph, 8);
    return simnet::runProgram(sim, net,
                              sched::ringProgram(ring,
                                                 sched::RingPhase::kAllReduce),
                              total_bytes, proto)
        .completion_time;
}

TEST(ProtocolDes, TimedScheduleReproducesCrossover)
{
    // Small message: the per-transfer α dominates and LL's α/4 wins.
    EXPECT_LT(desRingCompletion(1024.0, Protocol::kLL),
              desRingCompletion(1024.0, Protocol::kSimple));
    // Large message: serialization dominates and LL's 2x bytes lose.
    EXPECT_GT(desRingCompletion(64e6, Protocol::kLL),
              desRingCompletion(64e6, Protocol::kSimple));
    // Simple is byte-for-byte the pre-protocol schedule.
    EXPECT_EQ(desRingCompletion(1e6, Protocol::kSimple),
              desRingCompletion(1e6, Protocol::kSimple));
}

} // namespace
} // namespace ccube
