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
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccl/communicator.h"
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
#include "topo/graph.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"

#include "ccl_test_util.h"

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

/** Column @p column of row @p row of a Tuner::formatTable dump;
 *  empty when either is missing. */
std::string
tunerTableCell(const std::string& table, const std::string& row,
               const std::string& column)
{
    std::istringstream lines(table);
    std::vector<std::string> header;
    for (std::string line; std::getline(lines, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> fields;
        std::istringstream cells(line);
        for (std::string cell; std::getline(cells, cell, '\t');)
            fields.push_back(cell);
        if (header.empty()) {
            header = fields;
            continue;
        }
        if (fields[0] != row)
            continue;
        for (std::size_t c = 0; c < header.size() && c < fields.size(); ++c)
            if (header[c] == column)
                return fields[c];
    }
    return "";
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
    // At 96 floats (384 B, the 256B row) the tuner's protocol column
    // reads LL for every algorithm; run each one's program under LL.
    const Dgx1Topologies topo;
    const std::string table = ccl::Tuner::global().formatTable(topo.graph, 8);
    const std::vector<ccl::AllReduceAlgorithm> algorithms = {
        ccl::AllReduceAlgorithm::kRing,
        ccl::AllReduceAlgorithm::kTree,
        ccl::AllReduceAlgorithm::kOverlappedTree,
        ccl::AllReduceAlgorithm::kDoubleTree,
        ccl::AllReduceAlgorithm::kCCubeDoubleTree,
    };
    const std::vector<RankExecutor::Mode> modes = {
        RankExecutor::Mode::kPersistent,
        RankExecutor::Mode::kStateMachine,
    };
    std::uint64_t seed = 401;
    for (ccl::AllReduceAlgorithm algorithm : algorithms) {
        EXPECT_EQ(tunerTableCell(table, "256B",
                                 ccl::algorithmName(algorithm)),
                  "ll");
        ccl::RankBuffers reference = seededBuffers(8, 96, seed);
        {
            ccl::Communicator comm(8, kSlots,
                                   RankExecutor::Mode::kPersistent);
            ccl::runProgram(comm, reference,
                            ccl::allReduceProgram(topo.graph, 8, algorithm,
                                                  kChunks));
        }
        for (RankExecutor::Mode mode : modes) {
            ccl::RankBuffers buffers = seededBuffers(8, 96, seed);
            ccl::Communicator comm(8, kSlots, mode);
            ccl::runProgram(comm, buffers,
                            ccl::allReduceProgram(topo.graph, 8, algorithm,
                                                  kChunks),
                            Protocol::kLL);
            expectBytesIdentical(buffers, reference,
                                 std::string("ll/") +
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
    const std::string table = tuner.formatTable(graph, 8);
    for (ccl::AllReduceAlgorithm algorithm :
         {ccl::AllReduceAlgorithm::kRing,
          ccl::AllReduceAlgorithm::kCCubeDoubleTree}) {
        const std::string column = ccl::algorithmName(algorithm);
        // 1 KiB (256 floats): per-step chunks are far below the
        // 0.75·α/β ≈ 86 KB crossover of the DGX-1 NVLink — LL wins.
        EXPECT_EQ(tunerTableCell(table, "1KiB", column), "ll")
            << column << " small";
        // 64 MiB and 256 MiB: chunks are megabytes — the 2x LL wire
        // inflation dominates and Simple wins.
        for (const char* row : {"64MiB", "256MiB"})
            EXPECT_EQ(tunerTableCell(table, row, column), "simple")
                << column << " " << row;
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

// ------------------------------------------------ runAuto's plan

/** runAuto's plan counters over one call. */
struct PlanCounts {
    double hit = 0.0;
    double miss = 0.0;
};

/** runAuto on @p comm under a fresh metrics capture; returns its
 *  ccl.plan.* counts. @p error, when set, receives whether the call
 *  failed with a CollectiveError, which otherwise propagates (so does
 *  any other exception, such as a bare RankKilled). */
PlanCounts
countedRunAuto(ccl::Communicator& comm, ccl::RankBuffers& buffers,
               const topo::Graph& graph, bool* error = nullptr)
{
    obs::MetricRegistry registry;
    registry.enable();
    {
        obs::ScopedCapture capture{obs::Capture(nullptr, &registry)};
        try {
            comm.runAuto(buffers, graph);
        } catch (const ccl::CollectiveError&) {
            if (error == nullptr)
                throw;
            *error = true;
        }
    }
    return {registry.counter("ccl.plan.hit"),
            registry.counter("ccl.plan.miss")};
}

/** Whether @p a and @p b have the same edges and physical routes. */
bool
sameEdges(const sched::Program& a, const sched::Program& b)
{
    if (a.edges.size() != b.edges.size())
        return false;
    for (std::size_t e = 0; e < a.edges.size(); ++e) {
        const sched::Edge& x = a.edges[e];
        const sched::Edge& y = b.edges[e];
        if (x.src != y.src || x.dst != y.dst || x.flow != y.flow ||
            x.lane != y.lane || a.route(x).hops != b.route(y).hops)
            return false;
    }
    return true;
}

/** The program runAuto runs for @p elems floats on @p graph, as a
 *  fresh allReduceProgram builds it. */
sched::Program
freshAutoProgram(const topo::Graph& graph, std::size_t elems)
{
    const ccl::TunerChoice choice =
        ccl::Tuner::global().choose(graph, 8, elems);
    return ccl::allReduceProgram(graph, 8, choice.algorithm,
                                 choice.num_chunks);
}

/** The directed channel ids of the physical pair {a, b}. */
std::vector<int>
pairChannels(const topo::Graph& graph, int a, int b)
{
    std::vector<int> ids = graph.channelIds(a, b);
    for (int id : graph.channelIds(b, a))
        ids.push_back(id);
    return ids;
}

TEST(Plan, StalePlanIsNeverUsed)
{
    // Functional mailboxes do not care which physical link they stand
    // for, so a stale embedding still sums exactly: each step checks
    // the plan's program against a fresh one, edge for edge.
    constexpr int kElems = 256;
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::Graph minus04 =
        topo::withoutChannels(dgx1, pairChannels(dgx1, 0, 4));
    topo::Graph minus15 =
        topo::withoutChannels(dgx1, pairChannels(dgx1, 1, 5));
    ccl::Tuner& tuner = ccl::Tuner::global();
    // The trap: both degraded graphs share one tuner table, but not
    // one embedding.
    ASSERT_EQ(tuner.formatTable(minus04, 8), tuner.formatTable(minus15, 8));
    ASSERT_FALSE(sameEdges(freshAutoProgram(minus04, kElems),
                           freshAutoProgram(minus15, kElems)));
    ASSERT_FALSE(sameEdges(freshAutoProgram(dgx1, kElems),
                           freshAutoProgram(minus04, kElems)));

    ccl::Communicator comm(8, kSlots);
    auto step = [&](const topo::Graph& graph, double hit, double miss,
                    const std::string& what) {
        SCOPED_TRACE(what);
        ccl::RankBuffers buffers = integerBuffers(8, kElems);
        const PlanCounts counts = countedRunAuto(comm, buffers, graph);
        EXPECT_EQ(counts.hit, hit);
        EXPECT_EQ(counts.miss, miss);
        expectIntegerSums(buffers, kElems, what);
        EXPECT_TRUE(comm.autoPlan()->matches(graph));
        const ccl::TunerChoice choice =
            ccl::Tuner::global().choose(graph, 8, kElems);
        const std::shared_ptr<const ccl::BoundProgram> planned =
            comm.autoPlan()->find(choice.algorithm, choice.num_chunks);
        ASSERT_NE(planned, nullptr);
        EXPECT_TRUE(sameEdges(planned->program,
                              freshAutoProgram(graph, kElems)));
    };
    step(dgx1, 0, 1, "dgx1");
    step(dgx1, 1, 0, "dgx1 again");
    step(minus04, 0, 1, "dgx1 - {0,4}");
    step(minus15, 0, 1, "dgx1 - {1,5}");
    // The same object, changed in place: its tuner table stays the
    // same (every NVLink already runs at the bottleneck rate or
    // faster), its content does not.
    const std::string table = tuner.formatTable(minus15, 8);
    minus15.scaleChannelBandwidth(0, 2.0);
    ASSERT_EQ(tuner.formatTable(minus15, 8), table);
    EXPECT_FALSE(comm.autoPlan()->matches(minus15));
    step(minus15, 0, 1, "dgx1 - {1,5}, channel 0 scaled");
    // Only the last graph is kept.
    step(dgx1, 0, 1, "dgx1 after the others");
}

TEST(Plan, ReusedAfterAbort)
{
    // A killed rank aborts a runAuto with a CollectiveError — also on
    // the pool, when the killed task is one no peer waits for; after
    // clearAbort() the next runAuto on the same graph runs the plan's
    // program, bound before the abort, and sums exactly.
    const topo::Graph graph = topo::makeDgx1();
    for (RankExecutor::Mode mode : {RankExecutor::Mode::kPersistent,
                                    RankExecutor::Mode::kStateMachine}) {
        // 1 KiB picks LL, 2 MiB Simple.
        for (int elems : {256, 1 << 19}) {
            const Protocol proto =
                ccl::Tuner::global()
                    .choose(graph, 8, static_cast<std::size_t>(elems))
                    .protocol;
            SCOPED_TRACE(std::string(ccl::protocolName(proto)) + "/" +
                         (mode == RankExecutor::Mode::kPersistent
                              ? "persistent"
                              : "state_machine"));
            EXPECT_EQ(proto, elems == 256 ? Protocol::kLL
                                          : Protocol::kSimple);
            ccl::Communicator comm(8, kSlots, mode);
            comm.setDeadline(300ms);
            ccl::FaultInjector injector;
            ccl::FaultInjector::Fault fault;
            fault.rank = 3;
            fault.action = ccl::FaultInjector::Action::kKill;
            fault.at_op = 0; // before its first post: the rest wait
            injector.arm(fault);
            comm.setFaultInjector(&injector);

            ccl::RankBuffers buffers = integerBuffers(8, elems);
            bool aborted = false;
            const PlanCounts first =
                countedRunAuto(comm, buffers, graph, &aborted);
            EXPECT_TRUE(aborted) << "runAuto completed despite the kill";
            EXPECT_TRUE(comm.aborted());
            EXPECT_EQ(first.miss, 1.0);

            comm.clearAbort();
            comm.setFaultInjector(nullptr);
            comm.setDeadline(10s); // a hang backstop only
            ccl::RankBuffers retry = integerBuffers(8, elems);
            const PlanCounts second = countedRunAuto(comm, retry, graph);
            EXPECT_EQ(second.hit, 1.0);
            EXPECT_EQ(second.miss, 0.0);
            expectIntegerSums(retry, elems, "retry");
        }
    }
}

TEST(Plan, HitsAreByteIdenticalToAFreshProgram)
{
    // perfbench's ccl_latency sizes, then its ccl_bandwidth sizes, on
    // one communicator per placement: the second and third runAuto of
    // a size are plan hits and must match the fresh program on a fresh
    // communicator byte for byte. Each distinct tuner cell is built
    // once per communicator.
    const topo::Graph graph = topo::makeDgx1();
    const std::size_t sizes[] = {256, 1024, 4096, 16384, 1u << 20,
                                 4u << 20};
    ccl::Communicator comms[] = {
        ccl::Communicator(8, kSlots, RankExecutor::Mode::kPersistent),
        ccl::Communicator(8, kSlots, RankExecutor::Mode::kStateMachine),
    };
    double misses[] = {0.0, 0.0};
    std::set<std::pair<ccl::AllReduceAlgorithm, int>> cells;
    std::uint64_t seed = 601;
    for (std::size_t elems : sizes) {
        SCOPED_TRACE(elems);
        const ccl::TunerChoice choice =
            ccl::Tuner::global().choose(graph, 8, elems);
        cells.insert({choice.algorithm, choice.num_chunks});
        const ccl::RankBuffers input =
            seededBuffers(8, static_cast<int>(elems), seed++);
        ccl::RankBuffers reference = input;
        {
            ccl::Communicator fresh(8, kSlots);
            ccl::runProgram(fresh, reference,
                            ccl::allReduceProgram(graph, 8,
                                                  choice.algorithm,
                                                  choice.num_chunks),
                            choice.protocol);
        }
        for (std::size_t m = 0; m < 2; ++m) {
            SCOPED_TRACE(m == 0 ? "persistent" : "state_machine");
            for (int call = 0; call < 3; ++call) {
                ccl::RankBuffers buffers = input;
                const PlanCounts counts =
                    countedRunAuto(comms[m], buffers, graph);
                misses[m] += counts.miss;
                if (call > 0) {
                    EXPECT_EQ(counts.hit, 1.0) << "call " << call;
                    expectBytesIdentical(buffers, reference,
                                         "call " + std::to_string(call));
                }
            }
            EXPECT_EQ(misses[m], static_cast<double>(cells.size()));
        }
    }
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
