/**
 * @file
 * Tests for the state-machine rank runtime (state_machine.h):
 * byte-identical collective results on both engine placements,
 * large-P functional runs on a handful of pool threads, concurrent
 * communicators multiplexed onto the shared engine, fault kill/stall
 * mid-park with correct watchdog blame, and the park/resume/steal
 * telemetry surfaced through obs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/fault.h"
#include "ccl/program_task.h"
#include "ccl/state_machine.h"
#include "obs/capture.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"

#include "ccl_test_util.h"

namespace ccube {
namespace {

using namespace std::chrono_literals;
using ccl::RankExecutor;

constexpr int kChunks = 4;
constexpr int kSlots = 4;

/** DGX-1 topologies (P=8), as in ccl_executor_test. */
struct Dgx1Topologies {
    topo::Graph graph = topo::makeDgx1();
    topo::RingEmbedding ring = topo::findHamiltonianRing(graph, 8);
    topo::TreeEmbedding tree =
        topo::embedTree(graph, topo::BinaryTree::inorder(8));
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx1DoubleTree(graph);
};

/** Rank tasks finished so far on ranks [0, @p ranks). */
std::uint64_t
tasksFinished(int ranks)
{
    std::uint64_t total = 0;
    for (int r = 0; r < ranks; ++r)
        total += obs::RankCounters::global().executorTasks(r);
    return total;
}

void
expectBytesIdentical(const ccl::RankBuffers& got,
                     const ccl::RankBuffers& want, const char* what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), want[r].size()) << what;
        if (std::memcmp(got[r].data(), want[r].data(),
                        got[r].size() * sizeof(float)) != 0) {
            for (std::size_t i = 0; i < got[r].size(); ++i)
                ASSERT_EQ(got[r][i], want[r][i])
                    << what << ": rank " << r << " elem " << i
                    << " diverges between engine modes";
        }
    }
}

/** One collective, run identically under every engine mode. */
struct Scenario {
    const char* name;
    sched::Program program;
};

/**
 * Runs @p scenario once per engine mode on fresh communicators and
 * identical seeded inputs, and requires the resulting buffers of every
 * mode to be byte-identical to the persistent-thread reference.
 */
void
expectModesAgree(int ranks, int elems, const Scenario& scenario,
                 const std::vector<RankExecutor::Mode>& modes,
                 std::uint64_t seed)
{
    ccl::RankBuffers reference = seededBuffers(ranks, elems, seed);
    {
        ccl::Communicator comm(ranks, kSlots,
                               RankExecutor::Mode::kPersistent);
        ccl::runProgram(comm, reference, scenario.program);
    }
    for (RankExecutor::Mode mode : modes) {
        ccl::RankBuffers buffers = seededBuffers(ranks, elems, seed);
        ccl::Communicator comm(ranks, kSlots, mode);
        ASSERT_EQ(comm.engineMode(), mode);
        ccl::runProgram(comm, buffers, scenario.program);
        expectBytesIdentical(buffers, reference, scenario.name);
    }
}

// --------------------------- cross-engine byte identity (DGX-1, P=8)

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
        {"double_tree_two_phase",
         sched::doubleTreeProgram(topo.double_tree, sched::PhaseMode::kTwoPhase,
                                  kChunks)},
        {"tree_broadcast",
         sched::treeProgram(topo.tree, sched::TreeDirection::kBroadcast,
                            sched::PhaseMode::kTwoPhase, kChunks)},
        {"tree_reduce",
         sched::treeProgram(topo.tree, sched::TreeDirection::kReduce,
                            sched::PhaseMode::kTwoPhase, kChunks)},
        {"ring_reduce_scatter",
         sched::ringProgram(topo.ring, sched::RingPhase::kReduceScatter)},
        {"ring_all_gather",
         sched::ringProgram(topo.ring, sched::RingPhase::kAllGather)},
    };
}

TEST(StateMachineByteIdentity, AllCollectivesAllEnginesOnDgx1)
{
    const Dgx1Topologies topo;
    const std::vector<RankExecutor::Mode> modes = {
        RankExecutor::Mode::kStateMachine,
    };
    std::uint64_t seed = 101;
    for (const Scenario& scenario : dgx1Scenarios(topo))
        expectModesAgree(8, 64, scenario, modes, seed++);
}

// ----------------------------- cross-engine byte identity at P = 64

TEST(StateMachineByteIdentity, LogicalTopologiesAtSixtyFourRanks)
{
    constexpr int kRanks = 64;
    const LogicalTopologies topo(kRanks);
    const std::vector<RankExecutor::Mode> modes = {
        RankExecutor::Mode::kStateMachine,
    };
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
    std::uint64_t seed = 201;
    for (const Scenario& scenario : scenarios)
        expectModesAgree(kRanks, 128, scenario, modes, seed++);
}

// --------------------------------- large P on a handful of threads

TEST(StateMachineScaling, TwoHundredFiftySixRanksExactSums)
{
    // 256 functional ranks on the shared pool — far more tasks than
    // workers, so the run exercises park/resume heavily. Inputs are
    // integer-valued, making the expected sums exact in float
    // regardless of reduction order (and therefore equal to what any
    // engine mode computes, bit for bit).
    constexpr int kRanks = 256;
    constexpr int kElems = 256;
    const LogicalTopologies topo(kRanks);
    const std::vector<float> expected = integerSums(kRanks, kElems);
    ccl::StateMachineEngine& engine = ccl::StateMachineEngine::shared();
    const obs::RankCounters& counters = obs::RankCounters::global();
    const std::uint64_t parks_before = counters.totalSmParks();
    const std::uint64_t tasks_before = tasksFinished(kRanks);

    const std::vector<Scenario> scenarios = {
        {"ring_allreduce_p256",
         sched::ringProgram(topo.ring, sched::RingPhase::kAllReduce)},
        {"double_tree_p256",
         sched::doubleTreeProgram(topo.double_tree,
                                  sched::PhaseMode::kOverlapped, 2)},
    };
    for (const Scenario& scenario : scenarios) {
        ccl::RankBuffers buffers = integerBuffers(kRanks, kElems);
        ccl::Communicator comm(kRanks, kSlots,
                               RankExecutor::Mode::kStateMachine);
        ccl::runProgram(comm, buffers, scenario.program);
        for (int r = 0; r < kRanks; ++r)
            for (int i = 0; i < kElems; ++i)
                ASSERT_EQ(buffers[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(i)],
                          expected[static_cast<std::size_t>(i)])
                    << scenario.name << ": rank " << r << " elem "
                    << i;
    }

    // With 256+ tasks on a handful of workers, tasks must have parked
    // (blocked ops with a busy pool skip the spin fast path).
    EXPECT_GT(counters.totalSmParks(), parks_before);
    EXPECT_GE(tasksFinished(kRanks) - tasks_before,
              static_cast<std::uint64_t>(scenarios.size()) * kRanks);
    EXPECT_GE(engine.workerCount(), 1);
}

// --------------------- concurrent communicators share one engine

TEST(StateMachineEngineSharing, ConcurrentCommunicatorsOneSharedPool)
{
    constexpr int kRanks = 16;
    constexpr int kElems = 64;
    constexpr int kClients = 4;
    constexpr int kIters = 2;
    const LogicalTopologies topo(kRanks);
    ccl::StateMachineEngine& engine = ccl::StateMachineEngine::shared();
    const int workers_before = engine.workerCount();
    const std::uint64_t tasks_before = tasksFinished(kRanks);
    const std::vector<float> expected = integerSums(kRanks, kElems);

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&topo, &expected, &failures]() {
            ccl::Communicator comm(
                kRanks, kSlots, RankExecutor::Mode::kStateMachine);
            for (int iter = 0; iter < kIters; ++iter) {
                ccl::RankBuffers buffers =
                    integerBuffers(kRanks, kElems);
                ccl::runProgram(comm, buffers,
                                sched::treeProgram(
                                    topo.tree, sched::TreeDirection::kAllReduce,
                                    sched::PhaseMode::kOverlapped, kChunks));
                for (int r = 0; r < kRanks; ++r)
                    for (int i = 0; i < kElems; ++i)
                        if (buffers[static_cast<std::size_t>(r)]
                                   [static_cast<std::size_t>(i)] !=
                            expected[static_cast<std::size_t>(i)])
                            failures.fetch_add(1);
            }
        });
    }
    for (std::thread& t : clients)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    // All batches multiplexed onto the same pool: no thread growth.
    EXPECT_EQ(engine.workerCount(), workers_before);
    EXPECT_GE(tasksFinished(kRanks) - tasks_before,
              static_cast<std::uint64_t>(kClients * kIters * kRanks));
}

// -------------------------------------- faults in state-machine mode

class StateMachineFault : public ::testing::Test
{
  protected:
    static constexpr int kRanks = 16;
    static constexpr int kElems = 64;
    static constexpr auto kDeadline = 300ms;

    /**
     * Arms @p fault on a state-machine communicator, requires the
     * tree AllReduce to surface a CollectiveError blaming the faulted
     * rank, then verifies clearAbort() makes the communicator (and
     * the shared pool) fully usable again.
     */
    void expectAbortAndRecovery(const ccl::FaultInjector::Fault& fault)
    {
        const LogicalTopologies topo(kRanks);
        ccl::Communicator comm(kRanks, kSlots,
                               RankExecutor::Mode::kStateMachine);
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
                                               kChunks));
        } catch (const ccl::CollectiveError& error) {
            caught = true;
            EXPECT_EQ(error.info().failed_rank, fault.rank);
            EXPECT_EQ(error.info().op, "tree_allreduce");
            EXPECT_GT(error.info().deadline_s, 0.0);
        }
        EXPECT_TRUE(caught) << "collective completed despite fault";

        // Poisoned until cleared; then a clean retry must succeed.
        EXPECT_THROW(ccl::runProgram(comm, buffers,
                                     sched::treeProgram(
                                         topo.tree,
                                         sched::TreeDirection::kAllReduce,
                                         sched::PhaseMode::kTwoPhase, kChunks)),
                     ccl::CollectiveError);
        comm.clearAbort();
        comm.setFaultInjector(nullptr);
        ccl::RankBuffers retry = integerBuffers(kRanks, kElems);
        ccl::runProgram(comm, retry,
                        sched::treeProgram(topo.tree,
                                           sched::TreeDirection::kAllReduce,
                                           sched::PhaseMode::kTwoPhase,
                                           kChunks));
        const std::vector<float> expected =
            integerSums(kRanks, kElems);
        for (int r = 0; r < kRanks; ++r)
            for (int i = 0; i < kElems; ++i)
                ASSERT_EQ(retry[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(i)],
                          expected[static_cast<std::size_t>(i)]);
    }
};

TEST_F(StateMachineFault, KilledRankAbortsParkedPeersAndIsBlamed)
{
    ccl::FaultInjector::Fault fault;
    fault.rank = 5;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 2;
    expectAbortAndRecovery(fault);
}

TEST_F(StateMachineFault, StalledRankWedgesAWorkerAndIsBlamed)
{
    // The stall wedges one pool worker inside the injected op until
    // the watchdog trips the abort epoch; the sweep must then wake
    // every parked peer task so the batch unwinds.
    ccl::FaultInjector::Fault fault;
    fault.rank = 9;
    fault.action = ccl::FaultInjector::Action::kStall;
    fault.at_op = 3;
    expectAbortAndRecovery(fault);
}

// ------------------------------------------------------- telemetry

TEST(StateMachineTelemetry, ParkResumeCountersReachObs)
{
    constexpr int kRanks = 64;
    const LogicalTopologies topo(kRanks);
    obs::RankCounters& counters = obs::RankCounters::global();
    counters.reset();
    ccl::StateMachineEngine& engine = ccl::StateMachineEngine::shared();

    ccl::Communicator comm(kRanks, kSlots,
                           RankExecutor::Mode::kStateMachine);
    ccl::RankBuffers buffers = integerBuffers(kRanks, 128);
    ccl::runProgram(
        comm, buffers,
        sched::ringProgram(topo.ring, sched::RingPhase::kAllReduce));

    // 64 ranks on a handful of workers: parks are certain, and every
    // successful park is eventually resumed exactly once.
    EXPECT_EQ(engine.parkedNow(), 0);
    EXPECT_GT(counters.totalSmParks(), 0u);
    EXPECT_EQ(counters.totalSmResumes(), counters.totalSmParks());
}

TEST(StateMachineTelemetry, EngineGaugesAppearInMonitorSnapshots)
{
    constexpr int kRanks = 16;
    const LogicalTopologies topo(kRanks);
    // Force the shared engine (and its gauge registration on the
    // global monitor) to exist before enabling snapshots.
    ccl::StateMachineEngine& engine = ccl::StateMachineEngine::shared();
    obs::Monitor& monitor = obs::Monitor::global();
    monitor.clear();
    monitor.enable();

    ccl::Communicator comm(kRanks, kSlots,
                           RankExecutor::Mode::kStateMachine);
    ccl::RankBuffers buffers = integerBuffers(kRanks, 64);
    ccl::runProgram(
        comm, buffers,
        sched::ringProgram(topo.ring, sched::RingPhase::kAllReduce));
    monitor.disable();

    const auto snapshots = monitor.snapshots();
    ASSERT_FALSE(snapshots.empty());
    bool saw_workers = false;
    bool saw_parks = false;
    for (const auto& [name, value] : snapshots.back().values) {
        if (name == "ccl.sm.workers") {
            saw_workers = true;
            EXPECT_EQ(value,
                      static_cast<double>(engine.workerCount()));
        }
        if (name == "ccl.sm.parks") {
            saw_parks = true;
            EXPECT_GT(value, 0.0);
        }
    }
    EXPECT_TRUE(saw_workers);
    EXPECT_TRUE(saw_parks);
    monitor.clear();
}


TEST(StateMachineTelemetry, RanksPastSixtyFourGetTheirOwnSlots)
{
    // One rank cap for every per-rank table: a P=256 run on rank-pinned
    // engine threads (which poll, so they count wait stalls) exports
    // rank 200 under its own name, in the registry and in the monitor.
    constexpr int kRanks = 256;
    const LogicalTopologies topo(kRanks);
    obs::RankCounters& counters = obs::RankCounters::global();
    counters.reset();
    ccl::Communicator comm(kRanks, kSlots,
                           RankExecutor::Mode::kPersistent);
    ccl::RankBuffers buffers = integerBuffers(kRanks, 256);
    ccl::runProgram(
        comm, buffers,
        sched::ringProgram(topo.ring, sched::RingPhase::kAllReduce));

    obs::MetricRegistry registry;
    counters.exportTo(registry);
    EXPECT_DOUBLE_EQ(registry.counter("ccl.rank200.mailbox_sends"),
                     static_cast<double>(2 * (kRanks - 1)));
    EXPECT_DOUBLE_EQ(registry.counter("ccl.unknown.mailbox_sends"), 0.0);
    ASSERT_GT(counters.waitStallNs(200), 0u);

    obs::Monitor monitor;
    monitor.heartbeat(0.0);
    const auto snapshots = monitor.snapshots();
    bool saw_rank200 = false;
    for (const auto& [name, value] : snapshots.back().values)
        saw_rank200 = saw_rank200 || name == "rank.200.wait_stall_ns";
    EXPECT_TRUE(saw_rank200);
    counters.reset();
}

TEST(StateMachineTelemetry, EngineGaugesLeaveTheMonitorTheyJoined)
{
    // A pooled engine built under capture A and destroyed under
    // capture B must remove its gauges from A, and only from A: B's
    // own source (which may hold the same token) stays.
    obs::Monitor a;
    obs::Monitor b;
    const obs::Capture capture_a(nullptr, nullptr, &a);
    const obs::Capture capture_b(nullptr, nullptr, &b);
    const auto mine = b.addSource(
        [](double, std::vector<std::pair<std::string, double>>& out) {
            out.emplace_back("mine", 1.0);
        });
    std::unique_ptr<ccl::StateMachineEngine> engine;
    {
        obs::ScopedCapture scope(capture_a);
        engine = std::make_unique<ccl::StateMachineEngine>(2);
    }
    {
        obs::ScopedCapture scope(capture_b);
        engine.reset();
    }
    a.heartbeat(0.0);
    b.heartbeat(0.0);
    auto has = [](const obs::Monitor& monitor, const std::string& key) {
        const auto snapshots = monitor.snapshots();
        for (const auto& [name, value] : snapshots.back().values)
            if (name == key)
                return true;
        return false;
    };
    EXPECT_FALSE(has(a, "ccl.sm.workers"));
    EXPECT_TRUE(has(b, "mine"));
}

} // namespace
} // namespace ccube
