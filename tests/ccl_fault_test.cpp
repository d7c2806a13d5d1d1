/**
 * @file
 * Abort-path tests for the fault-tolerant collective runtime: a rank
 * killed or wedged by the FaultInjector must never hang the suite —
 * every scenario has to surface a CollectiveError naming that rank
 * within the watchdog deadline, on both executor modes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <thread>

#include "ccl/fault.h"
#include "ccl/program_task.h"
#include "ccl/sync_primitives.h"
#include "obs/context.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"

namespace ccube {
namespace ccl {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------ abort epoch

TEST(AbortState, EpochParityAndFirstTripWins)
{
    AbortState state;
    EXPECT_FALSE(state.aborted());
    EXPECT_EQ(state.epoch() % 2, 0u);

    CollectiveError::Info first;
    first.failed_rank = 3;
    EXPECT_TRUE(state.trip(first));
    EXPECT_TRUE(state.aborted());
    EXPECT_EQ(state.epoch() % 2, 1u);

    CollectiveError::Info second;
    second.failed_rank = 5;
    EXPECT_FALSE(state.trip(second)); // first trip wins
    EXPECT_EQ(state.info().failed_rank, 3);

    state.clear();
    EXPECT_FALSE(state.aborted());
    EXPECT_EQ(state.epoch() % 2, 0u); // next generation, re-armed
    EXPECT_TRUE(state.trip(second));
    EXPECT_EQ(state.info().failed_rank, 5);
}

TEST(AbortState, AbortUnblocksASpinningWaiter)
{
    CommFaultContext context(2);
    BoundedSemaphore sem(1, 0);
    std::atomic<bool> threw{false};

    std::thread waiter([&]() {
        ScopedFaultContext scope(&context);
        try {
            sem.wait(); // would spin forever without the abort
        } catch (const AbortedWait&) {
            threw.store(true);
        }
    });
    std::this_thread::sleep_for(20ms);
    CollectiveError::Info info;
    info.failed_rank = 1;
    context.abortState().trip(info);
    waiter.join();
    EXPECT_TRUE(threw.load());
}

TEST(FaultInjector, FiresOnceAtTheArmedOperation)
{
    FaultInjector injector;
    FaultInjector::Fault armed;
    armed.rank = 2;
    armed.action = FaultInjector::Action::kKill;
    armed.at_op = 1;
    injector.arm(armed);
    CommFaultContext context(8);
    context.setInjector(&injector);

    obs::setThreadRank(2);
    EXPECT_NO_THROW(context.onMailboxOp(0));          // op 0: not yet
    EXPECT_THROW(context.onMailboxOp(0), RankKilled); // op 1: fires
    EXPECT_NO_THROW(context.onMailboxOp(0)); // fires at most once
    obs::setThreadRank(-1);
    EXPECT_EQ(context.opsSeen(2), 3);
    EXPECT_EQ(context.opsSeen(5), 0);

    // Re-attaching restarts the count the plan's at_op indexes.
    context.setInjector(&injector);
    EXPECT_EQ(context.opsSeen(2), 0);
    context.setInjector(nullptr);
}

TEST(FaultInjectorDeathTest, ArmOutsideTheAttachedCommunicatorDies)
{
    FaultInjector injector;
    FaultInjector::Fault beyond;
    beyond.rank = 4;
    beyond.action = FaultInjector::Action::kKill;

    CommFaultContext small(4);
    small.setInjector(&injector);
    EXPECT_DEATH(injector.arm(beyond), "fault rank out of range");

    // Detached, any rank arms; a communicator that has it can fire it.
    small.setInjector(nullptr);
    injector.arm(beyond);
    CommFaultContext large(8);
    large.setInjector(&injector);
    FaultInjector::Fault fired;
    EXPECT_TRUE(injector.onOp(4, 0, &fired));
    EXPECT_EQ(fired.rank, 4);
    large.setInjector(nullptr);
}

TEST(CommFaultContext, UntaggedThreadWritesNothing)
{
    // A thread with no rank tag must not alias rank 0's slot: the
    // deadline report would otherwise blame rank 0 for a wait site
    // that no rank is blocked on.
    CommFaultContext context(4);
    context.beginCollective("probe");
    ASSERT_LT(obs::threadRank(), 0);
    context.noteWaitBegin("mb untagged", 7, 2);
    context.notePosted(11);

    const CollectiveError::Info info = context.deadlineInfo(1.0);
    EXPECT_EQ(info.failed_rank, 0); // every rank at 0 ops: lowest wins
    EXPECT_EQ(info.mailbox, "");
    EXPECT_EQ(info.flow, -1);
    EXPECT_EQ(info.last_posted_seq, -1);
    EXPECT_TRUE(info.stall_chain.empty()) << info.stall_chain;

    // Nor is an untagged mailbox op counted against rank 0.
    context.onMailboxOp(7);
    EXPECT_EQ(context.deadlineInfo(1.0).failed_rank, 0);
    EXPECT_EQ(context.deadlineInfo(1.0).ops_completed, 0);
}

// ------------------------------------------- collective abort paths

class FaultedCollective
    : public ::testing::TestWithParam<RankExecutor::Mode>
{
  protected:
    static constexpr int kRanks = 8;
    static constexpr auto kDeadline = 300ms;

    RankBuffers makeBuffers(std::size_t elems) const
    {
        RankBuffers buffers(kRanks);
        for (std::size_t r = 0; r < buffers.size(); ++r)
            buffers[r].assign(elems, static_cast<float>(r + 1));
        return buffers;
    }

    /**
     * Runs a double-tree AllReduce with @p fault armed and requires
     * the structured error to blame the faulted rank within (a
     * generous multiple of) the deadline instead of hanging.
     */
    void expectAbort(const FaultInjector::Fault& fault)
    {
        const topo::Graph graph = topo::makeDgx1();
        const topo::DoubleTreeEmbedding dt =
            topo::makeDgx1DoubleTree(graph);
        Communicator comm(kRanks, 4, GetParam());
        comm.setDeadline(kDeadline);
        FaultInjector injector;
        injector.arm(fault);
        comm.setFaultInjector(&injector);

        RankBuffers buffers = makeBuffers(32);
        bool caught = false;
        try {
            ccl::runProgram(comm, buffers,
                            sched::doubleTreeProgram(
                                dt, sched::PhaseMode::kOverlapped, 2));
        } catch (const CollectiveError& error) {
            caught = true;
            EXPECT_EQ(error.info().failed_rank, fault.rank);
            EXPECT_EQ(error.info().op, "double_tree_allreduce");
            EXPECT_GT(error.info().deadline_s, 0.0);
        }
        EXPECT_TRUE(caught) << "collective completed despite fault";

        // The abort poisons the communicator until cleared ...
        EXPECT_THROW(comm.run([](int) {}, "noop"), CollectiveError);
        // ... and clearAbort() re-arms it for the next collective.
        comm.clearAbort();
        comm.setFaultInjector(nullptr);
        // The retry only needs the watchdog as a hang backstop; the
        // tight deadline above would trip spuriously when the whole
        // suite time-shares a loaded CPU.
        comm.setDeadline(10s);
        RankBuffers retry = makeBuffers(32);
        ccl::runProgram(comm, retry,
                        sched::doubleTreeProgram(dt,
                                                 sched::PhaseMode::kOverlapped,
                                                 2));
        for (std::size_t r = 0; r < retry.size(); ++r)
            EXPECT_FLOAT_EQ(retry[r][0], 36.0f); // 1+2+...+8
    }
};

TEST_P(FaultedCollective, RankKilledBeforeFirstPost)
{
    FaultInjector::Fault fault;
    fault.rank = 3;
    fault.action = FaultInjector::Action::kKill;
    fault.at_op = 0;
    expectAbort(fault);
}

TEST_P(FaultedCollective, RankKilledMidChunk)
{
    FaultInjector::Fault fault;
    fault.rank = 3;
    fault.action = FaultInjector::Action::kKill;
    fault.at_op = 3;
    expectAbort(fault);
}

TEST_P(FaultedCollective, RankStalledDuringDoubleTreeReduce)
{
    FaultInjector::Fault fault;
    fault.rank = 5;
    fault.action = FaultInjector::Action::kStall;
    fault.at_op = 2;
    expectAbort(fault);
}

TEST_P(FaultedCollective, DelayedRankStillCompletes)
{
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt =
        topo::makeDgx1DoubleTree(graph);
    Communicator comm(kRanks, 4, GetParam());
    comm.setDeadline(kDeadline);
    FaultInjector injector;
    FaultInjector::Fault fault;
    fault.rank = 2;
    fault.action = FaultInjector::Action::kDelay;
    fault.at_op = 1;
    fault.delay_s = 0.01; // well inside the deadline
    injector.arm(fault);
    comm.setFaultInjector(&injector);

    RankBuffers buffers = makeBuffers(32);
    ccl::runProgram(comm, buffers,
                    sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped,
                                             2));
    for (std::size_t r = 0; r < buffers.size(); ++r)
        EXPECT_FLOAT_EQ(buffers[r][0], 36.0f);
}

TEST_P(FaultedCollective, ManualAbortSurfacesStructuredError)
{
    Communicator comm(kRanks, 4, GetParam());
    CollectiveError::Info info;
    info.failed_rank = 6;
    info.reason = "operator-initiated abort";
    comm.abort(info);
    bool caught = false;
    try {
        comm.run([](int) {}, "tree_broadcast");
    } catch (const CollectiveError& error) {
        caught = true;
        EXPECT_EQ(error.info().failed_rank, 6);
    }
    EXPECT_TRUE(caught);
    comm.clearAbort();
    comm.run([](int) {}, "tree_broadcast"); // usable again
}

TEST_P(FaultedCollective, AbortRacingClearNeverLeaksStaleGeneration)
{
    // Regression: clearAbort() flushes the mailboxes and then retires
    // the tripped generation. An abort() racing in between (watchdog
    // threads run concurrently) used to be able to land after the
    // flush but before the clear — the clear would retire a generation
    // whose mailboxes were never flushed, and the next collective
    // consumed a stale chunk. The epoch-checked flush loop must
    // re-flush for the new generation instead.
    Communicator comm(kRanks, 4, GetParam());

    CollectiveError::Info info;
    info.failed_rank = 1;
    info.reason = "first fault";
    comm.abort(info);

    // A chunk the dead collective posted and never consumed.
    const std::vector<float> stale(8, -1.0f);
    Mailbox& box = comm.mailbox(0, 1, 0);
    box.send(stale);

    // Simulate the race deterministically: between the flush and the
    // conditional clear, a second fault trips the next generation and
    // posts another stale chunk. Fire-once, or clearAbort() would
    // rightly loop forever on an abort storm.
    std::atomic<int> raced{0};
    comm.setClearAbortHook([&]() {
        if (raced.fetch_add(1) != 0)
            return;
        CollectiveError::Info second;
        second.failed_rank = 2;
        second.reason = "abort racing clearAbort";
        comm.abort(second);
        box.send(stale);
    });

    comm.clearAbort();
    comm.setClearAbortHook({});

    // The racing generation was flushed (no stale chunk pending) and
    // retired (the communicator is re-armed, not poisoned).
    EXPECT_GE(raced.load(), 2); // first clear failed, loop re-flushed
    EXPECT_EQ(box.arrivalSemaphore().value(), 0);
    comm.run([](int) {}, "noop");

    // And a real collective sees clean channels: exact sums, no stale
    // -1 chunk surfacing anywhere.
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt =
        topo::makeDgx1DoubleTree(graph);
    comm.setDeadline(10s);
    RankBuffers buffers = makeBuffers(32);
    ccl::runProgram(comm, buffers,
                    sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped,
                                             2));
    for (std::size_t r = 0; r < buffers.size(); ++r)
        for (float v : buffers[r])
            EXPECT_FLOAT_EQ(v, 36.0f);
}

TEST_P(FaultedCollective, ClearAbortIsIdempotent)
{
    Communicator comm(kRanks, 4, GetParam());

    // Clearing an un-tripped communicator is a no-op...
    comm.clearAbort();
    comm.run([](int) {}, "noop");

    // ...and clearing twice after one abort leaves it re-armed, not
    // wedged or double-retired.
    CollectiveError::Info info;
    info.failed_rank = 4;
    comm.abort(info);
    comm.clearAbort();
    comm.clearAbort();
    comm.run([](int) {}, "noop");

    // The next trip still registers on the fresh generation.
    comm.abort(info);
    EXPECT_THROW(comm.run([](int) {}, "noop"), CollectiveError);
    comm.clearAbort();
    comm.run([](int) {}, "noop");
}

/** Live threads of this process: the entries of /proc/self/task. */
int
threadCount()
{
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<int>(std::distance(
        tasks, std::filesystem::directory_iterator()));
}

TEST_P(FaultedCollective, DeadlineArmedCollectiveStartsNoThread)
{
    // The thread that waits for the collective also watches its
    // deadline: arming one adds no thread to those the warm-up run
    // started (the rank threads, or the shared pool).
    const topo::Graph graph = topo::makeDgx1();
    const sched::Program program = sched::doubleTreeProgram(
        topo::makeDgx1DoubleTree(graph), sched::PhaseMode::kOverlapped, 2);
    Communicator comm(kRanks, 4, GetParam());
    comm.setDeadline(0ns);
    RankBuffers warmup = makeBuffers(32);
    ccl::runProgram(comm, warmup, program);
    const int before = threadCount();

    comm.setDeadline(10s);
    RankBuffers buffers = makeBuffers(32);
    ccl::runProgram(comm, buffers, program);
    EXPECT_EQ(threadCount(), before);
    for (const std::vector<float>& row : buffers)
        for (float v : row)
            EXPECT_FLOAT_EQ(v, 36.0f); // 1+2+...+8
}

TEST(KilledRank, EveryKillPoisonsTheCommunicator)
{
    // Every rank of a P=8 DGX-1 double tree on the state-machine pool,
    // killed at each of its first four mailbox ops, three tries each.
    // Some killed tasks are ones no peer waits for (a leaf's broadcast
    // receiver): the collective then ends without a deadline overrun,
    // and the communicator must still be poisoned, blaming the killed
    // rank, so clearAbort() flushes what the dead task left in its
    // mailboxes and the next AllReduce sums exactly.
    constexpr int kRanks = 8;
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(graph);
    const sched::Program program =
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped, 2);
    auto buffers = [&]() {
        RankBuffers out(kRanks);
        for (int r = 0; r < kRanks; ++r)
            out[static_cast<std::size_t>(r)].assign(
                32, static_cast<float>(r + 1));
        return out;
    };
    Communicator comm(kRanks, 4, RankExecutor::Mode::kStateMachine);
    for (int rank = 0; rank < kRanks; ++rank) {
        for (int op = 0; op < 4; ++op) {
            for (int attempt = 0; attempt < 3; ++attempt) {
                SCOPED_TRACE(::testing::Message()
                             << "rank " << rank << " op " << op
                             << " try " << attempt);
                FaultInjector injector;
                FaultInjector::Fault fault;
                fault.rank = rank;
                fault.action = FaultInjector::Action::kKill;
                fault.at_op = op;
                injector.arm(fault);
                comm.setFaultInjector(&injector);
                comm.setDeadline(100ms);
                RankBuffers faulted = buffers();
                bool caught = false;
                try {
                    ccl::runProgram(comm, faulted, program);
                } catch (const CollectiveError& error) {
                    caught = true;
                    EXPECT_EQ(error.info().failed_rank, rank);
                }
                EXPECT_TRUE(caught) << "the kill did not fail the run";
                EXPECT_TRUE(comm.aborted());

                comm.clearAbort();
                comm.setFaultInjector(nullptr);
                comm.setDeadline(10s); // a hang backstop only
                RankBuffers clean = buffers();
                ccl::runProgram(comm, clean, program);
                for (const std::vector<float>& row : clean)
                    for (float v : row)
                        ASSERT_FLOAT_EQ(v, 36.0f); // 1+2+...+8
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FaultedCollective,
    ::testing::Values(RankExecutor::Mode::kPersistent,
                      RankExecutor::Mode::kStateMachine),
    [](const ::testing::TestParamInfo<RankExecutor::Mode>& info) {
        switch (info.param) {
          case RankExecutor::Mode::kPersistent:
            return "persistent";
          case RankExecutor::Mode::kStateMachine:
            return "statemachine";
        }
        return "unknown";
    });

} // namespace
} // namespace ccl
} // namespace ccube
