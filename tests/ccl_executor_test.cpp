/**
 * @file
 * Tests for the persistent RankExecutor: one thread per rank reused
 * across back-to-back collectives (the whole point — no per-collective
 * spawning), every task of a rank pinned to that rank's thread,
 * correct results under every AllReduce algorithm on both engines,
 * exception propagation out of rank bodies and tasks with the executor
 * left usable, and the obs-exported telemetry.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/program_task.h"
#include "obs/context.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "util/rng.h"

namespace ccube {
namespace {

constexpr int kRanks = 8;
constexpr int kElems = 64;
constexpr int kChunks = 4;

struct Topologies {
    topo::Graph dgx1 = topo::makeDgx1();
    topo::RingEmbedding ring = topo::findHamiltonianRing(dgx1, kRanks);
    topo::TreeEmbedding tree =
        topo::embedTree(dgx1, topo::BinaryTree::inorder(kRanks));
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx1DoubleTree(dgx1);
};

ccl::RankBuffers
randomBuffers(util::Rng& rng, std::vector<float>& expected)
{
    ccl::RankBuffers buffers(kRanks);
    expected.assign(kElems, 0.0f);
    for (auto& b : buffers) {
        b.resize(kElems);
        rng.fill(b, -1.0f, 1.0f);
        for (int i = 0; i < kElems; ++i)
            expected[static_cast<std::size_t>(i)] +=
                b[static_cast<std::size_t>(i)];
    }
    return buffers;
}

void
expectAllReduced(const ccl::RankBuffers& buffers,
                 const std::vector<float>& expected)
{
    for (int rank = 0; rank < kRanks; ++rank) {
        for (int i = 0; i < kElems; ++i) {
            EXPECT_NEAR(
                buffers[static_cast<std::size_t>(rank)]
                       [static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)], 1e-4f)
                << "rank " << rank << " elem " << i;
        }
    }
}

/** Runs one collective of each algorithm, verifying the sums. */
void
runAllAlgorithms(ccl::Communicator& comm, const Topologies& topo,
                 util::Rng& rng)
{
    std::vector<float> expected;
    {
        ccl::RankBuffers buffers = randomBuffers(rng, expected);
        ccl::runProgram(comm, buffers,
                        sched::ringProgram(topo.ring,
                                           sched::RingPhase::kAllReduce));
        expectAllReduced(buffers, expected);
    }
    {
        ccl::RankBuffers buffers = randomBuffers(rng, expected);
        ccl::runProgram(comm, buffers,
                        sched::treeProgram(topo.tree,
                                           sched::TreeDirection::kAllReduce,
                                           sched::PhaseMode::kTwoPhase,
                                           kChunks));
        expectAllReduced(buffers, expected);
    }
    {
        ccl::RankBuffers buffers = randomBuffers(rng, expected);
        ccl::runProgram(comm, buffers,
                        sched::treeProgram(topo.tree,
                                           sched::TreeDirection::kAllReduce,
                                           sched::PhaseMode::kOverlapped,
                                           kChunks));
        expectAllReduced(buffers, expected);
    }
    {
        ccl::RankBuffers buffers = randomBuffers(rng, expected);
        ccl::runProgram(comm, buffers,
                        sched::doubleTreeProgram(topo.double_tree,
                                                 sched::PhaseMode::kOverlapped,
                                                 kChunks));
        expectAllReduced(buffers, expected);
    }
}

TEST(RankExecutor, PersistentModeAllAlgorithmsCorrect)
{
    const Topologies topo;
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    util::Rng rng(11);
    runAllAlgorithms(comm, topo, rng);
}

TEST(RankExecutor, SharedPoolModeAllAlgorithmsCorrect)
{
    const Topologies topo;
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kStateMachine);
    util::Rng rng(12);
    runAllAlgorithms(comm, topo, rng);
}

/** The thread each rank's body runs on, one Communicator::run. */
std::vector<std::thread::id>
rankThreads(ccl::Communicator& comm)
{
    std::vector<std::thread::id> ids(static_cast<std::size_t>(kRanks));
    comm.run([&](int rank) {
        ids[static_cast<std::size_t>(rank)] = std::this_thread::get_id();
    });
    return ids;
}

/** Rank tasks finished so far on ranks [0, kRanks). */
std::uint64_t
tasksFinished()
{
    std::uint64_t total = 0;
    for (int r = 0; r < kRanks; ++r)
        total += obs::RankCounters::global().executorTasks(r);
    return total;
}

TEST(RankExecutor, NoThreadGrowthAcrossBackToBackCollectives)
{
    // Forwarders, overlapped reducers and the second tree are tasks on
    // their rank's thread, so the census is exact for every algorithm:
    // one thread per rank, forever, while the task count keeps growing.
    const Topologies topo;
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    const std::vector<std::thread::id> threads = rankThreads(comm);
    EXPECT_EQ(std::set<std::thread::id>(threads.begin(), threads.end())
                  .size(),
              static_cast<std::size_t>(kRanks));
    const std::uint64_t before = tasksFinished();
    util::Rng rng(13);
    constexpr int kIters = 10;
    for (int iter = 0; iter < kIters; ++iter) {
        runAllAlgorithms(comm, topo, rng);
        EXPECT_EQ(rankThreads(comm), threads);
    }
    // 4 collectives per iteration, at least one task per rank each.
    EXPECT_GE(tasksFinished() - before,
              static_cast<std::uint64_t>(kIters) * 4 * kRanks);
}

/** Records the thread each step of rank() ran on, over @p steps steps. */
class ThreadProbeTask : public ccl::RankTask
{
  public:
    ThreadProbeTask(int rank, int steps,
                    std::vector<std::thread::id>& seen)
        : RankTask(rank, "probe"), steps_(steps), seen_(seen)
    {
    }

    ccl::StepStatus step(ccl::StepContext&) override
    {
        seen_.push_back(std::this_thread::get_id());
        return --steps_ == 0 ? ccl::StepStatus::kDone
                             : ccl::StepStatus::kContinue;
    }

  private:
    int steps_;
    std::vector<std::thread::id>& seen_;
};

TEST(RankExecutor, EveryTaskOfARankRunsOnThatRanksThread)
{
    ccl::RankExecutor executor(4);
    // Two tasks per rank, several steps each, over two collectives.
    std::vector<std::vector<std::thread::id>> seen(8);
    for (int run = 0; run < 2; ++run) {
        std::vector<std::unique_ptr<ccl::RankTask>> tasks;
        for (int i = 0; i < 8; ++i)
            tasks.push_back(std::make_unique<ThreadProbeTask>(
                i % 4, 3, seen[static_cast<std::size_t>(i)]));
        executor.run(std::move(tasks), nullptr);
    }
    std::vector<std::thread::id> owner(4);
    for (int i = 0; i < 8; ++i) {
        const auto& ids = seen[static_cast<std::size_t>(i)];
        ASSERT_EQ(ids.size(), 6u);
        std::thread::id& rank_thread = owner[static_cast<std::size_t>(i % 4)];
        if (rank_thread == std::thread::id())
            rank_thread = ids.front();
        for (std::thread::id id : ids)
            EXPECT_EQ(id, rank_thread) << "task " << i;
    }
    for (int a = 0; a < 4; ++a)
        for (int b = a + 1; b < 4; ++b)
            EXPECT_NE(owner[static_cast<std::size_t>(a)],
                      owner[static_cast<std::size_t>(b)]);
}

TEST(RankExecutor, RunFinishesOneTaskPerRank)
{
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    const std::uint64_t before = tasksFinished();
    comm.run([](int) {});
    EXPECT_EQ(tasksFinished(), before + kRanks);
}

TEST(RankExecutor, RankBodyExceptionPropagatesAndExecutorSurvives)
{
    const Topologies topo;
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);

    EXPECT_THROW(comm.run([](int rank) {
                     if (rank == 3)
                         throw std::runtime_error("rank body failed");
                 }),
                 std::runtime_error);

    // The executor (and its parked threads) must remain usable.
    util::Rng rng(14);
    runAllAlgorithms(comm, topo, rng);
}

/** Fails on its first step. */
class ThrowingTask : public ccl::RankTask
{
  public:
    explicit ThrowingTask(int rank) : RankTask(rank, "throw") {}

    ccl::StepStatus step(ccl::StepContext&) override
    {
        throw std::logic_error("task failed");
    }
};

TEST(RankExecutor, TaskExceptionPropagatesAfterTheRanksOtherTasks)
{
    ccl::RankExecutor executor(2);
    std::vector<std::thread::id> seen;
    std::vector<std::unique_ptr<ccl::RankTask>> tasks;
    tasks.push_back(std::make_unique<ThrowingTask>(0));
    tasks.push_back(std::make_unique<ThreadProbeTask>(0, 5, seen));
    EXPECT_THROW(executor.run(std::move(tasks), nullptr),
                 std::logic_error);
    // run() returned only after the surviving task on the same rank
    // finished its protocol.
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RankExecutor, ExecutorTelemetryExportedViaObs)
{
    obs::RankCounters& counters = obs::RankCounters::global();
    counters.reset();
    ccl::Communicator comm(kRanks, 4,
                           ccl::RankExecutor::Mode::kPersistent);
    // Start the rank threads and wait until rank 0's worker has
    // parked again after its first collective, so the next dispatch
    // is a guaranteed park→unpark transition.
    comm.run([](int) {});
    for (int i = 0; i < 2000 && counters.executorParks(0) <=
                                    counters.executorUnparks(0);
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(counters.executorParks(0), counters.executorUnparks(0));
    const std::uint64_t tasks = counters.executorTasks(0);
    const std::uint64_t unparks = counters.executorUnparks(0);

    comm.run([](int) {});
    EXPECT_GT(counters.executorTasks(0), tasks);
    EXPECT_GT(counters.executorUnparks(0), unparks);
}

} // namespace
} // namespace ccube
