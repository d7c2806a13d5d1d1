/**
 * @file
 * P=512 functional smoke for the state-machine runtime — the headline
 * acceptance of the async rank-task engine: a double-tree AllReduce
 * with 512 logical ranks runs on a handful of pool threads and
 * produces byte-identical results to the persistent one-thread-per-
 * rank engine.
 *
 * Labeled "scale" in tests/CMakeLists.txt; CI runs it in the Release
 * bench-gates job (`ctest -L scale`) where the thread-per-rank reference
 * leg (512 OS threads) stays comfortably inside the timeout.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/fault.h"
#include "obs/profiler.h"
#include "ccl/double_tree_allreduce.h"
#include "ccl/executor.h"
#include "ccl/ring_allreduce.h"
#include "ccl/state_machine.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "util/rng.h"

namespace ccube {
namespace {

using ccl::RankExecutor;

constexpr int kRanks = 512;
constexpr int kElems = 64;
constexpr int kSlots = 4;
constexpr int kChunksPerTree = 2;

topo::DoubleTreeEmbedding
logicalDoubleTree(int ranks)
{
    return topo::DoubleTreeEmbedding(
        topo::directEmbedding(topo::BinaryTree::inorder(ranks)),
        topo::directEmbedding(
            topo::BinaryTree::inorder(ranks).mirrored()));
}

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

TEST(ScaleSmoke, DoubleTreeP512ByteIdenticalToThreadPerRank)
{
    const topo::DoubleTreeEmbedding dt = logicalDoubleTree(kRanks);

    // Thread-per-rank reference: 512 persistent rank threads.
    ccl::RankBuffers reference = seededBuffers(kRanks, kElems, 7);
    {
        ccl::Communicator comm(kRanks, kSlots,
                               RankExecutor::Mode::kPersistent);
        ccl::doubleTreeAllReduce(comm, reference, dt, kChunksPerTree,
                                 ccl::TreePhaseMode::kTwoPhase);
    }

    // Same collective on the state-machine pool.
    ccl::RankBuffers buffers = seededBuffers(kRanks, kElems, 7);
    {
        ccl::Communicator comm(kRanks, kSlots,
                               RankExecutor::Mode::kStateMachine);
        ccl::doubleTreeAllReduce(comm, buffers, dt, kChunksPerTree,
                                 ccl::TreePhaseMode::kTwoPhase);
    }

    for (int r = 0; r < kRanks; ++r) {
        const auto& got = buffers[static_cast<std::size_t>(r)];
        const auto& want = reference[static_cast<std::size_t>(r)];
        if (std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)) != 0) {
            for (int i = 0; i < kElems; ++i)
                ASSERT_EQ(got[static_cast<std::size_t>(i)],
                          want[static_cast<std::size_t>(i)])
                    << "rank " << r << " elem " << i
                    << " diverges between engine modes";
        }
    }
}

TEST(ScaleSmoke, OverlappedDoubleTreeAndRingP512RunOnTheSharedPool)
{
    // Overlapped mode doubles the task count (separate reducer and
    // broadcaster pipelines per rank); run it and a 2(P−1)-step ring
    // purely on the state machine with exact integer sums — every
    // partial sum is an integer far below 2^24, so the expectation is
    // reduction-order independent, bit for bit.
    const topo::DoubleTreeEmbedding dt = logicalDoubleTree(kRanks);
    const topo::RingEmbedding ring = topo::makeSequentialRing(kRanks);

    auto makeBuffers = [](int elems) {
        ccl::RankBuffers buffers(kRanks);
        for (int r = 0; r < kRanks; ++r) {
            auto& b = buffers[static_cast<std::size_t>(r)];
            b.resize(static_cast<std::size_t>(elems));
            for (int i = 0; i < elems; ++i)
                b[static_cast<std::size_t>(i)] =
                    static_cast<float>((r * 7 + i * 13) % 17 - 8);
        }
        return buffers;
    };
    auto exactSums = [](int elems) {
        std::vector<float> expected(static_cast<std::size_t>(elems));
        for (int i = 0; i < elems; ++i) {
            long sum = 0;
            for (int r = 0; r < kRanks; ++r)
                sum += (r * 7 + i * 13) % 17 - 8;
            expected[static_cast<std::size_t>(i)] =
                static_cast<float>(sum);
        }
        return expected;
    };
    auto expectExact = [](const ccl::RankBuffers& buffers,
                          const std::vector<float>& expected,
                          const char* what) {
        for (std::size_t r = 0; r < buffers.size(); ++r)
            for (std::size_t i = 0; i < buffers[r].size(); ++i)
                ASSERT_EQ(buffers[r][i], expected[i])
                    << what << ": rank " << r << " elem " << i;
    };

    ccl::Communicator comm(kRanks, kSlots,
                           RankExecutor::Mode::kStateMachine);
    {
        ccl::RankBuffers buffers = makeBuffers(kElems);
        ccl::doubleTreeAllReduce(comm, buffers, dt, kChunksPerTree,
                                 ccl::TreePhaseMode::kOverlapped);
        expectExact(buffers, exactSums(kElems), "double tree");
    }
    {
        // The ring slices the buffer into P pieces, so it needs at
        // least one element per rank.
        ccl::RankBuffers buffers = makeBuffers(kRanks);
        ccl::ringAllReduce(comm, buffers, ring);
        expectExact(buffers, exactSums(kRanks), "ring");
    }

    // 512 functional ranks must not have grown the pool past its
    // default size (CCUBE_CCL_SM_WORKERS when set, else 2x cores).
    EXPECT_EQ(ccl::StateMachineEngine::shared().workerCount(),
              ccl::StateMachineEngine::defaultWorkerCount());
}

TEST(ScaleSmoke, WatchdogKillEmitsStallChainAtP512)
{
    // The ISSUE acceptance bar: at P=512 on the state machine, a
    // killed rank must yield a stall report whose wait-for chain
    // terminates at the injected rank — not just a blamed-rank guess.
    // A ring is used because its wait-for graph is a single path, so
    // the terminus assertion is exact. The profiler samples the whole
    // aborted run; CI harvests both artifacts via the env hooks below.
    using namespace std::chrono_literals;
    constexpr int kKilled = 17;

    obs::Profiler& profiler = obs::Profiler::global();
    profiler.start(0.0); // default rate

    ccl::Communicator comm(kRanks, kSlots,
                           RankExecutor::Mode::kStateMachine);
    comm.setDeadline(2s);
    ccl::FaultInjector injector;
    ccl::FaultInjector::Fault fault;
    fault.rank = kKilled;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 5;
    injector.arm(fault);
    comm.setFaultInjector(&injector);

    const topo::RingEmbedding ring = topo::makeSequentialRing(kRanks);
    ccl::RankBuffers buffers(kRanks);
    for (auto& b : buffers)
        b.assign(kRanks, 1.0f); // ring needs >= one elem per rank

    bool caught = false;
    std::string report;
    try {
        ccl::ringAllReduce(comm, buffers, ring);
    } catch (const ccl::CollectiveError& error) {
        caught = true;
        const ccl::CollectiveError::Info& info = error.info();
        EXPECT_EQ(info.failed_rank, kKilled);
        EXPECT_EQ(info.chain_terminus, kKilled) << info.stall_chain;
        EXPECT_FALSE(info.stall_chain.empty());
        EXPECT_NE(info.stall_chain.find("r17 killed"),
                  std::string::npos)
            << info.stall_chain;
        report = ccl::formatStallReport(info);
    }
    EXPECT_TRUE(caught) << "collective completed despite kill";
    comm.clearAbort();
    comm.setFaultInjector(nullptr);
    profiler.stop();

    if (const char* path = std::getenv("CCUBE_STALL_REPORT_OUT")) {
        std::ofstream out(path);
        out << report;
    }
    if (const char* path = std::getenv("CCUBE_PROFILE_OUT")) {
        std::ofstream out(path);
        profiler.writeCollapsed(out);
    }
}

TEST(ScaleSmoke, KillAtTopRankOfP512FailsStructured)
{
    // The injector sizes its per-rank counters from the communicator,
    // so the last of 512 ranks can be killed like any other: the
    // collective must end in a CollectiveError naming it, not a hang.
    using namespace std::chrono_literals;
    constexpr int kKilled = kRanks - 1;

    ccl::Communicator comm(kRanks, kSlots,
                           RankExecutor::Mode::kStateMachine);
    comm.setDeadline(2s);
    ccl::FaultInjector injector;
    ccl::FaultInjector::Fault fault;
    fault.rank = kKilled;
    fault.action = ccl::FaultInjector::Action::kKill;
    fault.at_op = 5;
    injector.arm(fault);
    comm.setFaultInjector(&injector);

    const topo::RingEmbedding ring = topo::makeSequentialRing(kRanks);
    ccl::RankBuffers buffers(kRanks);
    for (auto& b : buffers)
        b.assign(kRanks, 1.0f);

    bool caught = false;
    try {
        ccl::ringAllReduce(comm, buffers, ring);
    } catch (const ccl::CollectiveError& error) {
        caught = true;
        EXPECT_EQ(error.info().failed_rank, kKilled);
        EXPECT_EQ(error.info().chain_terminus, kKilled)
            << error.info().stall_chain;
    }
    EXPECT_TRUE(caught) << "collective completed despite kill";
    EXPECT_EQ(injector.opsSeen(kKilled), 6);
    comm.clearAbort();
    comm.setFaultInjector(nullptr);
}

} // namespace
} // namespace ccube
