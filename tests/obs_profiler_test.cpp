/**
 * @file
 * obs::Profiler + wait-for-graph coverage.
 *
 * Unit side: CommFaultContext chain walking on golden tables —
 * linear stall chains, wait cycles, self-post, edge clearing — plus a
 * sampler smoke capture (publish a phase, observe samples and the
 * collapsed-stack rendering). E2e side: a FaultInjector kill during a
 * P=64 ring AllReduce must surface a CollectiveError whose wait-for
 * chain terminates at the killed rank, in all three engine modes —
 * the ring is the shape where the chain is exact (every rank has one
 * upstream), so the terminus assertion is deterministic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/fault.h"
#include "ccl/program_task.h"
#include "obs/context.h"
#include "obs/profiler.h"
#include "topo/ring_embedding.h"

namespace ccube {
namespace {

using namespace std::chrono_literals;
using obs::Profiler;
using obs::ProfPhase;

// ---------------------------------------------------------------------------
// Wait-for graph units: golden CommFaultContext progress tables
// ---------------------------------------------------------------------------

using Context = ccl::CommFaultContext;

/** Declares @p rank blocked the way the rank itself does: from a
 *  thread tagged with it. */
void
noteWait(Context& context, int rank, int peer, const char* label, int flow)
{
    obs::setThreadRank(rank);
    context.noteWaitBegin(label, flow, peer);
    obs::setThreadRank(-1);
}

void
clearWait(Context& context, int rank)
{
    obs::setThreadRank(rank);
    context.noteWaitEnd();
    obs::setThreadRank(-1);
}

bool
waiting(const Context& context, int rank)
{
    return !context.chain(rank).links.empty();
}

TEST(WaitForGraph, LinearChainTerminatesAtDeadRank)
{
    Context context(8);
    context.markDead(1);
    noteWait(context, 2, 1, "mb 1->2/f0", 0);
    noteWait(context, 3, 2, "mb 2->3/f0", 0);
    noteWait(context, 4, 3, "mb 3->4/f0", 0);

    const Context::WaitChain chain = context.chain(4);
    ASSERT_EQ(chain.length(), 3u);
    EXPECT_EQ(chain.links[0].rank, 4);
    EXPECT_EQ(chain.links[1].rank, 3);
    EXPECT_EQ(chain.links[2].rank, 2);
    EXPECT_EQ(chain.terminus, 1);
    EXPECT_TRUE(chain.terminus_dead);
    EXPECT_FALSE(chain.cycle);

    const std::string text = Context::formatChain(chain);
    EXPECT_NE(text.find("r4 parked on mb 3->4/f0"), std::string::npos)
        << text;
    EXPECT_NE(text.find("r1 killed"), std::string::npos) << text;
}

TEST(WaitForGraph, LongestChainPicksTheDeepestWaiter)
{
    Context context(8);
    context.markDead(0);
    noteWait(context, 1, 0, "mb 0->1/f0", 0);
    noteWait(context, 2, 1, "mb 1->2/f0", 0);
    noteWait(context, 5, 0, "mb 0->5/f1", 1); // short side branch

    const Context::WaitChain chain = context.longestChain();
    ASSERT_EQ(chain.length(), 2u);
    EXPECT_EQ(chain.links[0].rank, 2);
    EXPECT_EQ(chain.terminus, 0);
}

TEST(WaitForGraph, CycleIsDetectedNotFollowedForever)
{
    Context context(4);
    noteWait(context, 0, 1, "mb 1->0/f0", 0);
    noteWait(context, 1, 0, "mb 0->1/f0", 0);

    const Context::WaitChain chain = context.chain(0);
    EXPECT_TRUE(chain.cycle);
    EXPECT_EQ(chain.length(), 2u);
    EXPECT_EQ(chain.terminus, 0); // walk returned to its start
    EXPECT_NE(Context::formatChain(chain).find("wait cycle"),
              std::string::npos);
}

TEST(WaitForGraph, SelfPostIsAOneLinkCycle)
{
    Context context(8);
    noteWait(context, 5, 5, "mb 5->5/f0", 0);

    const Context::WaitChain chain = context.chain(5);
    EXPECT_TRUE(chain.cycle);
    EXPECT_EQ(chain.length(), 1u);
    EXPECT_EQ(chain.terminus, 5);
}

TEST(WaitForGraph, ClearWaitRemovesTheEdge)
{
    Context context(4);
    noteWait(context, 2, 1, "mb 1->2/f0", 0);
    EXPECT_TRUE(waiting(context, 2));
    clearWait(context, 2);
    EXPECT_FALSE(waiting(context, 2));
    EXPECT_TRUE(context.longestChain().empty());
}

TEST(WaitForGraph, UnknownPeerEndsTheChainAtExternal)
{
    Context context(4);
    noteWait(context, 3, -1, "<stalled>", 2);

    const Context::WaitChain chain = context.chain(3);
    EXPECT_EQ(chain.length(), 1u);
    EXPECT_EQ(chain.terminus, -1);
    EXPECT_NE(Context::formatChain(chain).find("<external>"),
              std::string::npos);
}

TEST(WaitForGraph, BeginCollectiveDropsEdgesAndDeadMarks)
{
    Context context(4);
    context.markDead(1);
    noteWait(context, 2, 1, "mb 1->2/f0", 0);
    context.beginCollective("next");
    EXPECT_FALSE(waiting(context, 2));
    EXPECT_FALSE(context.chain(1).terminus_dead);
}

// ---------------------------------------------------------------------------
// Sampler smoke
// ---------------------------------------------------------------------------

TEST(ProfilerSampler, CapturesPublishedPhasesAndParkedTime)
{
    Profiler& profiler = Profiler::global();
    profiler.start(4000.0);
    ASSERT_TRUE(profiler.enabled());

    std::atomic<bool> stop{false};
    std::thread worker([&]() {
        obs::ScopedProfPhase phase(ProfPhase::kStep, 3);
        while (!stop.load(std::memory_order_relaxed))
            std::this_thread::sleep_for(1ms);
    });
    std::this_thread::sleep_for(150ms);
    stop.store(true, std::memory_order_relaxed);
    worker.join();
    profiler.addParkedNs(3, 1'000'000); // exact feed, as the engine does
    profiler.stop();

    EXPECT_FALSE(profiler.enabled());
    EXPECT_GT(profiler.ticks(), 0u);
    EXPECT_GT(profiler.samples(ProfPhase::kStep, 3), 0u);
    EXPECT_EQ(profiler.parkedNs(3), 1'000'000u);

    std::ostringstream collapsed;
    profiler.writeCollapsed(collapsed);
    const std::string text = collapsed.str();
    EXPECT_NE(text.find("ccl;rank3;step"), std::string::npos) << text;
    EXPECT_NE(text.find("ccl;rank3;parked"), std::string::npos) << text;
}

TEST(ProfilerSampler, DisabledPublishIsANoOp)
{
    Profiler& profiler = Profiler::global();
    ASSERT_FALSE(profiler.enabled());
    // Publication while stopped must not touch the thread slot (a
    // later capture would otherwise sample a stale phase forever).
    {
        obs::ScopedProfPhase phase(ProfPhase::kMailboxPost, 7);
    }
    profiler.start(4000.0);
    std::this_thread::sleep_for(20ms);
    profiler.stop();
    EXPECT_EQ(profiler.samples(ProfPhase::kMailboxPost, 7), 0u);
}

TEST(ProfilerSampler, RanksPastTheCapFoldIntoTheUnknownSlot)
{
    // One fold rule for every per-rank table: a rank outside
    // [0, RankCounters::kMaxRanks) is billed to the unknown slot, not
    // clamped onto the last rank.
    constexpr int kBeyond = 2000;
    static_assert(kBeyond >= obs::RankCounters::kMaxRanks);
    constexpr int kLast = obs::RankCounters::kMaxRanks - 1;
    Profiler& profiler = Profiler::global();
    profiler.start(4000.0);
    std::atomic<bool> stop{false};
    std::thread worker([&]() {
        obs::ScopedProfPhase phase(ProfPhase::kStep, kBeyond);
        while (!stop.load(std::memory_order_relaxed))
            std::this_thread::sleep_for(1ms);
    });
    std::this_thread::sleep_for(100ms);
    stop.store(true, std::memory_order_relaxed);
    worker.join();
    profiler.addParkedNs(kBeyond, 5);
    profiler.stop();
    EXPECT_GT(profiler.samples(ProfPhase::kStep, -1), 0u);
    EXPECT_EQ(profiler.samples(ProfPhase::kStep, kLast), 0u);
    EXPECT_EQ(profiler.parkedNs(-1), 5u);
    EXPECT_EQ(profiler.parkedNs(kLast), 0u);

    obs::RankCounters& counters = obs::RankCounters::global();
    counters.reset();
    obs::setThreadRank(kBeyond);
    counters.addMailboxSend();
    obs::setThreadRank(-1);
    EXPECT_EQ(counters.mailboxSends(-1), 1u);
    EXPECT_EQ(counters.mailboxSends(kLast), 0u);
    counters.reset();
}

// ---------------------------------------------------------------------------
// E2e: kill → stall report with the killed rank as chain terminus
// ---------------------------------------------------------------------------

class StallReportE2e
    : public ::testing::TestWithParam<ccl::RankExecutor::Mode>
{
};

TEST_P(StallReportE2e, KillAtP64RingChainTerminatesAtKilledRank)
{
    constexpr int kRanks = 64;
    constexpr int kKilled = 9;

    ccl::Communicator comm(kRanks, 4, GetParam());
    comm.setDeadline(500ms);
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
        ccl::runProgram(comm, buffers,
                        sched::ringProgram(ring, sched::RingPhase::kAllReduce));
    } catch (const ccl::CollectiveError& error) {
        caught = true;
        const ccl::CollectiveError::Info& info = error.info();
        EXPECT_EQ(info.failed_rank, kKilled);
        // The wait-for chain must name the killed rank as terminus —
        // in a ring every blocked rank's upstream edge leads there.
        EXPECT_EQ(info.chain_terminus, kKilled) << info.stall_chain;
        EXPECT_GE(info.chain_len, 1) << info.stall_chain;
        EXPECT_NE(info.stall_chain.find("r9 killed"),
                  std::string::npos)
            << info.stall_chain;
        // The human-facing report carries the same chain.
        const std::string report = ccl::formatStallReport(info);
        EXPECT_NE(report.find("=== ccl stall report ==="),
                  std::string::npos);
        EXPECT_NE(report.find("terminus r9"), std::string::npos)
            << report;
    }
    EXPECT_TRUE(caught) << "collective completed despite kill";
    comm.clearAbort();
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StallReportE2e,
    ::testing::Values(ccl::RankExecutor::Mode::kPersistent,
                      ccl::RankExecutor::Mode::kStateMachine),
    [](const auto& info) {
        switch (info.param) {
        case ccl::RankExecutor::Mode::kPersistent:
            return "Persistent";
        case ccl::RankExecutor::Mode::kStateMachine:
            return "StateMachine";
        }
        return "Unknown";
    });

} // namespace
} // namespace ccube
