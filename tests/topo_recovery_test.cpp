/**
 * @file
 * Degraded-topology recovery: removing any single NVLink channel (or
 * any full bidirectional pair) from the DGX-1 must leave
 * core::recoverSchedule with a valid schedule — a conflict-free
 * double tree, a routable contended one, or a ring fallback — and
 * never an unroutable panic. Property-style over all channel ids.
 * Also: the topo::ChannelHealthTracker re-admission rules the
 * supervisor re-plans from.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/recovery.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/graph.h"
#include "topo/health.h"
#include "topo/ring_embedding.h"

namespace ccube {
namespace core {
namespace {

/** Small deterministic search budget to keep the sweep fast. */
RecoveryOptions
testOptions(const topo::Graph& graph)
{
    RecoveryOptions options;
    options.search.num_ranks = graph.nodeCount();
    options.search.max_attempts = 500;
    options.search.seed = 7;
    return options;
}

void
expectUsable(const topo::Graph& graph, const RecoveryResult& result)
{
    ASSERT_TRUE(result.usable())
        << "surviving graph reported unroutable";
    switch (result.kind) {
    case RecoveryKind::kCCube:
        ASSERT_TRUE(result.double_tree.has_value());
        EXPECT_TRUE(
            topo::isConflictFree(result.graph, *result.double_tree));
        break;
    case RecoveryKind::kDoubleTree:
        ASSERT_TRUE(result.double_tree.has_value());
        // Contended by construction (rung 1 failed), but routable.
        break;
    case RecoveryKind::kRing:
        ASSERT_EQ(result.ring.size(), result.graph.nodeCount());
        EXPECT_TRUE(topo::ringIsPhysical(result.graph, result.ring));
        break;
    case RecoveryKind::kNone:
        FAIL() << "unreachable";
    }
    (void)graph;
}

TEST(WithoutChannels, RemovesExactlyTheNamedChannels)
{
    const topo::Graph graph = topo::makeDgx1();
    const topo::Graph degraded = topo::withoutChannels(graph, {0, 5});
    EXPECT_EQ(degraded.nodeCount(), graph.nodeCount());
    EXPECT_EQ(degraded.channelCount(), graph.channelCount() - 2);

    // Out-of-range ids are ignored, not fatal.
    const topo::Graph same =
        topo::withoutChannels(graph, {-1, graph.channelCount() + 3});
    EXPECT_EQ(same.channelCount(), graph.channelCount());
}

TEST(RecoverSchedule, EverySingleChannelRemovalStaysRoutable)
{
    const topo::Graph graph = topo::makeDgx1();
    for (int id = 0; id < graph.channelCount(); ++id) {
        SCOPED_TRACE("removed channel " + std::to_string(id));
        const RecoveryResult result =
            recoverSchedule(graph, {id}, testOptions(graph));
        expectUsable(graph, result);
        EXPECT_EQ(result.graph.channelCount(),
                  graph.channelCount() - 1);
    }
}

TEST(RecoverSchedule, EveryNvlinkPairRemovalStaysRoutable)
{
    const topo::Graph graph = topo::makeDgx1();
    std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs;
    for (int id = 0; id < graph.channelCount(); ++id) {
        const topo::ChannelDesc& desc = graph.channel(id);
        const auto pair = desc.src < desc.dst
                              ? std::make_pair(desc.src, desc.dst)
                              : std::make_pair(desc.dst, desc.src);
        bool seen = false;
        for (const auto& existing : pairs)
            seen = seen || existing == pair;
        if (!seen)
            pairs.push_back(pair);
    }
    ASSERT_FALSE(pairs.empty());
    for (const auto& pair : pairs) {
        SCOPED_TRACE("removed pair (" + std::to_string(pair.first) +
                     "," + std::to_string(pair.second) + ")");
        std::vector<int> failed =
            graph.channelIds(pair.first, pair.second);
        for (int id : graph.channelIds(pair.second, pair.first))
            failed.push_back(id);
        const RecoveryResult result =
            recoverSchedule(graph, failed, testOptions(graph));
        expectUsable(graph, result);
    }
}

TEST(RecoverSchedule, HealthyGraphRecoversAtFullPerformance)
{
    const topo::Graph graph = topo::makeDgx1();
    const RecoveryResult result =
        recoverSchedule(graph, {}, testOptions(graph));
    EXPECT_EQ(result.kind, RecoveryKind::kCCube);
    EXPECT_GE(result.search_seconds, 0.0);
}

TEST(RecoverSchedule, UnroutableSurvivorReportsNoneWithoutPanicking)
{
    const topo::Graph graph = topo::makeDgx1();
    std::vector<int> all;
    for (int id = 0; id < graph.channelCount(); ++id)
        all.push_back(id);
    const RecoveryResult result =
        recoverSchedule(graph, all, testOptions(graph));
    EXPECT_EQ(result.kind, RecoveryKind::kNone);
    EXPECT_FALSE(result.usable());
}

// --- ChannelHealthTracker ---------------------------------------------

TEST(ChannelHealth, RestoredLinkReadmittedAfterExactlyProbationRuns)
{
    topo::ChannelHealthTracker health(4, 2);
    EXPECT_TRUE(health.excludedChannels().empty());
    health.noteFail(1);
    EXPECT_EQ(health.excludedChannels(), std::vector<int>{1});
    health.noteRestore(1);
    const std::vector<int> excluded = health.excludedChannels();
    EXPECT_EQ(excluded, std::vector<int>{1}); // probation starts
    health.noteRunSuccess();
    EXPECT_EQ(health.excludedChannels(), std::vector<int>{1});
    EXPECT_FALSE(health.anyReadmittable(excluded));
    health.noteRunSuccess(); // score 0.85 by now: no quarantine
    EXPECT_TRUE(health.excludedChannels().empty());
    EXPECT_TRUE(health.anyReadmittable(excluded));
}

TEST(ChannelHealth, ProbationDoublesFromTheThirdFail)
{
    topo::ChannelHealthTracker health(2, 1);
    // The first two fail/restore cycles sit out one run each; the
    // score stays above 0.5 after every run, so only probation
    // excludes the link.
    for (int cycle = 1; cycle <= 2; ++cycle) {
        health.noteFail(0);
        health.noteRestore(0);
        EXPECT_EQ(health.excludedChannels(), std::vector<int>{0});
        health.noteRunSuccess();
        EXPECT_TRUE(health.excludedChannels().empty())
            << "cycle " << cycle;
    }
    // The third fail marks the link flapping: two runs of probation.
    health.noteFail(0);
    health.noteRestore(0);
    health.noteRunSuccess(); // score 0.64
    EXPECT_EQ(health.excludedChannels(), std::vector<int>{0});
    health.noteRunSuccess();
    EXPECT_TRUE(health.excludedChannels().empty());
}

TEST(ChannelHealth, LowScoreKeepsLinkExcludedPastProbation)
{
    topo::ChannelHealthTracker health(1, 1);
    health.noteFail(0);
    health.noteFail(0); // score 0.4225
    health.noteRestore(0);
    for (int i = 0; i < 4; ++i)
        health.noteDegrade(0, 0.0); // score 0.196
    const std::vector<int> excluded = health.excludedChannels();
    health.noteRunSuccess(); // probation served; score 0.477 < 0.5
    EXPECT_EQ(health.excludedChannels(), std::vector<int>{0});
    EXPECT_FALSE(health.anyReadmittable(excluded));
    health.noteRunSuccess(); // score 0.66
    EXPECT_TRUE(health.excludedChannels().empty());
    EXPECT_TRUE(health.anyReadmittable(excluded));
}

} // namespace
} // namespace core
} // namespace ccube
