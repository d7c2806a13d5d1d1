/**
 * @file
 * Tests for the automated conflict-free double-tree search: on the
 * DGX-1 it must find an embedding with the same structural properties
 * as the paper's hand-crafted one; on degenerate graphs it must fail
 * gracefully; results are deterministic per seed.
 */

#include <gtest/gtest.h>

#include "topo/detour_router.h"
#include "topo/dgx1.h"
#include "topo/embedding_search.h"
#include "topo/switch_fabric.h"

namespace ccube {
namespace topo {
namespace {

TEST(EmbeddingSearch, FindsConflictFreeDoubleTreeOnDgx1)
{
    const Graph dgx1 = makeDgx1();
    const auto found = findConflictFreeDoubleTree(dgx1);
    ASSERT_TRUE(found.has_value());
    EXPECT_TRUE(found->tree0.tree.valid());
    EXPECT_TRUE(found->tree1.tree.valid());
    EXPECT_TRUE(isConflictFree(dgx1, *found));
}

TEST(EmbeddingSearch, SharedPairsLandOnDoubleLinksOnDgx1)
{
    const Graph dgx1 = makeDgx1();
    const auto found = findConflictFreeDoubleTree(dgx1);
    ASSERT_TRUE(found.has_value());
    for (const auto& [pair, usage] : analyzeChannelUsage(*found)) {
        if (usage.forward > 1 || usage.backward > 1) {
            EXPECT_GE(dgx1.linkCount(pair.first, pair.second),
                      usage.forward);
        }
    }
}

TEST(EmbeddingSearch, DeterministicPerSeed)
{
    const Graph dgx1 = makeDgx1();
    EmbeddingSearchOptions options;
    options.seed = 7;
    const auto a = findConflictFreeDoubleTree(dgx1, options);
    const auto b = findConflictFreeDoubleTree(dgx1, options);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->tree0.tree.edges(), b->tree0.tree.edges());
    EXPECT_EQ(a->tree1.tree.edges(), b->tree1.tree.edges());
}

TEST(EmbeddingSearch, DifferentSeedsStillConflictFree)
{
    const Graph dgx1 = makeDgx1();
    for (std::uint64_t seed : {1ull, 17ull, 42ull, 1234ull}) {
        EmbeddingSearchOptions options;
        options.seed = seed;
        const auto found = findConflictFreeDoubleTree(dgx1, options);
        ASSERT_TRUE(found.has_value()) << "seed " << seed;
        EXPECT_TRUE(isConflictFree(dgx1, *found)) << "seed " << seed;
    }
}

TEST(EmbeddingSearch, WorksOnSwitchFabric)
{
    SwitchFabricParams params;
    params.num_nodes = 8;
    const Graph fabric = makeSwitchFabric(params);
    EmbeddingSearchOptions options;
    options.num_ranks = 8;
    // Fabric routes go through switches — longer than 2 hops — so
    // direct construction cannot span; searching with detours up to
    // the switch path length is out of scope for the 2-hop search.
    // The mirrored construction is the right tool there; the search
    // must simply not crash or return a bogus embedding.
    const auto found = findConflictFreeDoubleTree(fabric, options);
    if (found.has_value()) {
        EXPECT_TRUE(isConflictFree(fabric, *found));
    }
}

TEST(EmbeddingSearch, FailsGracefullyWhenImpossible)
{
    // A path graph: two link-disjoint spanning trees cannot exist.
    Graph path("path");
    for (int n = 0; n < 4; ++n)
        path.addNode(std::string("N").append(std::to_string(n)));
    path.addLink(0, 1, 25e9, 1e-6);
    path.addLink(1, 2, 25e9, 1e-6);
    path.addLink(2, 3, 25e9, 1e-6);
    EmbeddingSearchOptions options;
    options.max_attempts = 50;
    const auto found = findConflictFreeDoubleTree(path, options);
    EXPECT_FALSE(found.has_value());
}

TEST(EmbeddingSearch, RoutesAlignWithEdges)
{
    const Graph dgx1 = makeDgx1();
    const auto found = findConflictFreeDoubleTree(dgx1);
    ASSERT_TRUE(found.has_value());
    for (const TreeEmbedding* emb : {&found->tree0, &found->tree1}) {
        const auto edges = emb->tree.edges();
        ASSERT_EQ(edges.size(), emb->routes.size());
        for (std::size_t i = 0; i < edges.size(); ++i) {
            EXPECT_EQ(emb->routes[i].hops.front(), edges[i].first);
            EXPECT_EQ(emb->routes[i].hops.back(), edges[i].second);
        }
    }
}

TEST(EmbeddingSearch, DetoursStayShort)
{
    const Graph dgx1 = makeDgx1();
    const auto found = findConflictFreeDoubleTree(dgx1);
    ASSERT_TRUE(found.has_value());
    for (const TreeEmbedding* emb : {&found->tree0, &found->tree1})
        for (const Route& route : emb->routes)
            EXPECT_LE(route.hopCount(), 2);
}

} // namespace
} // namespace topo
} // namespace ccube
