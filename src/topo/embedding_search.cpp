#include "topo/embedding_search.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "sweep/sweep.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ccube {
namespace topo {

namespace {

/**
 * Immutable per-graph lookup shared by all attempts: a representative
 * channel id per directed pair (flattened src*N+dst), the link-count
 * capacity stored against that id, and per-node neighbor lists. Built
 * once so the per-attempt Budget is a plain flat array.
 */
class ChannelIndex
{
  public:
    explicit ChannelIndex(const Graph& graph)
        : nodes_(graph.nodeCount()),
          rep_(static_cast<std::size_t>(nodes_) * nodes_, -1),
          cap_(static_cast<std::size_t>(graph.channelCount()), 0),
          neighbors_(static_cast<std::size_t>(nodes_))
    {
        for (NodeId src = 0; src < nodes_; ++src) {
            for (int id : graph.outChannels(src)) {
                const ChannelDesc& ch = graph.channel(id);
                int& slot = rep_[pairSlot(src, ch.dst)];
                if (slot < 0) {
                    slot = id;
                    cap_[static_cast<std::size_t>(id)] =
                        graph.linkCount(src, ch.dst);
                }
            }
            neighbors_[static_cast<std::size_t>(src)] =
                graph.neighbors(src);
        }
    }

    /** Representative channel id for src → dst, or -1 when absent. */
    int
    repChannel(NodeId src, NodeId dst) const
    {
        return rep_[pairSlot(src, dst)];
    }

    int
    capacity(int rep) const
    {
        return cap_[static_cast<std::size_t>(rep)];
    }

    int channelCount() const { return static_cast<int>(cap_.size()); }

    const std::vector<NodeId>&
    neighbors(NodeId node) const
    {
        return neighbors_[static_cast<std::size_t>(node)];
    }

  private:
    std::size_t
    pairSlot(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * nodes_ +
               static_cast<std::size_t>(dst);
    }

    int nodes_;
    std::vector<int> rep_; ///< directed pair → representative channel
    std::vector<int> cap_; ///< by channel id: linkCount of its pair
    std::vector<std::vector<NodeId>> neighbors_;
};

/** Remaining per-direction channel budget during construction. */
class Budget
{
  public:
    explicit Budget(const ChannelIndex& index)
        : index_(index),
          used_(static_cast<std::size_t>(index.channelCount()), 0)
    {
    }

    int
    remaining(NodeId src, NodeId dst) const
    {
        const int rep = index_.repChannel(src, dst);
        if (rep < 0)
            return 0;
        return index_.capacity(rep) -
               used_[static_cast<std::size_t>(rep)];
    }

    /** A logical edge on route r consumes both directions of every
     *  segment (the overlapped algorithm drives up and down at once). */
    bool
    canTake(const Route& route) const
    {
        for (std::size_t i = 0; i + 1 < route.hops.size(); ++i) {
            if (remaining(route.hops[i], route.hops[i + 1]) < 1 ||
                remaining(route.hops[i + 1], route.hops[i]) < 1) {
                return false;
            }
        }
        return true;
    }

    void
    take(const Route& route)
    {
        for (std::size_t i = 0; i + 1 < route.hops.size(); ++i) {
            ++used_[static_cast<std::size_t>(
                index_.repChannel(route.hops[i], route.hops[i + 1]))];
            ++used_[static_cast<std::size_t>(
                index_.repChannel(route.hops[i + 1], route.hops[i]))];
        }
    }

  private:
    const ChannelIndex& index_;
    std::vector<int> used_; ///< flat, indexed by channel id
};

/**
 * Candidate routes from @p from to @p to within the channel budget:
 * the direct channel if present, and every two-hop GPU detour (one
 * transit GPU, as in C-Cube's detour) with available capacity.
 */
std::vector<Route>
candidateRoutes(const ChannelIndex& index, const Budget& budget,
                NodeId from, NodeId to)
{
    std::vector<Route> routes;
    Route direct{{from, to}};
    if (budget.canTake(direct))
        routes.push_back(std::move(direct));
    for (NodeId mid : index.neighbors(from)) {
        if (mid == to)
            continue;
        Route detour{{from, mid, to}};
        if (budget.canTake(detour))
            routes.push_back(std::move(detour));
    }
    return routes;
}

/**
 * Grows one spanning binary tree from @p root, preferring direct
 * edges, consuming @p budget. @p cost is advanced by the hop count of
 * every accepted route. Returns nullopt when the tree cannot span all
 * ranks within the budget.
 */
std::optional<TreeEmbedding>
growTree(const ChannelIndex& index, Budget& budget, int num_ranks,
         NodeId root, util::Rng& rng, int& cost)
{
    BinaryTree tree(num_ranks);
    tree.setRoot(root);
    TreeEmbedding embedding(std::move(tree));

    std::vector<bool> in_tree(static_cast<std::size_t>(num_ranks),
                              false);
    in_tree[static_cast<std::size_t>(root)] = true;
    std::vector<int> arity(static_cast<std::size_t>(num_ranks), 0);
    std::vector<NodeId> frontier{root};
    int placed = 1;

    while (placed < num_ranks) {
        // Collect all feasible (parent, child, route) extensions.
        struct Extension {
            NodeId parent;
            NodeId child;
            Route route;
        };
        std::vector<Extension> extensions;
        for (NodeId parent : frontier) {
            if (arity[static_cast<std::size_t>(parent)] >= 2)
                continue;
            for (NodeId child = 0; child < num_ranks; ++child) {
                if (in_tree[static_cast<std::size_t>(child)])
                    continue;
                for (Route& route :
                     candidateRoutes(index, budget, parent, child)) {
                    extensions.push_back(
                        Extension{parent, child, std::move(route)});
                }
            }
        }
        if (extensions.empty())
            return std::nullopt;
        // Prefer direct routes; among equals pick randomly.
        std::stable_sort(extensions.begin(), extensions.end(),
                         [](const Extension& a, const Extension& b) {
                             return a.route.hopCount() <
                                    b.route.hopCount();
                         });
        const int best_hops = extensions.front().route.hopCount();
        std::size_t pool = 0;
        while (pool < extensions.size() &&
               extensions[pool].route.hopCount() == best_hops) {
            ++pool;
        }
        Extension& pick = extensions[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(pool) - 1))];

        budget.take(pick.route);
        cost += pick.route.hopCount();
        embedding.tree.addEdge(pick.parent, pick.child);
        embedding.routes.push_back(std::move(pick.route));
        in_tree[static_cast<std::size_t>(pick.child)] = true;
        ++arity[static_cast<std::size_t>(pick.parent)];
        frontier.push_back(pick.child);
        ++placed;
    }
    // Routes were appended in insertion order; edges() returns BFS
    // order, so rebuild the route list aligned with edges().
    std::map<std::pair<NodeId, NodeId>, Route> by_edge;
    {
        const auto edges = embedding.tree.edges();
        for (const Route& route : embedding.routes)
            by_edge[{route.hops.front(), route.hops.back()}] = route;
        std::vector<Route> ordered;
        for (const auto& [parent, child] : edges)
            ordered.push_back(by_edge.at({parent, child}));
        embedding.routes = std::move(ordered);
    }
    return embedding;
}

/** One restart: outcome and its total route-hop cost. */
struct AttemptResult {
    std::optional<DoubleTreeEmbedding> embedding;
    int cost = 0;
};

/** RNG stream for one attempt, independent of all other attempts. */
util::Rng
attemptRng(std::uint64_t seed, int attempt)
{
    return util::Rng(
        seed ^ (0x9E3779B97F4A7C15ull *
                (static_cast<std::uint64_t>(attempt) + 1)));
}

AttemptResult
runAttempt(const Graph& graph, const ChannelIndex& index,
           int num_ranks, std::uint64_t seed, int attempt)
{
    AttemptResult result;
    util::Rng rng = attemptRng(seed, attempt);
    Budget budget(index);
    const NodeId root0 =
        static_cast<NodeId>(rng.uniformInt(0, num_ranks - 1));
    NodeId root1 =
        static_cast<NodeId>(rng.uniformInt(0, num_ranks - 1));
    if (root1 == root0)
        root1 = (root1 + 1) % num_ranks;

    int cost = 0;
    auto tree0 = growTree(index, budget, num_ranks, root0, rng, cost);
    if (!tree0)
        return result;
    auto tree1 = growTree(index, budget, num_ranks, root1, rng, cost);
    if (!tree1)
        return result;

    DoubleTreeEmbedding candidate(std::move(*tree0),
                                  std::move(*tree1));
    if (!isConflictFree(graph, candidate))
        return result;
    result.embedding = std::move(candidate);
    result.cost = cost;
    return result;
}

/** Attempts per parallel batch; fixed so results never depend on the
 *  worker count. */
constexpr int kAttemptBatch = 32;

} // namespace

std::optional<DoubleTreeEmbedding>
findConflictFreeDoubleTree(const Graph& graph,
                           const EmbeddingSearchOptions& options)
{
    const int num_ranks =
        options.num_ranks > 0 ? options.num_ranks : graph.nodeCount();
    CCUBE_CHECK(num_ranks >= 2, "need at least two ranks");
    CCUBE_CHECK(num_ranks <= graph.nodeCount(),
                "more ranks than graph nodes");

    const ChannelIndex index(graph);
    sweep::Options pool;
    pool.jobs = options.jobs;
    pool.capture_obs = false; // compute-only; nothing records

    for (int base = 0; base < options.max_attempts;
         base += kAttemptBatch) {
        const int batch =
            std::min(kAttemptBatch, options.max_attempts - base);
        std::vector<AttemptResult> results(
            static_cast<std::size_t>(batch));
        sweep::runIndexed(
            pool, static_cast<std::size_t>(batch),
            [&](std::size_t i) {
                results[i] = runAttempt(graph, index, num_ranks,
                                        options.seed,
                                        base + static_cast<int>(i));
            });
        // Merge in attempt order: cheapest cost, earliest index wins.
        std::optional<DoubleTreeEmbedding> best;
        int best_cost = std::numeric_limits<int>::max();
        for (AttemptResult& result : results) {
            if (result.embedding && result.cost < best_cost) {
                best_cost = result.cost;
                best = std::move(result.embedding);
            }
        }
        if (best)
            return best;
    }
    return std::nullopt;
}

} // namespace topo
} // namespace ccube
