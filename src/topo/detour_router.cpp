#include "topo/detour_router.h"

#include <algorithm>

namespace ccube {
namespace topo {

std::vector<ForwardingRule>
extractForwardingRules(const TreeEmbedding& embedding, int tree_index)
{
    const int num_ranks = embedding.tree.numNodes();
    std::vector<ForwardingRule> rules;
    for (const Route& route : embedding.routes) {
        // route.hops runs parent → child. Broadcast follows it
        // forward; reduction runs the reversed route.
        for (std::size_t i = 1; i + 1 < route.hops.size(); ++i) {
            if (!isRankTransit(route.hops[i], num_ranks))
                continue; // a switch forwards in hardware
            rules.push_back(ForwardingRule{
                route.hops[i], route.hops[i - 1], route.hops[i + 1],
                tree_index, PhaseDirection::kBroadcast});
            rules.push_back(ForwardingRule{
                route.hops[i], route.hops[i + 1], route.hops[i - 1],
                tree_index, PhaseDirection::kReduction});
        }
    }
    return rules;
}

std::vector<ForwardingRule>
extractForwardingRules(const DoubleTreeEmbedding& embedding)
{
    std::vector<ForwardingRule> rules =
        extractForwardingRules(embedding.tree0, 0);
    const std::vector<ForwardingRule> tree1 =
        extractForwardingRules(embedding.tree1, 1);
    rules.insert(rules.end(), tree1.begin(), tree1.end());
    return rules;
}

std::vector<NodeId>
transitNodes(const std::vector<ForwardingRule>& rules)
{
    std::vector<NodeId> nodes;
    for (const ForwardingRule& rule : rules) {
        if (std::find(nodes.begin(), nodes.end(), rule.transit) ==
            nodes.end()) {
            nodes.push_back(rule.transit);
        }
    }
    std::sort(nodes.begin(), nodes.end());
    return nodes;
}

bool
routesAvoidHost(const Graph& graph, const TreeEmbedding& embedding)
{
    for (const Route& route : embedding.routes) {
        for (std::size_t i = 0; i + 1 < route.hops.size(); ++i) {
            bool has_nvlink = false;
            for (int id : graph.channelIds(route.hops[i],
                                           route.hops[i + 1])) {
                if (graph.channel(id).kind == LinkKind::kNvlink)
                    has_nvlink = true;
            }
            if (!has_nvlink)
                return false;
        }
    }
    return true;
}

} // namespace topo
} // namespace ccube
