#include "topo/switch_fabric.h"

#include <string>

#include "util/logging.h"

namespace ccube {
namespace topo {

Graph
makeSwitchFabric(const SwitchFabricParams& params)
{
    CCUBE_CHECK(params.num_nodes >= 2, "fabric needs at least two nodes");
    CCUBE_CHECK(params.leaf_radix >= 2, "leaf radix must be at least 2");

    Graph graph("switch_fabric");
    for (int n = 0; n < params.num_nodes; ++n)
        graph.addNode(std::string("N").append(std::to_string(n)));

    const int num_leaves =
        (params.num_nodes + params.leaf_radix - 1) / params.leaf_radix;

    std::vector<NodeId> leaves;
    for (int l = 0; l < num_leaves; ++l) {
        const NodeId leaf = graph.addNode("Leaf" + std::to_string(l));
        graph.markSwitch(leaf);
        leaves.push_back(leaf);
    }

    CCUBE_CHECK(params.links_per_node >= 1,
                "need at least one endpoint link");
    for (int n = 0; n < params.num_nodes; ++n) {
        const NodeId leaf =
            leaves[static_cast<std::size_t>(n / params.leaf_radix)];
        for (int l = 0; l < params.links_per_node; ++l) {
            graph.addLink(n, leaf, params.link_bandwidth,
                          params.link_latency + params.switch_latency,
                          LinkKind::kNvlink);
        }
    }

    if (num_leaves > 1) {
        const NodeId spine = graph.addNode("Spine");
        graph.markSwitch(spine);
        for (NodeId leaf : leaves) {
            // Widened uplinks: the spine is non-blocking; one uplink
            // per lane so per-lane flows stay independent.
            for (int l = 0; l < params.links_per_node; ++l) {
                graph.addLink(leaf, spine,
                              params.link_bandwidth * params.leaf_radix,
                              params.link_latency +
                                  params.switch_latency,
                              LinkKind::kNvlink);
            }
        }
    }
    return graph;
}

int
fabricHopCount(const SwitchFabricParams& params, NodeId a, NodeId b)
{
    CCUBE_CHECK(a >= 0 && a < params.num_nodes, "bad endpoint " << a);
    CCUBE_CHECK(b >= 0 && b < params.num_nodes, "bad endpoint " << b);
    if (a == b)
        return 0;
    const int leaf_a = a / params.leaf_radix;
    const int leaf_b = b / params.leaf_radix;
    return leaf_a == leaf_b ? 2 : 4;
}

} // namespace topo
} // namespace ccube
