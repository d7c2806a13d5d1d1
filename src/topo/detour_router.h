#ifndef CCUBE_TOPO_DETOUR_ROUTER_H_
#define CCUBE_TOPO_DETOUR_ROUTER_H_

/**
 * @file
 * Static detour forwarding rules (§IV-A).
 *
 * The paper implements detour routes as dedicated CUDA kernels that
 * statically forward data through an intermediate GPU — one kernel per
 * direction. This header extracts those forwarding rules from a tree
 * embedding so that (a) the GPU model can charge the SM tax on transit
 * nodes (Fig. 15) and (b) tests can verify detours never touch the
 * host (DESIGN.md invariant #7).
 */

#include <vector>

#include "topo/double_tree.h"
#include "topo/graph.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace topo {

/** Direction of a collective phase along a tree edge. */
enum class PhaseDirection {
    kReduction, ///< child → parent (up the tree)
    kBroadcast, ///< parent → child (down the tree)
};

/**
 * One static forwarding rule: @p transit receives from @p upstream and
 * forwards to @p downstream on behalf of tree @p tree_index during the
 * given phase. Maps 1:1 onto the paper's per-direction forwarding
 * kernels.
 */
struct ForwardingRule {
    NodeId transit = kInvalidNode;
    NodeId upstream = kInvalidNode;
    NodeId downstream = kInvalidNode;
    int tree_index = 0;
    PhaseDirection phase = PhaseDirection::kReduction;

    bool
    operator==(const ForwardingRule& other) const
    {
        return transit == other.transit && upstream == other.upstream &&
               downstream == other.downstream &&
               tree_index == other.tree_index && phase == other.phase;
    }
};

/**
 * Extracts the forwarding rules of a single embedded tree: one per
 * direction per rank transit (isRankTransit, with the tree's node
 * count as the rank count). Switch hops forward in hardware and get
 * no rule.
 */
std::vector<ForwardingRule>
extractForwardingRules(const TreeEmbedding& embedding, int tree_index);

/** Extracts forwarding rules from both trees of a double tree. */
std::vector<ForwardingRule>
extractForwardingRules(const DoubleTreeEmbedding& embedding);

/** Distinct transit nodes appearing in @p rules. */
std::vector<NodeId> transitNodes(const std::vector<ForwardingRule>& rules);

/**
 * True when every route in the embedding uses NVLink channels only
 * (never the host / PCIe), segment by segment.
 */
bool routesAvoidHost(const Graph& graph, const TreeEmbedding& embedding);

} // namespace topo
} // namespace ccube

#endif // CCUBE_TOPO_DETOUR_ROUTER_H_
