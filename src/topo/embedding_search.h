#ifndef CCUBE_TOPO_EMBEDDING_SEARCH_H_
#define CCUBE_TOPO_EMBEDDING_SEARCH_H_

/**
 * @file
 * Automated search for conflict-free double-tree embeddings.
 *
 * The paper hand-crafts its DGX-1 embedding (Fig. 10(b,c)); this
 * module automates the construction for arbitrary GPU-to-GPU
 * topologies: find two spanning binary trees (with detours for
 * missing edges) such that, when both run the overlapped algorithm
 * simultaneously, no unidirectional channel is oversubscribed —
 * cross-tree sharing is only allowed where the physical pair has
 * enough parallel links.
 *
 * Randomized-greedy with restarts: trees are grown from random roots
 * by BFS over edges with remaining capacity; detour routes (through
 * one transit GPU) consume capacity on every segment. Each attempt
 * draws from its own RNG stream derived from (seed, attempt), so
 * attempts are independent and the search can fan restarts across
 * the sweep thread pool while staying deterministic: attempts run in
 * fixed batches, the winner is the cheapest (total route hops, then
 * lowest attempt index) success of the earliest batch containing
 * one, and the result is identical for every `jobs` value. Channel
 * budgets are flat arrays indexed by channel id.
 */

#include <optional>

#include "topo/double_tree.h"
#include "topo/graph.h"

namespace ccube {
namespace topo {

/** Search knobs. */
struct EmbeddingSearchOptions {
    int num_ranks = 0;        ///< 0 = all graph nodes are ranks
    int max_attempts = 2000;  ///< randomized restarts
    std::uint64_t seed = 1;   ///< RNG seed (deterministic)
    int jobs = 1;             ///< attempt workers; <=0 = hardware
};

/**
 * Searches for a conflict-free double tree on @p graph. Returns
 * std::nullopt when no embedding was found within the attempt budget
 * (which does not prove none exists).
 */
std::optional<DoubleTreeEmbedding>
findConflictFreeDoubleTree(const Graph& graph,
                           const EmbeddingSearchOptions& options = {});

} // namespace topo
} // namespace ccube

#endif // CCUBE_TOPO_EMBEDDING_SEARCH_H_
