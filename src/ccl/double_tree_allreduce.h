#ifndef CCUBE_CCL_DOUBLE_TREE_ALLREDUCE_H_
#define CCUBE_CCL_DOUBLE_TREE_ALLREDUCE_H_

/**
 * @file
 * Functional double-tree AllReduce (Sanders et al. two-tree, as used
 * by NCCL) — the paper's baseline B when run two-phase, and the
 * C-Cube double tree when run overlapped on a conflict-free embedding
 * (paper Fig. 6(b) vs Fig. 6(d)).
 *
 * The message is split in half; each half is all-reduced over its own
 * tree, concurrently. Chunk ids: tree 0 carries chunks
 * [0, chunks_per_tree), tree 1 carries [chunks_per_tree, 2×...).
 */

#include "ccl/tree_allreduce.h"
#include "topo/double_tree.h"

namespace ccube {
namespace ccl {

/**
 * Runs double-tree AllReduce over @p buffers. @p chunks_per_tree
 * chunks are used within each tree. On return every buffer holds the
 * elementwise sum.
 */
AllReduceTrace
doubleTreeAllReduce(Communicator& comm, RankBuffers& buffers,
                    const topo::DoubleTreeEmbedding& embedding,
                    int chunks_per_tree, TreePhaseMode mode,
                    AllReduceTrace::Observer observer = {},
                    Protocol proto = Protocol::kSimple);

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_DOUBLE_TREE_ALLREDUCE_H_
