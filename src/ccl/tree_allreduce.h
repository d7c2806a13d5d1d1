#ifndef CCUBE_CCL_TREE_ALLREDUCE_H_
#define CCUBE_CCL_TREE_ALLREDUCE_H_

/**
 * @file
 * Functional tree AllReduce: baseline (two-phase) and overlapped (C1).
 *
 * Baseline (paper Fig. 5(a)): pipelined reduction up the tree, and
 * only after the full reduction completes does the pipelined broadcast
 * descend. Overlapped (Fig. 5(c), §III-C): a chunk starts its
 * broadcast the moment it is fully reduced at the root, using the
 * otherwise-idle downlinks (Observations #1 and #2).
 *
 * Detour edges of the embedding are serviced by forwarder threads on
 * the transit ranks — the analog of the paper's static forwarding
 * kernels (§IV-A).
 */

#include "ccl/allreduce.h"
#include "ccl/communicator.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace ccl {

/** Phase organisation of the tree algorithm (see sched::). */
using TreePhaseMode = sched::PhaseMode;

/**
 * Runs tree AllReduce over @p buffers (one per rank, equal length,
 * indexed by rank id) split into @p num_chunks chunks. On return every
 * buffer holds the elementwise sum. The tree runs on the tree-0
 * flows (kFlowTree0Reduce / kFlowTree0Broadcast).
 */
AllReduceTrace treeAllReduce(Communicator& comm, RankBuffers& buffers,
                             const topo::TreeEmbedding& embedding,
                             int num_chunks, TreePhaseMode mode,
                             AllReduceTrace::Observer observer = {},
                             Protocol proto = Protocol::kSimple);

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_TREE_ALLREDUCE_H_
