#ifndef CCUBE_CCL_RING_ALLREDUCE_H_
#define CCUBE_CCL_RING_ALLREDUCE_H_

/**
 * @file
 * Functional ring AllReduce (the paper's baseline R).
 *
 * Classic two-phase ring: P−1 Reduce-Scatter steps followed by P−1
 * AllGather steps, with the message split into P chunks (paper
 * Fig. 5(b)). Chunks complete out of order across ranks — the reason
 * gradient queuing cannot chain a ring collective with computation.
 */

#include "ccl/allreduce.h"
#include "ccl/communicator.h"
#include "topo/ring_embedding.h"

namespace ccube {
namespace ccl {

/**
 * Runs ring AllReduce over @p buffers (one per rank, equal length).
 * On return every buffer holds the elementwise sum. @p ring gives the
 * logical rank order; buffers are indexed by rank id. @p proto picks
 * the mailbox wire protocol (LL or Simple) for every hop.
 */
AllReduceTrace ringAllReduce(Communicator& comm, RankBuffers& buffers,
                             const topo::RingEmbedding& ring,
                             AllReduceTrace::Observer observer = {},
                             Protocol proto = Protocol::kSimple);

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_RING_ALLREDUCE_H_
