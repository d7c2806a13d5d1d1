#ifndef CCUBE_CCL_PRIMITIVES_H_
#define CCUBE_CCL_PRIMITIVES_H_

/**
 * @file
 * The remaining collective primitives of the mini-NCCL: pipelined
 * tree broadcast, tree reduce, and the ring Reduce-Scatter /
 * AllGather halves — the building blocks the AllReduce algorithms
 * compose (§II-A: "AllReduce often consists of two phases —
 * reduction phase (or ReduceScatter) and broadcast phase (or
 * AllGather)").
 */

#include "ccl/allreduce.h"
#include "ccl/communicator.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace ccl {

/**
 * Pipelined tree broadcast: the root's buffer is sent down the tree
 * in @p num_chunks chunks; on return every rank's buffer equals the
 * root's. Detour edges are serviced by forwarding tasks on the
 * transit ranks.
 */
void treeBroadcast(Communicator& comm, RankBuffers& buffers,
                   const topo::TreeEmbedding& embedding, int num_chunks,
                   FlowId flow = kFlowTree0Broadcast,
                   Protocol proto = Protocol::kSimple);

/**
 * Pipelined tree reduce: every rank's buffer is summed toward the
 * root; on return the root's buffer holds the elementwise sum (other
 * buffers hold partial sums).
 */
void treeReduce(Communicator& comm, RankBuffers& buffers,
                const topo::TreeEmbedding& embedding, int num_chunks,
                FlowId flow = kFlowTree0Reduce,
                Protocol proto = Protocol::kSimple);

/**
 * Ring Reduce-Scatter: after P−1 steps, the rank at ring position i
 * holds the fully reduced slice (i+1) mod P (slice = position chunk).
 */
void ringReduceScatter(Communicator& comm, RankBuffers& buffers,
                       const topo::RingEmbedding& ring,
                       Protocol proto = Protocol::kSimple);

/**
 * Ring AllGather: each position starts owning slice (pos+1) mod P
 * (the Reduce-Scatter postcondition) and circulates it; on return
 * every rank holds every slice.
 */
void ringAllGather(Communicator& comm, RankBuffers& buffers,
                   const topo::RingEmbedding& ring,
                   Protocol proto = Protocol::kSimple);

/** AllReduce algorithm selector for the dispatcher. */
enum class AllReduceAlgorithm {
    kRing,           ///< 2(P−1)-step ring (R)
    kTree,           ///< two-phase single tree
    kOverlappedTree, ///< reduction-broadcast chained single tree (C1)
    kDoubleTree,     ///< two-phase double tree (B)
    kCCubeDoubleTree,///< overlapped double tree (C-Cube)
};

/** Dispatcher options. */
struct AllReduceOptions {
    AllReduceAlgorithm algorithm = AllReduceAlgorithm::kCCubeDoubleTree;
    int num_chunks = 8; ///< per tree for tree algorithms
    /** Wire protocol: kSimple (fenced bulk), kLL (inline flags), or
     *  kAuto — resolved via the ccl::Tuner's model per message size. */
    Protocol protocol = Protocol::kSimple;
    /** Live per-chunk availability callback (gradient-queue hook). */
    AllReduceTrace::Observer observer;
};

/**
 * One-call AllReduce over a physical topology: embeds the logical
 * topology the chosen algorithm needs (Hamiltonian ring, inorder
 * tree with detours, or the conflict-aware double tree) and runs it.
 */
AllReduceTrace allReduce(Communicator& comm, RankBuffers& buffers,
                         const topo::Graph& graph,
                         const AllReduceOptions& options = {});

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_PRIMITIVES_H_
