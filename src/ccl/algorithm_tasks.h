#ifndef CCUBE_CCL_ALGORITHM_TASKS_H_
#define CCUBE_CCL_ALGORITHM_TASKS_H_

/**
 * @file
 * RankTask builders for the collective algorithms — the one
 * implementation of every collective. primitives.cpp,
 * ring_allreduce.cpp, tree_allreduce.cpp and double_tree_allreduce.cpp
 * validate their arguments, build a task set here and hand it to
 * Communicator::runTasks(), which drives it on the persistent rank
 * threads or the shared pool (ccl/state_machine.h).
 *
 * Every builder constructs the complete task set of one collective up
 * front: one task per rank role (ring body; tree reducer/broadcaster;
 * the second tree of a double tree) plus one ForwardTask per detour
 * forwarding rule. Mailbox plans are resolved at build time, so the
 * chunk loops touch no registry and no routes.
 *
 * Protocol fidelity: each task performs the Fig. 11 post/wait sequence
 * with a fixed reduction order over children and fixed chunk tags, and
 * calls Mailbox::noteOpBegin() once per logical op, so float results
 * are byte-identical across engines and FaultInjector at-op indices do
 * not depend on scheduling.
 *
 * Wire protocol: every builder takes a ccl::Protocol. Under kLL the
 * mailbox never posts a semaphore, so a task cannot park on one — a
 * failed LL try* op returns StepContext::retryLater() instead of
 * registering a waiter that would never be woken.
 */

#include <memory>
#include <vector>

#include "ccl/allreduce.h"
#include "ccl/communicator.h"
#include "ccl/state_machine.h"
#include "ccl/tree_allreduce.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace ccl {

/** Which phases of the ring protocol the tasks execute. */
enum class RingPhase {
    kReduceScatter, ///< ringReduceScatter primitive
    kAllGather,     ///< ringAllGather primitive
    kAllReduce,     ///< full AllReduce (RS + AG, completion recorded)
};

/**
 * One task per rank running the ring body. @p trace is recorded only
 * for RingPhase::kAllReduce (may be null otherwise). @p resume skips
 * chunks already final at every rank (see ccl::ChunkCheckpoint); every
 * task copies the mask, so the caller's may go out of scope.
 */
std::vector<std::unique_ptr<RankTask>>
buildRingTasks(Communicator& comm, RankBuffers& buffers,
               const topo::RingEmbedding& ring, RingPhase phase,
               AllReduceTrace* trace,
               Protocol proto = Protocol::kSimple,
               const SkipMask& resume = {});

/** Which direction(s) of the tree protocol the tasks execute. */
enum class TreeDirection {
    kReduce,    ///< treeReduce primitive (up only)
    kBroadcast, ///< treeBroadcast primitive (down only)
    kAllReduce, ///< full AllReduce (reduction chained into broadcast)
};

/**
 * Appends the task set of one tree instance operating on the buffer
 * region [region_offset, region_offset + region_size) of every rank:
 * per-rank tree tasks (two per non-root rank in overlapped mode — the
 * concurrent reducer/broadcaster pipelines) plus forwarders for the
 * embedding's detour rules. Chunk ids recorded into @p trace (when
 * non-null, kAllReduce only) are offset by @p chunk_id_offset;
 * @p label names the main tree tasks in watchdog blame ("tree0",
 * "tree1", ...; a string literal, stored by pointer). The one-
 * direction primitives pass the same flow for both TreeFlowIds slots.
 * @p resume (consulted at global ids, i.e. after adding
 * @p chunk_id_offset) drops already-final chunks from every pipeline
 * and forwarder of this tree.
 */
void appendTreeTasks(std::vector<std::unique_ptr<RankTask>>& out,
                     Communicator& comm, RankBuffers& buffers,
                     const topo::TreeEmbedding& embedding,
                     std::size_t region_offset,
                     std::size_t region_size, const ChunkSplit& split,
                     TreePhaseMode mode, TreeFlowIds flows,
                     TreeDirection direction, AllReduceTrace* trace,
                     int chunk_id_offset, const char* label,
                     Protocol proto = Protocol::kSimple,
                     const SkipMask& resume = {});

/**
 * Full double-tree AllReduce task set: tree0 over the lower buffer
 * half, tree1 over the upper, with the standard flow-id split.
 */
std::vector<std::unique_ptr<RankTask>>
buildDoubleTreeTasks(Communicator& comm, RankBuffers& buffers,
                     const topo::DoubleTreeEmbedding& embedding,
                     int chunks_per_tree, TreePhaseMode mode,
                     AllReduceTrace& trace,
                     Protocol proto = Protocol::kSimple,
                     const SkipMask& resume = {});

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_ALGORITHM_TASKS_H_
