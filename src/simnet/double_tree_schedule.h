#ifndef CCUBE_SIMNET_DOUBLE_TREE_SCHEDULE_H_
#define CCUBE_SIMNET_DOUBLE_TREE_SCHEDULE_H_

/**
 * @file
 * Timed double-tree AllReduce: the paper's baseline B (two-phase) and
 * the C-Cube double tree (overlapped) on a conflict-aware embedding.
 *
 * Each tree carries half the payload concurrently. Under
 * LanePolicy::kPointToPoint tree 0 prefers channel lane 0 and tree 1
 * lane 1, so on double-NVLink pairs the two trees ride private
 * channels; on shared single channels the FIFO resource makes them
 * contend — exactly the behaviour that renders the naive embedding of
 * Fig. 10(a) unable to overlap.
 */

#include "simnet/tree_schedule.h"
#include "topo/double_tree.h"

namespace ccube {
namespace simnet {

/** Channel-lane assignment per tree and direction (see sched::). */
using LanePolicy = sched::LanePolicy;

/**
 * Runs a double-tree AllReduce of @p total_bytes. Global chunk ids:
 * tree 0 carries [0, chunks_per_tree), tree 1 the rest.
 */
ScheduleResult
runDoubleTreeSchedule(sim::Simulation& simulation, Network& network,
                      const topo::DoubleTreeEmbedding& embedding,
                      double total_bytes, PhaseMode mode,
                      int chunks_per_tree,
                      LanePolicy lanes = LanePolicy::kPointToPoint,
                      ccl::Protocol proto = ccl::Protocol::kSimple);

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_DOUBLE_TREE_SCHEDULE_H_
