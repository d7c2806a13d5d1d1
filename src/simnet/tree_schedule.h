#ifndef CCUBE_SIMNET_TREE_SCHEDULE_H_
#define CCUBE_SIMNET_TREE_SCHEDULE_H_

/**
 * @file
 * Timed tree AllReduce (baseline and overlapped).
 *
 * Per-chunk pipeline over an embedded tree: leaves stream chunks up;
 * interior nodes reduce and forward; the root either waits for the
 * full reduction (two-phase baseline, Fig. 7(a)) or chains each chunk
 * straight into its broadcast (overlapped, Fig. 7(b)). The schedule
 * is sched::treeProgram run by simnet::ProgramDriver.
 */

#include <vector>

#include "simnet/program_driver.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace simnet {

/**
 * Runs one tree AllReduce of @p total_bytes in @p num_chunks chunks to
 * completion. @p up_lane is the parallel-channel preference for
 * reduction sends (child → parent), @p down_lane for broadcast sends
 * (−1: same as up); on shared-port fabrics a separate lane keeps the
 * broadcast of early chunks from queuing behind reduction traffic.
 */
ScheduleResult runTreeSchedule(sim::Simulation& simulation,
                               Network& network,
                               const topo::TreeEmbedding& embedding,
                               double total_bytes, PhaseMode mode,
                               int num_chunks, int up_lane = 0,
                               int down_lane = -1,
                               ccl::Protocol proto =
                                   ccl::Protocol::kSimple);

/**
 * The physical channel ids a tree schedule on @p embedding occupies in
 * one direction, replicating the engine's lane selection exactly
 * (channelIds(a, b) indexed by @p lane clamped to the parallel-channel
 * count). @p down selects broadcast-direction (parent → child) routes;
 * false selects reduction-direction (child → parent). Sorted, deduped.
 * Channels inside switch cut-through runs are included even though the
 * engine models them as pure delay; analyzers that skip traffic-less
 * channels are unaffected.
 */
std::vector<int> treeChannelIds(const topo::Graph& graph,
                                const topo::TreeEmbedding& embedding,
                                int lane, bool down);

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_TREE_SCHEDULE_H_
