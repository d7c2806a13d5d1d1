#ifndef CCUBE_SIMNET_DOUBLE_TREE_SCHEDULE_H_
#define CCUBE_SIMNET_DOUBLE_TREE_SCHEDULE_H_

/**
 * @file
 * A per-algorithm simnet:: wrapper and two aliases left. Everything
 * else builds the program with sched::doubleTreeProgram, calls
 * runProgram and spells sched::PhaseMode and sched::LanePolicy.
 */

#include "simnet/program_driver.h"
#include "topo/double_tree.h"

namespace ccube {
namespace simnet {

/** Remains for perfbench/perf_ladder until the next [benchmark] change. */
using PhaseMode = sched::PhaseMode;

/** Remains for perfbench/perf_ladder until the next [benchmark] change. */
using LanePolicy = sched::LanePolicy;

/** Remains for perfbench/perf_ladder until the next [benchmark] change:
 *  runProgram(doubleTreeProgram(@p embedding, @p mode,
 *  @p chunks_per_tree, @p lanes), @p proto). */
inline ScheduleResult
runDoubleTreeSchedule(sim::Simulation& simulation, Network& network,
                      const topo::DoubleTreeEmbedding& embedding,
                      double total_bytes, PhaseMode mode,
                      int chunks_per_tree,
                      LanePolicy lanes = LanePolicy::kPointToPoint,
                      ccl::Protocol proto = ccl::Protocol::kSimple)
{
    return runProgram(simulation, network,
                      sched::doubleTreeProgram(embedding, mode,
                                               chunks_per_tree, lanes),
                      total_bytes, proto);
}

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_DOUBLE_TREE_SCHEDULE_H_
