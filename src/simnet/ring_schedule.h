#ifndef CCUBE_SIMNET_RING_SCHEDULE_H_
#define CCUBE_SIMNET_RING_SCHEDULE_H_

/**
 * @file
 * A per-algorithm simnet:: wrapper left. Everything else builds the
 * program with sched::ringProgram and calls runProgram.
 */

#include "simnet/program_driver.h"
#include "topo/ring_embedding.h"

namespace ccube {
namespace simnet {

/** Remains for perfbench/perf_ladder until the next [benchmark] change:
 *  runProgram(ringProgram(@p ring, kAllReduce), @p proto). */
inline ScheduleResult
runRingSchedule(sim::Simulation& simulation, Network& network,
                const topo::RingEmbedding& ring, double total_bytes,
                ccl::Protocol proto = ccl::Protocol::kSimple)
{
    return runProgram(simulation, network,
                      sched::ringProgram(ring, sched::RingPhase::kAllReduce),
                      total_bytes, proto);
}

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_RING_SCHEDULE_H_
