#ifndef CCUBE_SIMNET_RING_SCHEDULE_H_
#define CCUBE_SIMNET_RING_SCHEDULE_H_

/**
 * @file
 * Timed ring AllReduce (the paper's R baseline).
 *
 * 2(P−1) steps of neighbor exchange with N/P-byte chunks; each rank
 * advances to step s+1 once its step-s send has drained and its step-s
 * chunk has arrived. Matches Eq. (2) on uniform links while capturing
 * skew on non-uniform routes (e.g. switch fabrics). The schedule is
 * sched::ringProgram run by simnet::ProgramDriver.
 */

#include "simnet/program_driver.h"
#include "topo/ring_embedding.h"

namespace ccube {
namespace simnet {

/** Runs one ring AllReduce to completion; chunk k is the slice owned
 *  by ring position k. */
ScheduleResult runRingSchedule(sim::Simulation& simulation,
                               Network& network,
                               const topo::RingEmbedding& ring,
                               double total_bytes,
                               ccl::Protocol proto =
                                   ccl::Protocol::kSimple);

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_RING_SCHEDULE_H_
