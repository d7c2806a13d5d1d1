#ifndef CCUBE_SIMNET_COLLECTIVE_SCHEDULE_H_
#define CCUBE_SIMNET_COLLECTIVE_SCHEDULE_H_

/**
 * @file
 * Common types for timed collective schedules.
 *
 * A schedule drives chunk transfers over a Network and records, per
 * rank and per chunk, when the fully reduced chunk became available —
 * the raw material for both the communication-performance figures
 * (Fig. 12/14) and the gradient-queue feed of the C-Cube iteration
 * scheduler (Fig. 13).
 */

#include <vector>

#include "sched/program.h"

namespace ccube {
namespace simnet {

/** Outcome of one timed collective run. */
struct ScheduleResult {
    /** Number of global chunks. */
    int num_chunks = 0;

    /** Time the whole collective finished (all chunks, all ranks). */
    double completion_time = 0.0;

    /**
     * chunk_at_rank[r][k]: time chunk k became available at rank r
     * (fully reduced value).
     */
    std::vector<std::vector<double>> chunk_at_rank;

    /** chunk_ready[k]: time chunk k was available at *every* rank. */
    std::vector<double> chunk_ready;

    /** geometry[k]: the part and byte range of chunk k — the run's
     *  Program::geometry, which core::ChunkMapper is built from. */
    std::vector<sched::ChunkRange<double>> geometry;

    /**
     * Gradient turnaround time (paper §III-C): when the first chunk
     * finished the collective — the earliest entry of chunk_ready.
     */
    double turnaroundTime() const;

    /** Effective algorithm bandwidth for a payload of @p bytes. */
    double effectiveBandwidth(double bytes) const;
};

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_COLLECTIVE_SCHEDULE_H_
