#ifndef CCUBE_CCL_ALLREDUCE_H_
#define CCUBE_CCL_ALLREDUCE_H_

/**
 * @file
 * Shared types for the functional AllReduce implementations.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "ccl/sync_primitives.h"
#include "sched/program.h"

namespace ccube {
namespace ccl {

/** One gradient buffer per rank; all must have equal length. */
using RankBuffers = std::vector<std::vector<float>>;

/**
 * Order in which fully reduced chunks became available at each rank.
 *
 * The tree algorithm's in-order property (paper Observation #3) —
 * chunks complete in index order at every rank — is what makes
 * gradient queuing possible; the ring algorithm violates it. Tests
 * assert both directions from this trace.
 */
class AllReduceTrace
{
  public:
    /** Live notification: chunk became available at rank. */
    using Observer = std::function<void(int rank, int chunk)>;

    /**
     * Creates a trace for @p num_ranks ranks. @p observer, when set, is
     * invoked on every record() — the hook gradient queuing attaches
     * its enqueue to — after the per-rank lock is released, so it may
     * run concurrently for different ranks and must be thread-safe.
     */
    explicit AllReduceTrace(int num_ranks, Observer observer = {});

    /** Records that @p chunk became available at @p rank (thread-safe
     *  across the concurrent tasks of a single rank). */
    void record(int rank, int chunk);

    /** Completion order at @p rank. */
    const std::vector<int>& order(int rank) const;

    /** True when every rank saw chunks in ascending index order. */
    bool inOrder() const;

  private:
    struct PerRank {
        SpinLock lock;
        std::vector<int> order;
    };
    std::vector<PerRank> per_rank_;
    Observer observer_;
};

/**
 * Per-chunk skip mask for resumed collectives (global chunk ids; see
 * sched::SkipMask and ccl::ChunkCheckpoint), set on the copy of the
 * program a resumed run executes.
 */
using SkipMask = sched::SkipMask;

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_ALLREDUCE_H_
