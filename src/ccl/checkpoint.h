#ifndef CCUBE_CCL_CHECKPOINT_H_
#define CCUBE_CCL_CHECKPOINT_H_

/**
 * @file
 * Chunk-granularity checkpointing for retried collectives.
 *
 * When a collective aborts (watchdog, dead rank) and the supervisor
 * retries it, redoing the whole message wastes the chunks that already
 * finished. The invariant that makes partial resume sound: a rank
 * records a chunk into the AllReduceTrace only when its buffer slice
 * holds the final reduced value, and no algorithm writes a slice after
 * recording it. So a chunk recorded by EVERY rank is globally final —
 * the retry can skip it on all ranks via ccl::SkipMask.
 *
 * Chunks NOT fully recorded may hold partial sums (recvReduce
 * accumulates in place), so the checkpoint snapshots the original
 * inputs at begin() and restoreIncomplete() rewrites every unfinished
 * slice before a retry. The done bitmap lives outside the communicator
 * and therefore survives clearAbort().
 *
 * Geometry: begin() takes the program the collective runs and reads
 * each chunk's slice from Program::geometry — the same ranges the
 * interpreter moves — so the mask and the restored slices match the
 * run by construction. A mask is only valid for that program: on a
 * recovery-ladder rung change the supervisor must restoreAll() and
 * begin() a fresh checkpoint from the new program — re-running an
 * allreduce over already-final chunks would multiply them by P.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ccl/allreduce.h"

namespace ccube {
namespace ccl {

/**
 * Per-chunk completion bitmap + input snapshot of one supervised
 * collective across retries. Thread-safe on the record path (the
 * observer is invoked concurrently from every rank); begin/restore/
 * rearm are caller-serialized between runs.
 */
class ChunkCheckpoint
{
  public:
    ChunkCheckpoint() = default;
    ChunkCheckpoint(const ChunkCheckpoint&) = delete;
    ChunkCheckpoint& operator=(const ChunkCheckpoint&) = delete;

    /** Arms the checkpoint for one run of @p program over @p buffers
     *  (one per program rank, equal length — both checked): snapshots
     *  the inputs and zeroes the bitmap. Any previous state is
     *  discarded. */
    void begin(const RankBuffers& buffers, const sched::Program& program);

    /** Whether begin() armed the checkpoint. */
    bool active() const { return num_ranks_ > 0; }

    int numChunks() const { return static_cast<int>(geometry_.size()); }

    /**
     * Observer to install on the collective (chains to @p downstream
     * when set): counts per-chunk completions and commits a chunk once
     * every rank recorded it. Safe to install across retries; a
     * skipped (already-done) chunk is simply never re-recorded.
     */
    AllReduceTrace::Observer
    observer(AllReduceTrace::Observer downstream = {});

    /** Whether chunk @p chunk is committed (final at every rank). */
    bool done(int chunk) const;

    /** Committed chunks so far. */
    int doneCount() const;

    /** True once every chunk is committed. */
    bool complete() const;

    /** The skip mask a retry of the SAME geometry passes back into the
     *  algorithm entry points. */
    SkipMask mask() const;

    /**
     * Rewrites every UNFINISHED chunk's slice of every rank from the
     * input snapshot — mandatory before a same-geometry retry, since
     * an aborted run leaves partial sums in unfinished slices.
     */
    void restoreIncomplete(RankBuffers& buffers) const;

    /** Rewrites every rank's whole buffer from the snapshot (used
     *  before a geometry/rung change, which invalidates the bitmap). */
    void restoreAll(RankBuffers& buffers) const;

    /**
     * Re-arms per-chunk completion counters for a same-geometry retry:
     * counters of unfinished chunks reset to zero (their partial
     * records from the aborted run are void once restoreIncomplete()
     * rewrote the data); committed chunks stay committed.
     */
    void rearm();

    /** Drops all state (inactive until the next begin()). */
    void reset();

  private:
    int num_ranks_ = 0;
    std::vector<sched::ChunkRange<std::size_t>> geometry_;
    RankBuffers snapshot_;
    /** Per-chunk count of ranks that recorded it this run. */
    std::unique_ptr<std::atomic<int>[]> counts_;
    /** Per-chunk committed flag (sticky across retries). */
    std::unique_ptr<std::atomic<std::uint8_t>[]> done_;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_CHECKPOINT_H_
