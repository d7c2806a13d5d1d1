#ifndef CCUBE_CCL_ALLREDUCE_H_
#define CCUBE_CCL_ALLREDUCE_H_

/**
 * @file
 * Shared types for the functional AllReduce implementations.
 */

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ccl/sync_primitives.h"

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

    /** Creates a trace for @p num_ranks ranks. */
    explicit AllReduceTrace(int num_ranks);

    /**
     * Installs a live observer invoked on every record() — the hook
     * gradient queuing attaches its enqueue to. Must be set before
     * the collective starts; invoked under the per-rank lock.
     */
    void setObserver(Observer observer);

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
 * Immutable per-chunk skip mask for resumed collectives: chunk c is
 * skipped by every rank when done(c) — its final reduced value is
 * already present in every rank's buffer (ccl::ChunkCheckpoint commits
 * a chunk only once all ranks recorded it). The mask is consulted at
 * GLOBAL chunk ids (the ids AllReduceTrace records, i.e. including any
 * per-tree chunk_id_offset). A default-constructed mask skips nothing,
 * so every algorithm entry point takes one with zero overhead on the
 * healthy path. Skipping is consistent across ranks because every rank
 * consults the same immutable mask with the same chunk-id formulas the
 * mailbox matching already relies on.
 */
class SkipMask
{
  public:
    SkipMask() = default;

    explicit SkipMask(std::vector<std::uint8_t> done)
        : done_(std::move(done))
    {
    }

    /** Whether any chunk is marked done (fast reject). */
    bool any() const
    {
        for (std::uint8_t bit : done_) {
            if (bit != 0)
                return true;
        }
        return false;
    }

    /** Whether chunk @p chunk should be skipped. Ids outside the mask
     *  are never skipped (a fresh run with an empty mask). */
    bool done(int chunk) const
    {
        return chunk >= 0 &&
               static_cast<std::size_t>(chunk) < done_.size() &&
               done_[static_cast<std::size_t>(chunk)] != 0;
    }

    /** Count of done chunks. */
    int doneCount() const
    {
        int count = 0;
        for (std::uint8_t bit : done_)
            count += bit != 0 ? 1 : 0;
        return count;
    }

  private:
    std::vector<std::uint8_t> done_;
};

/**
 * Splits [0, total) into @p chunks half-open subranges of near-equal
 * size; chunk c covers [begin(c), end(c)).
 */
class ChunkSplit
{
  public:
    ChunkSplit(std::size_t total, int chunks);

    std::size_t begin(int chunk) const;
    std::size_t end(int chunk) const;
    int count() const { return chunks_; }

    /** Subspan of @p buffer covering chunk @p chunk. */
    std::span<float> slice(std::span<float> buffer, int chunk) const;
    std::span<const float>
    slice(std::span<const float> buffer, int chunk) const;

  private:
    std::size_t total_;
    int chunks_;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_ALLREDUCE_H_
