#ifndef CCUBE_CORE_GRADIENT_QUEUE_H_
#define CCUBE_CORE_GRADIENT_QUEUE_H_

/**
 * @file
 * Gradient queuing (paper §III-D, Fig. 9): the mechanism that chains
 * collective communication with next-iteration forward computation.
 *
 * Components, exactly as in the paper:
 *  - Enqueue Semaphore — points at the last fully reduced chunk that
 *    arrived (a monotonic counter posted by the broadcast phase);
 *  - Gradient Queue — the gradient memory itself, reused in place
 *    thanks to the tree algorithm's in-order property;
 *  - Layer Index Counter (LIC) — the next layer awaiting computation;
 *  - Layer-Chunk Table — last gradient chunk offset of each layer.
 *
 * dequeueLayer(L) blocks (paper's check) until every chunk of layer L
 * has been enqueued, then advances the LIC. Because memory is reused
 * in place, enqueue carries no payload — only the semaphore moves.
 *
 * A collective of several parts (the double tree's two halves) delivers
 * each part's chunks in order, but interleaves the parts, so the queue
 * keeps one enqueue semaphore and one Layer-Chunk Table per program
 * part: a layer dequeues once every part delivered its chunks of it.
 * The enqueue side passes the observer's global chunk id, which picks
 * the part.
 */

#include <atomic>
#include <cstdint>
#include <vector>

#include "ccl/sync_primitives.h"
#include "core/chunk_mapper.h"

namespace ccube {
namespace core {

/**
 * Thread-safe gradient queue for one rank.
 */
class GradientQueue
{
  public:
    /**
     * @param tables  one per program part (ChunkMapper::layerChunkTables),
     *        in ascending first_chunk order, all over the same layers;
     *        each must be non-decreasing.
     */
    explicit GradientQueue(std::vector<LayerChunkTable> tables);

    GradientQueue(const GradientQueue&) = delete;
    GradientQueue& operator=(const GradientQueue&) = delete;

    /** Number of layers in the table. */
    int numLayers() const
    {
        return static_cast<int>(parts_.front().table.bounds.size());
    }

    /**
     * Broadcast side: global chunk @p chunk arrived fully reduced; its
     * part's enqueue semaphore advances. Called by the collective's
     * observer as each chunk lands; a part's chunks must arrive in
     * order.
     */
    void enqueueChunk(int chunk);

    /**
     * Compute side: block until layer @p layer is fully enqueued, then
     * advance the Layer Index Counter. Layers must be dequeued in
     * order — forward computation is in-order (Observation #3).
     */
    void dequeueLayer(int layer);

    /** Non-blocking dequeue; true when the layer was ready. */
    bool tryDequeueLayer(int layer);

    /** Current value of the Layer Index Counter. */
    int layerIndexCounter() const
    {
        return lic_.load(std::memory_order_acquire);
    }

    /** Chunks enqueued so far over all parts (Enqueue Semaphores). */
    std::int64_t enqueued() const;

    /** Resets the semaphores and LIC for the next iteration. */
    void resetIteration();

  private:
    struct Part {
        LayerChunkTable table;
        ccl::CheckableCounter enqueue_semaphore;
    };

    /** The bound of @p layer in @p part (layer checked). */
    std::int64_t bound(const Part& part, int layer) const;

    std::vector<Part> parts_;
    std::atomic<int> lic_{0};
};

} // namespace core
} // namespace ccube

#endif // CCUBE_CORE_GRADIENT_QUEUE_H_
