#include "core/gradient_queue.h"

#include "util/logging.h"

namespace ccube {
namespace core {

GradientQueue::GradientQueue(std::vector<LayerChunkTable> tables)
    : parts_(tables.size())
{
    CCUBE_CHECK(!tables.empty(), "empty layer-chunk table list");
    const std::size_t layers = tables[0].bounds.size();
    for (std::size_t p = 0; p < tables.size(); ++p) {
        const std::vector<std::int64_t>& bounds = tables[p].bounds;
        CCUBE_CHECK(!bounds.empty(),
                    "layer-chunk table must not be empty");
        CCUBE_CHECK(bounds.size() == layers,
                    "per-part tables must have the same layer count");
        CCUBE_CHECK(p == 0 ||
                        tables[p].first_chunk > tables[p - 1].first_chunk,
                    "parts must be in ascending chunk order");
        for (std::size_t i = 1; i < bounds.size(); ++i) {
            CCUBE_CHECK(bounds[i] >= bounds[i - 1],
                        "layer-chunk table must be non-decreasing");
        }
        parts_[p].table = std::move(tables[p]);
    }
}

void
GradientQueue::enqueueChunk(int chunk)
{
    // The chunk's part: the last one starting at or below it.
    Part* part = nullptr;
    for (Part& p : parts_) {
        if (p.table.first_chunk <= chunk)
            part = &p;
    }
    CCUBE_CHECK(part != nullptr, "chunk " << chunk << " is in no part");
    const std::int64_t local = chunk - part->table.first_chunk;
    // One thread delivers a part's chunks, so the read is not racy.
    CCUBE_CHECK(local == part->enqueue_semaphore.value(),
                "chunk " << chunk << " enqueued out of order");
    CCUBE_CHECK(local < part->table.bounds.back(),
                "more chunks enqueued than the table expects");
    part->enqueue_semaphore.post();
}

void
GradientQueue::dequeueLayer(int layer)
{
    CCUBE_CHECK(layer == layerIndexCounter(),
                "layers must be dequeued in order: asked for "
                    << layer << ", LIC is " << layerIndexCounter());
    // Paper's check(): wait until each enqueue semaphore reaches this
    // layer's last chunk offset from its Layer-Chunk Table.
    for (const Part& part : parts_)
        part.enqueue_semaphore.check(bound(part, layer));
    lic_.store(layer + 1, std::memory_order_release);
}

bool
GradientQueue::tryDequeueLayer(int layer)
{
    CCUBE_CHECK(layer == layerIndexCounter(),
                "layers must be dequeued in order");
    for (const Part& part : parts_) {
        if (!part.enqueue_semaphore.checkNow(bound(part, layer)))
            return false;
    }
    lic_.store(layer + 1, std::memory_order_release);
    return true;
}

std::int64_t
GradientQueue::enqueued() const
{
    std::int64_t total = 0;
    for (const Part& part : parts_)
        total += part.enqueue_semaphore.value();
    return total;
}

std::int64_t
GradientQueue::bound(const Part& part, int layer) const
{
    CCUBE_CHECK(layer >= 0 && layer < numLayers(),
                "bad layer index " << layer);
    return part.table.bounds[static_cast<std::size_t>(layer)];
}

void
GradientQueue::resetIteration()
{
    CCUBE_CHECK(layerIndexCounter() == numLayers() ||
                    layerIndexCounter() == 0,
                "reset mid-iteration");
    for (Part& part : parts_)
        part.enqueue_semaphore.reset();
    lic_.store(0, std::memory_order_release);
}

} // namespace core
} // namespace ccube
