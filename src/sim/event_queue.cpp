#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace ccube {
namespace sim {

namespace {

constexpr std::size_t kArity = 4;
constexpr int kSeqBits = 48;
constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << kSeqBits;
constexpr int kPriorityBias = -std::numeric_limits<std::int16_t>::min();

} // namespace

void
EventQueue::schedule(Time when, EventFn fn, int priority)
{
    CCUBE_CHECK(when >= now_, "cannot schedule event in the past: "
                                  << when << " < " << now_);
    CCUBE_CHECK(fn, "null event callback");
    CCUBE_CHECK(priority >= std::numeric_limits<std::int16_t>::min() &&
                    priority <= std::numeric_limits<std::int16_t>::max(),
                "event priority " << priority << " outside int16_t");
    CCUBE_CHECK(next_seq_ < kSeqLimit, "event sequence exhausted");
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.push_back(std::move(fn));
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        pool_[slot] = std::move(fn);
    }
    // `+ 0.0` turns -0.0 into +0.0, whose bit pattern orders first.
    const std::uint64_t when_bits = std::bit_cast<std::uint64_t>(when + 0.0);
    const std::uint64_t order =
        static_cast<std::uint64_t>(priority + kPriorityBias) << kSeqBits |
        next_seq_++;
    heap_.push_back(Node{Key{when_bits} << 64 | order, slot});
    siftUp(heap_.size() - 1);
}

void
EventQueue::siftUp(std::size_t index)
{
    Node* const heap = heap_.data();
    const Node node = heap[index];
    while (index > 0) {
        const std::size_t parent = (index - 1) / kArity;
        if (!(node.key < heap[parent].key))
            break;
        heap[index] = heap[parent];
        index = parent;
    }
    heap[index] = node;
}

void
EventQueue::siftDown(std::size_t index)
{
    const std::size_t count = heap_.size();
    Node* const heap = heap_.data();
    const Node node = heap[index];
    while (true) {
        const std::size_t first = index * kArity + 1;
        std::size_t best;
        if (first + kArity <= count) {
            // A full family: a two-round tournament. The first round
            // adds each compare to an index, so it cannot branch.
            const std::size_t a =
                first + (heap[first + 1].key < heap[first].key);
            const std::size_t b =
                first + 2 + (heap[first + 3].key < heap[first + 2].key);
            best = heap[b].key < heap[a].key ? b : a;
        } else if (first < count) {
            best = first;
            for (std::size_t c = first + 1; c < count; ++c)
                best = heap[c].key < heap[best].key ? c : best;
        } else {
            break;
        }
        if (!(heap[best].key < node.key))
            break;
        heap[index] = heap[best];
        index = best;
    }
    heap[index] = node;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Node top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
    now_ = whenOf(top.key);
    ++executed_;
    // Move the callback out of its slot and recycle the slot *before*
    // invoking: the callback may schedule new events reentrantly.
    EventFn fn = std::move(pool_[top.slot]);
    free_slots_.push_back(top.slot);
    fn();
    return true;
}

Time
EventQueue::run()
{
    while (step()) {
    }
    return now_;
}

Time
EventQueue::runUntil(Time deadline)
{
    while (!heap_.empty() && whenOf(heap_.front().key) <= deadline)
        step();
    now_ = std::max(now_, deadline);
    return now_;
}

void
EventQueue::reset()
{
    heap_.clear();
    pool_.clear();
    free_slots_.clear();
    now_ = 0.0;
    next_seq_ = 0;
    executed_ = 0;
}

} // namespace sim
} // namespace ccube
