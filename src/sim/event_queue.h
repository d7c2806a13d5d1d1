#ifndef CCUBE_SIM_EVENT_QUEUE_H_
#define CCUBE_SIM_EVENT_QUEUE_H_

/**
 * @file
 * Discrete-event queue: the heart of the timed network simulator.
 *
 * Events are (time, priority, sequence) ordered; the sequence number
 * makes simultaneous events deterministic (FIFO among equal keys),
 * which the collective schedules rely on for reproducible timelines.
 *
 * Layout is split for the hot path: the ordering keys live in a 4-ary
 * implicit heap of 32-byte nodes (two nodes per cache line, and a
 * 4-ary heap does ~half the levels of a binary one), while the
 * callbacks live in a slab pool of sim::EventFn slots addressed by
 * index and recycled through a free list. Each node packs (when,
 * priority, seq) into one 128-bit key whose unsigned order is the
 * event order, so a sift compares one integer per child and picks the
 * least of four children with conditional selects instead of branches
 * on data that the symmetric fabric makes tie often. Callbacks are
 * small-buffer inline callables (util::InlineFunction), so the common
 * schedule → fire cycle allocates nothing and nothing is ever copied —
 * pop moves the callback out of its slot, which fixes the old
 * priority_queue::top() copy-on-pop.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include "util/inline_function.h"

namespace ccube {
namespace sim {

/** Simulated time in seconds. */
using Time = double;

/**
 * Callback executed when an event fires. Move-only, with 48 bytes of
 * in-place storage — enough for every capture the schedules make
 * (`this` plus a few scalars, or `this` plus one nested EventFn slot
 * reference); bigger captures transparently heap-allocate.
 */
using EventFn = util::InlineFunction<void(), 48>;

/**
 * Priority queue of timestamped events with deterministic tie-breaking.
 */
class EventQueue
{
  public:
    /**
     * Schedules @p fn at absolute time @p when (>= current time). Among
     * events at one instant a lower @p priority fires first, then the
     * earlier scheduled; @p priority must fit in int16_t.
     */
    void schedule(Time when, EventFn fn, int priority = 0);

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Current simulated time (time of the last executed event). */
    Time now() const { return now_; }

    /**
     * Executes the earliest pending event.
     * @return false when the queue was empty.
     */
    bool step();

    /** Runs until the queue drains; returns the final time. */
    Time run();

    /**
     * Runs until simulated time would exceed @p deadline; events at
     * exactly @p deadline still execute. Returns the final time.
     */
    Time runUntil(Time deadline);

    /** Total events executed since construction. */
    std::uint64_t executedCount() const { return executed_; }

    /** Drops all pending events and resets the clock to zero. */
    void reset();

  private:
    /**
     * Order key: the bits of `when` (a non-negative double orders like
     * its bit pattern) above the priority biased into 16 bits, above
     * the 48-bit sequence number. (when, priority, seq) is a strict
     * total order because seq is unique, and the key encodes it
     * monotonically, so heap shape cannot affect pop order.
     */
    using Key = unsigned __int128;

    /** Heap node: order key plus the pool slot of the callback. */
    struct Node {
        Key key;
        std::uint32_t slot;
    };
    static_assert(sizeof(Node) <= 32, "two heap nodes per cache line");

    /** The event time @p key encodes. */
    static Time
    whenOf(Key key)
    {
        return std::bit_cast<Time>(static_cast<std::uint64_t>(key >> 64));
    }

    void siftUp(std::size_t index);
    void siftDown(std::size_t index);

    std::vector<Node> heap_;        ///< 4-ary implicit min-heap
    std::vector<EventFn> pool_;     ///< callback slab, slot-addressed
    std::vector<std::uint32_t> free_slots_;
    Time now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace sim
} // namespace ccube

#endif // CCUBE_SIM_EVENT_QUEUE_H_
