#ifndef CCUBE_CCL_MAILBOX_H_
#define CCUBE_CCL_MAILBOX_H_

/**
 * @file
 * P2P chunk mailbox: the receive-buffer abstraction between ranks.
 *
 * Models the per-channel receive buffers that the paper's persistent
 * kernels manage with device-side semaphores: a bounded single-
 * producer / single-consumer ring of float chunks. Flow control uses
 * exactly the post/wait protocol of Fig. 11.
 *
 * Fast path: slot buffers keep their capacity across reuse, so once a
 * slot has carried a chunk of a given size a send never resizes it,
 * and every receive variant reads in place out of the slot buffer.
 * tryPeek() exposes the slot to the caller directly, so forwarders
 * move chunks downstream without a staging copy, mirroring the
 * LL-style "operate on the receive buffer" protocols of real NCCL.
 *
 * Two calling conventions share one ring:
 *
 *  - Blocking (Simple protocol only): send() and the recv variants
 *    spin in the Fig. 11 post/wait protocol — for rank bodies run
 *    through Communicator::run(), one dedicated thread per rank.
 *  - Non-blocking (the collective algorithms): a resumable rank task calls
 *    noteOpBegin() once per logical op (fault injection + telemetry,
 *    exactly like the blocking prologue), then retries trySend()/
 *    tryRecv*() and *parks* on arrivalSemaphore()/freeSlotSemaphore()
 *    when the ring says not-yet. tryPeek()/releaseFront() let a
 *    forwarder hold the front slot zero-copy while it waits for
 *    downstream capacity.
 *
 * The two conventions share one body per op and differ only in how
 * they claim a slot: the blocking prologue plus wait(), or tryWait().
 *
 * Protocols (ccl/protocol.h): every non-blocking op takes a Protocol.
 * kSimple (the default) is the fenced bulk path above. kLL switches
 * the op onto a parallel low-latency ring where each 32-bit payload
 * word rides in a 64-bit line next to an inline flag word carrying
 * the message sequence number: the receiver spins on the flags
 * directly and no semaphore is posted or waited on the data path.
 * The two rings share the fault hooks and trace sequence numbers,
 * so watchdog blame and post/wait span pairing behave identically on
 * both paths — but an LL message can only be received by an LL op
 * (the protocol is a property of the collective, not negotiated per
 * message). LL ops never touch arrival/free-slot semaphores, so
 * state-machine tasks poll instead of parking.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ccl/protocol.h"
#include "ccl/sync_primitives.h"

namespace ccube {
namespace ccl {

/**
 * Bounded SPSC queue of float chunks with an integer tag.
 *
 * Cache-line aligned: the semaphores and cursors its producer and
 * consumer write never share a line with whatever the allocator puts
 * next to it (another mailbox, a rank task), so a collective's speed
 * does not depend on where the communicator's bookkeeping lands.
 */
class alignas(64) Mailbox
{
  public:
    /**
     * Creates a mailbox with @p slots receive buffers carrying flow
     * @p flow from rank @p src to rank @p dst. Its trace label is
     * "mb src->dst/fN"; a mailbox outside a communicator keeps the
     * defaults (-1) and traces as "mb ?".
     */
    explicit Mailbox(int slots, int src = -1, int dst = -1,
                     int flow = -1);

    Mailbox(const Mailbox&) = delete;
    Mailbox& operator=(const Mailbox&) = delete;

    /**
     * Copies @p data into the next free slot (blocking while all
     * receive buffers are occupied) and posts its arrival. Reuses the
     * slot's existing capacity; allocates only when the chunk is
     * larger than anything the slot has carried before.
     */
    void send(std::span<const float> data, int tag = 0);

    /**
     * Blocks until a chunk arrives, copies it into @p out (resized to
     * match), frees the receive buffer, and returns the tag. The slot
     * buffer is retained for reuse.
     */
    int recv(std::vector<float>& out);

    /**
     * Receives and element-wise accumulates into @p out (the reduction
     * step of AllReduce) via a single vectorized accumulate loop over
     * the slot buffer; sizes must match. Returns the tag.
     */
    int recvReduce(std::span<float> out);

    // ---- non-blocking surface (rank tasks) ----

    /** Which side of the ring a logical op touches. */
    enum class OpKind { kSend, kRecv };

    /**
     * The blocking prologue, split out for the non-blocking path:
     * runs the fault injector hook (may throw RankKilled, or block a
     * worker in an injected stall) and counts the op in the per-rank
     * telemetry. A rank task calls this (via StepContext::beginOp)
     * exactly once per *logical* op — before its first try* attempt —
     * so injector at-op indices do not depend on how often it retries.
     */
    void noteOpBegin(OpKind kind);

    /**
     * Non-blocking send(): returns false (no side effects) while all
     * receive buffers are occupied. On success the chunk is copied,
     * its arrival posted, and the post sequence advanced — the same
     * body as send(), minus the blocking prologue (see noteOpBegin).
     */
    bool trySend(std::span<const float> data, int tag = 0,
                 Protocol proto = Protocol::kSimple);

    /**
     * Non-blocking receive that copies the chunk into @p out (which
     * must have exactly the chunk's size): returns false while no
     * chunk has arrived; on success stores the tag in @p tag when
     * non-null. The LL variant returns false while the message header
     * flag has not landed; once it has, the producer is committed to
     * the whole message, so the remaining per-word flag spins are
     * bounded.
     */
    bool tryRecvInto(std::span<float> out, int* tag = nullptr,
                     Protocol proto = Protocol::kSimple);

    /** Non-blocking recvReduce(); see tryRecvInto(). On the LL path
     *  the accumulation happens per element in ascending index order
     *  as each flag arrives — the same per-element float adds in the
     *  same order as the Simple path, so results stay byte-identical
     *  across protocols. */
    bool tryRecvReduce(std::span<float> out, int* tag = nullptr,
                       Protocol proto = Protocol::kSimple);

    /**
     * Non-blocking zero-copy front access for forwarders: claims the
     * front chunk (without freeing its receive buffer) and exposes it
     * in place. Returns false while no chunk has arrived. Repeated
     * calls before releaseFront() return the same chunk. The span is
     * valid until releaseFront(). (LL: the chunk is decoded once into
     * an internal staging buffer; the slot stays claimed until
     * releaseFront().)
     */
    bool tryPeek(std::span<const float>* data, int* tag = nullptr,
                 Protocol proto = Protocol::kSimple);

    /** Frees the receive buffer claimed by tryPeek(). */
    void releaseFront();

    /** Arrival semaphore (consumer side parks here on empty ring). */
    BoundedSemaphore& arrivalSemaphore() { return full_; }

    /** Free-slot semaphore (producer side parks here on full ring). */
    BoundedSemaphore& freeSlotSemaphore() { return empty_; }

    /** Trace label ("mb src->dst/fN", or "mb ?" outside a
     *  communicator): names post/wait spans and park blame. */
    const std::string& traceLabel() const { return trace_label_; }

    /**
     * Producer rank; -1 outside a communicator. The endpoints are the
     * wait-for graph edges: a consumer blocked here waits on
     * srcRank(), a producer blocked on a full ring waits on dstRank().
     */
    int srcRank() const { return src_; }

    /** Consumer rank; -1 outside a communicator. */
    int dstRank() const { return dst_; }

    /** Flow id this mailbox carries, reported in CollectiveError when
     *  a rank is caught blocked here; -1 outside a communicator. */
    int flowId() const { return flow_; }

    // ---- introspection ----

    /** Number of receive buffers. */
    int slots() const { return static_cast<int>(ring_.size()); }

    /**
     * Discards any undelivered chunks and reinitializes the flow-
     * control state, as if freshly constructed (slot capacity is
     * kept). Only valid while no thread is using the mailbox — the
     * Communicator calls this from clearAbort(), after an aborted
     * collective has fully unwound, so the next collective does not
     * consume stale in-flight messages.
     */
    void reset();

  private:
    struct Slot {
        std::vector<float> data; ///< capacity persists across reuse
        std::size_t size = 0;    ///< valid prefix of data
        int tag = 0;
    };

    /**
     * One LL receive buffer. Every 64-bit line packs a 32-bit value
     * in the low half and a 32-bit arrival flag (the message sequence
     * number + 1, so a freshly zeroed line never matches) in the high
     * half — the NCCL LL wire format. header carries the element
     * count, tag_line the tag, lines[i] payload word i. The producer
     * publishes header (release) after allocating lines and before
     * the payload words, so the consumer can stream: it spins on the
     * header flag, learns the size, then spins per line in ascending
     * index order while the producer is still writing the tail.
     */
    struct LLSlot {
        std::atomic<std::uint64_t> header{0};
        std::atomic<std::uint64_t> tag_line{0};
        std::unique_ptr<std::atomic<std::uint64_t>[]> lines;
        std::size_t capacity = 0; ///< allocated lines
    };

    /**
     * The one send body: stamps the post sequence, runs @p claim
     * (which secures a free slot on @p proto's lane) inside the traced
     * post span, then writes and publishes the chunk. send() claims by
     * blocking, trySend() has claimed already and passes a no-op.
     */
    template <typename Claim>
    void postChunk(std::span<const float> data, int tag, Protocol proto,
                   bool stalled, Claim&& claim);

    /** Blocking claim: waits on @p sem with the wait-for edge to
     *  @p peer published for watchdog blame. */
    void blockOn(BoundedSemaphore& sem, int peer);

    /** Stamps the next wait sequence number and runs @p claim inside
     *  the traced "wait" span (every receive's consumer-side span). */
    template <typename Claim>
    void traceWait(Claim&& claim);

    /**
     * The one Simple receive body: claims the front slot via
     * traceWait(@p claim), hands it to @p consume (copy or reduce),
     * releases it and returns its tag. The blocking receives claim by
     * blocking, the try forms have claimed already.
     */
    template <typename Claim, typename Consume>
    int takeChunk(Claim&& claim, Consume&& consume);

    /** tryRecvInto() / tryRecvReduce(), by @p reduce. */
    bool tryReceive(std::span<float> out, int* tag, Protocol proto,
                    bool reduce);

    /** Shared tail of every successful receive: advance the consumer
     *  cursor, free the slot, count the delivery. */
    void finishConsume();

    // ---- LL lane ----

    /** Arrival flag for LL message @p seq (never 0 on first use). */
    static std::uint32_t llFlag(std::int64_t seq)
    {
        return static_cast<std::uint32_t>(seq) + 1u;
    }

    /** True while the producer's next LL slot is free to overwrite. */
    bool llSlotFree() const
    {
        return ll_post_seq_ -
                   ll_consumed_.load(std::memory_order_acquire) <
               static_cast<std::int64_t>(ring_.size());
    }

    /** Grows (if needed) and publishes the next LL slot. */
    void llWriteSlot(std::span<const float> data, int tag);

    struct LLHeader {
        std::size_t size = 0;
        int tag = 0;
    };

    /** Non-blocking header check; traces and fills @p out on hit. The
     *  payload is still (possibly) in flight — stream it with
     *  llDecodeBody, then llFinishConsume. */
    bool llPeekHeader(LLHeader* out);

    /**
     * Streams the front LL message's payload words in ascending index
     * order, spinning per line (bounded once the header has landed),
     * copying or accumulating into @p dst. Per-element adds in index
     * order keep reductions byte-identical to the Simple path.
     */
    void llDecodeBody(std::size_t size, float* dst, bool reduce);

    /** Frees the consumer's LL slot and counts the delivery. */
    void llFinishConsume();

    std::vector<Slot> ring_;
    BoundedSemaphore full_;
    BoundedSemaphore empty_;
    std::size_t head_ = 0; ///< producer cursor (producer thread only)
    std::size_t tail_ = 0; ///< consumer cursor (consumer thread only)
    bool front_claimed_ = false; ///< tryPeek holds the front slot
    // Delivery sequence numbers stamped on post/wait trace spans so the
    // analyzer can pair them into cross-rank dependency edges. SPSC
    // FIFO order means wait #n always consumes post #n. Incremented
    // unconditionally (one add per op) so the pairing stays aligned
    // even when tracing is toggled mid-stream.
    std::int64_t post_seq_ = 0; ///< producer thread only
    std::int64_t wait_seq_ = 0; ///< consumer thread only
    // LL ring state. The lane keeps its own SPSC cursors (so Simple
    // and LL collectives interleaved on one mailbox cannot desync the
    // flag sequence) while still bumping post_seq_/wait_seq_ above for
    // trace-span pairing. ll_consumed_ is the only cross-thread word:
    // the consumer releases it past each finished message and the
    // producer acquires it for flow control (slot reuse safety).
    std::unique_ptr<LLSlot[]> ll_ring_;
    std::int64_t ll_post_seq_ = 0; ///< producer thread only
    std::int64_t ll_wait_seq_ = 0; ///< consumer thread only
    std::atomic<std::int64_t> ll_consumed_{0};
    Slot ll_scratch_;       ///< consumer staging (tryPeek)
    bool ll_front_ = false; ///< tryPeek front came from the LL lane
    const std::string trace_label_;
    const int flow_;
    const int src_;
    const int dst_;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_MAILBOX_H_
