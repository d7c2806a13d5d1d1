#ifndef CCUBE_SIM_RESOURCE_H_
#define CCUBE_SIM_RESOURCE_H_

/**
 * @file
 * FIFO-serialized resource for the discrete-event simulator.
 *
 * A unidirectional network channel is the canonical instance: at most
 * one transfer occupies it at a time and waiters are served in request
 * order. Invariant #6 in DESIGN.md is enforced here.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/simulation.h"
#include "util/stats.h"

namespace ccube {

namespace obs {
class MetricRegistry;
class Monitor;
class TraceRecorder;
}

namespace sim {

/**
 * A resource with unit capacity and FIFO admission.
 *
 * Usage: call request() with the busy duration; the resource holds it
 * that long from the grant and then frees itself. An optional
 * completion callback fires when the occupancy ends.
 */
class FifoResource
{
  public:
    /** Invoked when the occupancy ends (resource freed). */
    using DoneFn = EventFn;

    /** Creates a resource bound to @p simulation with a debug name. */
    FifoResource(Simulation& simulation, std::string name);

    FifoResource(const FifoResource&) = delete;
    FifoResource& operator=(const FifoResource&) = delete;

    /**
     * Requests the resource for @p hold (>= 0) from its grant; @p done
     * fires when the busy period elapses. @p payload (bytes, or any
     * workload measure) is recorded for telemetry and attached to the
     * occupancy trace span.
     */
    void request(Time hold, DoneFn done, double payload = 0.0);

    /**
     * Forwards a callable hold, evaluated now, to request(Time, ...).
     * Exists only for perfbench's FIFO rung, which still passes a
     * lambda; ROADMAP item 1's `[benchmark]` PR deletes it.
     */
    template <typename HoldFn>
        requires std::is_invocable_r_v<Time, HoldFn&>
    void
    request(HoldFn&& hold, DoneFn done, double payload = 0.0)
    {
        request(static_cast<Time>(hold()), std::move(done), payload);
    }

    /**
     * Binds this resource to a (pid, tid) identity in the global
     * obs::TraceRecorder; every grant then emits one complete span
     * (simulated time) named after the resource, with queue-wait and
     * payload args. Without an identity the resource never traces.
     */
    void setTraceIdentity(int pid, int tid);

    /** Number of queued (not yet granted) requests. */
    std::size_t queueLength() const { return waiting_count_; }

    /** Cumulative busy time, for utilization reporting. */
    Time busyTime() const { return busy_time_; }

    /** Total grants made. */
    std::uint64_t grants() const { return grants_; }

    /** Cumulative payload (bytes) moved through this resource.
     *  Accumulated only while tracing or a metrics capture is enabled
     *  — the unobserved fast path skips all telemetry. */
    double totalPayload() const { return total_payload_; }

    /** Queue-wait samples: time between request and grant. Captured
     *  only while tracing or a metrics capture is enabled. */
    const util::RunningStats& queueWaitStats() const
    {
        return queue_wait_;
    }

    /** Busy time in (previous call's @p until or 0, @p until], from
     *  the grants made while tracing, metrics or the monitor is on;
     *  then starts the next window. @p until must not decrease. The
     *  monitor's busy-fraction gauges read it once per heartbeat. */
    Time takeWindowBusy(Time until);

    /** Debug name. */
    const std::string& name() const { return name_; }

  private:
    struct Pending {
        DoneFn done;
        Time hold = 0.0;
        double payload = 0.0;
        Time requested_at = 0.0;
    };
    static_assert(sizeof(Pending) == 80, "a waiting request is 80 bytes");

    /** A fixed run of waiting requests; blocks chain head to tail. */
    struct WaitBlock {
        static constexpr std::size_t kSlots = 8;
        Pending slots[kSlots];
        std::unique_ptr<WaitBlock> next;
    };

    /** Starts the occupancy of @p pending, moving its callback out. */
    void grant(Pending& pending);
    void release();
    /** Appends a waiting slot at the tail for the caller to fill. */
    Pending& enqueue();
    /** Drops the head slot once its request has been granted. */
    void dequeue();

    Simulation& sim_;
    std::string name_;
    bool busy_ = false;
    DoneFn active_done_; ///< completion callback of the current grant;
                         ///< stashed here so the scheduled release
                         ///< event captures only `this` (inline-sized)
    /// Waiting requests in FIFO order: a chain of blocks, read from
    /// wait_head_[wait_begin_] and written at wait_tail_[wait_end_].
    /// The head block, once read through, becomes the spare the next
    /// full tail takes, so a backed-up channel cycles through its
    /// blocks without allocating; a drained queue frees the spare and
    /// keeps one block, so memory stays within two blocks of the live
    /// queue.
    std::unique_ptr<WaitBlock> wait_head_;
    WaitBlock* wait_tail_ = nullptr;
    std::unique_ptr<WaitBlock> wait_spare_;
    std::size_t wait_begin_ = 0;
    std::size_t wait_end_ = 0;
    std::size_t waiting_count_ = 0;
    Time busy_time_ = 0.0;
    std::uint64_t grants_ = 0;
    double total_payload_ = 0.0;
    util::RunningStats queue_wait_;
    /// takeWindowBusy() state: the window's start, the busy time in it
    /// of the grants before the latest, and the latest grant, whose
    /// share is still open while it ends after the window's start.
    Time window_start_ = 0.0;
    Time window_busy_ = 0.0;
    Time last_start_ = 0.0;
    Time last_end_ = 0.0;
    obs::TraceRecorder& recorder_; ///< cached globals: the per-grant
    obs::MetricRegistry& registry_; ///< cost is three relaxed loads
    obs::Monitor& monitor_;
    int trace_pid_ = -1;
    int trace_tid_ = 0;
};

} // namespace sim
} // namespace ccube

#endif // CCUBE_SIM_RESOURCE_H_
