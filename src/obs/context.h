#ifndef CCUBE_OBS_CONTEXT_H_
#define CCUBE_OBS_CONTEXT_H_

/**
 * @file
 * Per-thread observability context and per-rank synchronization
 * counters for the functional (`ccl::`) runtime.
 *
 * The functional path runs each rank's tasks (ring body, tree
 * pipelines, forwarding kernels) on a thread that acts for that rank.
 * `setThreadRank()` tags the thread with the rank it currently acts for;
 * the low-level primitives (`SpinLock`, `BoundedSemaphore`, `Mailbox`)
 * then attribute their counters to the current rank without taking
 * any lock — each rank slot is a cache-padded atomic, the thread
 * analogue of per-channel NVLink counters.
 *
 * Counters mirror the paper's Fig. 11 semaphore protocol:
 *   - cas_retries      — failed CAS attempts inside SpinLock::lock();
 *   - post_stalls      — BoundedSemaphore::post() found count==capacity;
 *   - wait_stalls      — BoundedSemaphore::wait() found count==0;
 *   - post_stall_ns / wait_stall_ns — wall time spent inside those
 *                        stalls, so a watchdog report can name the
 *                        slowest rank (a retry count alone can't
 *                        distinguish one long wedge from many short
 *                        ones);
 *   - slot_full_stalls — Mailbox::send() found every receive buffer
 *                        occupied (the flow-control backpressure of
 *                        the paper's bounded receive rings);
 *   - mailbox_sends / mailbox_recvs — chunk traffic per rank;
 *   - executor_tasks / executor_parks / executor_unparks — tasks
 *     finished, and persistent rank threads going to sleep between
 *     collectives and waking for the next one;
 *   - ll_spins / ll_spin_ns — LL-protocol flag spins: episodes where
 *     an LL mailbox op actually spun on an inline arrival flag, and
 *     the wall time spent doing so. Kept separate from wait_stall_ns
 *     so stall attribution does not conflate the semaphore path (a
 *     fence round-trip the Simple protocol pays) with the LL path's
 *     data-arrival spin;
 *   - sm_parks / sm_resumes / sm_steals — state-machine runtime
 *     activity: rank tasks parking on a semaphore waiter, being
 *     rescheduled by a post, and migrating between pool workers via
 *     work stealing. Together with the engine's live gauges
 *     (ccl.sm.* in obs::Monitor) they make pool occupancy visible per
 *     rank and per snapshot.
 */

#include <atomic>
#include <cstdint>

namespace ccube {
namespace obs {

class MetricRegistry;

/** Tags the calling thread as acting for @p rank (-1 = unknown). */
void setThreadRank(int rank);

/** Rank the calling thread acts for; -1 when untagged. */
int threadRank();

/**
 * Stable per-thread trace track id (assigned on first use). Distinct
 * threads acting for one rank get distinct tracks so their concurrent
 * spans render side by side instead of stacking.
 */
int threadTrack();

/**
 * Registers a display name for the calling thread's trace track under
 * the pid of its current rank. No-op when tracing is disabled.
 */
void labelThread(const char* label);

/**
 * Always-on, lock-free per-rank counters for the Fig. 11 protocol.
 * Increment cost is one relaxed atomic add on an already-slow path
 * (a retry or a stall), so the counters need no enable gate.
 */
class RankCounters
{
  public:
    /** Per-rank slots of every per-rank table (these counters and
     *  the obs::Profiler's sample and park tables). The state-machine
     *  runtime targets P=512–1024. */
    static constexpr int kMaxRanks = 1024;

    /** Table index of @p rank: rank + 1 inside [0, kMaxRanks); every
     *  other rank folds into slot 0, the unknown slot. */
    static constexpr int slotOf(int rank)
    {
        return rank >= 0 && rank < kMaxRanks ? rank + 1 : 0;
    }

    /** One past the highest rank any thread was tagged with, at most
     *  kMaxRanks: every rank slot from there on is zero, so per-rank
     *  scans (snapshots, exports, totals) stop there. */
    static int rankBound();

    /** Process-wide instance. */
    static RankCounters& global();

    RankCounters() = default;
    RankCounters(const RankCounters&) = delete;
    RankCounters& operator=(const RankCounters&) = delete;

    /** Adds @p n failed CAS attempts for the calling thread's rank. */
    void addCasRetries(std::uint64_t n);

    /** Records one post() stall (count at capacity). */
    void addPostStall();

    /** Records one wait() stall (count at zero). */
    void addWaitStall();

    /** Adds @p ns of wall time spent stalled inside post(). */
    void addPostStallNs(std::uint64_t ns);

    /** Adds @p ns of wall time spent stalled inside wait(). */
    void addWaitStallNs(std::uint64_t ns);

    /** Records one send() that found all receive buffers full. */
    void addSlotFullStall();

    /** Records one mailbox send. */
    void addMailboxSend();

    /** Records one mailbox receive. */
    void addMailboxRecv();

    /** Records one rank task run to completion. */
    void addExecutorTask();

    /** Records one persistent rank thread parking (no task pending). */
    void addExecutorPark();

    /** Records one persistent rank thread waking with a task. */
    void addExecutorUnpark();

    /** Records one LL flag-spin episode lasting @p ns. */
    void addLLSpin(std::uint64_t ns);

    /** Records one state-machine task parking on a semaphore. */
    void addSmPark();

    /** Records one parked state-machine task being rescheduled. */
    void addSmResume();

    /** Records one state-machine task stolen by an idle worker. */
    void addSmSteal();

    /** Per-rank reads; @p rank -1 reads the unknown-rank slot. */
    std::uint64_t casRetries(int rank) const;
    std::uint64_t waitStalls(int rank) const;
    std::uint64_t postStallNs(int rank) const;
    std::uint64_t waitStallNs(int rank) const;
    std::uint64_t slotFullStalls(int rank) const;
    std::uint64_t mailboxSends(int rank) const;
    std::uint64_t mailboxRecvs(int rank) const;
    std::uint64_t executorTasks(int rank) const;
    std::uint64_t executorParks(int rank) const;
    std::uint64_t executorUnparks(int rank) const;

    /** Sums across all rank slots (including unknown). */
    std::uint64_t totalCasRetries() const;
    std::uint64_t totalSlotFullStalls() const;
    std::uint64_t totalMailboxSends() const;
    std::uint64_t totalMailboxRecvs() const;
    std::uint64_t totalLLSpinNs() const;
    std::uint64_t totalSmParks() const;
    std::uint64_t totalSmResumes() const;
    std::uint64_t totalSmSteals() const;

    /**
     * Exports non-zero counters as `ccl.rank<r>.<counter>` plus
     * `ccl.total.<counter>` into @p registry.
     */
    void exportTo(MetricRegistry& registry) const;

    /** Zeroes every counter (tests / between runs). */
    void reset();

  private:
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> cas_retries{0};
        std::atomic<std::uint64_t> post_stalls{0};
        std::atomic<std::uint64_t> wait_stalls{0};
        std::atomic<std::uint64_t> post_stall_ns{0};
        std::atomic<std::uint64_t> wait_stall_ns{0};
        std::atomic<std::uint64_t> slot_full_stalls{0};
        std::atomic<std::uint64_t> mailbox_sends{0};
        std::atomic<std::uint64_t> mailbox_recvs{0};
        std::atomic<std::uint64_t> executor_tasks{0};
        std::atomic<std::uint64_t> executor_parks{0};
        std::atomic<std::uint64_t> executor_unparks{0};
        std::atomic<std::uint64_t> ll_spins{0};
        std::atomic<std::uint64_t> ll_spin_ns{0};
        std::atomic<std::uint64_t> sm_parks{0};
        std::atomic<std::uint64_t> sm_resumes{0};
        std::atomic<std::uint64_t> sm_steals{0};
    };

    /** One counter of every slot. */
    using Field = std::atomic<std::uint64_t> Slot::*;

    /** Slot for the calling thread (0 = unknown rank). */
    Slot& current();
    const Slot& slot(int rank) const;

    /** @p field summed across all rank slots (including unknown). */
    std::uint64_t total(Field field) const;

    Slot slots_[kMaxRanks + 1];
};

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_CONTEXT_H_
