#ifndef CCUBE_CCL_FAULT_H_
#define CCUBE_CCL_FAULT_H_

/**
 * @file
 * Fault tolerance for the functional collective runtime.
 *
 * The paper's persistent-kernel protocol (Fig. 11 lock/unlock/post/
 * wait/check) assumes every peer eventually arrives: a hung or dead
 * rank turns every collective into a silent spin-deadlock. Production
 * stacks (NCCL's async error propagation + ncclCommAbort) pair the
 * spin protocol with an abort channel; this header is that channel.
 *
 * The pieces:
 *
 *   - AbortState     — a per-communicator *abort epoch*. Even values
 *                      mean "running"; tripping an abort flips the
 *                      epoch odd and stores a structured description.
 *                      Every bounded spin in ccl:: polls the epoch of
 *                      the thread's installed CommFaultContext and
 *                      bails with AbortedWait instead of spinning
 *                      forever.
 *   - CollectiveError— the structured, user-facing error a failed
 *                      collective surfaces (failed rank, op, mailbox,
 *                      flow, last posted sequence number) instead of a
 *                      hang.
 *   - CommFaultContext — per-communicator runtime state: the abort
 *                      epoch, the optional FaultInjector, and the one
 *                      per-rank progress table (mailbox ops, last
 *                      posted seq, current blocking wait site and the
 *                      peer expected to post it, dead mark). The
 *                      watchdog snapshots it at deadline expiry: it
 *                      walks the rank→rank wait-for graph the peer
 *                      edges form into a stall chain
 *                      (`r17 parked on mb 3->17/f2 <- r3 parked on
 *                      mb 9->3/f1 <- r9 killed`) and blames the
 *                      chain's terminus, a dead rank, or the slowest.
 *   - FaultInjector  — test hook that kills, stalls, or delays a
 *                      chosen rank at a chosen mailbox operation, so
 *                      every abort path is actually exercised.
 *
 * Threading: every step of a collective's rank tasks runs with the
 * communicator's context installed via ScopedFaultContext (the
 * StateMachineEngine does this automatically); the watchdog — the
 * thread that launched the collective, waiting for it — only reads
 * atomics and trips the epoch.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccube {
namespace ccl {

/**
 * Structured description of an aborted collective — what NCCL would
 * report through ncclCommGetAsyncError, with C-Cube-level detail.
 */
class CollectiveError : public std::runtime_error
{
  public:
    struct Info {
        int failed_rank = -1;       ///< rank blamed for the abort
        std::string op;             ///< collective op ("tree_allreduce")
        std::string mailbox;        ///< wait-site mailbox label ("" unknown)
        int flow = -1;              ///< flow id of that mailbox
        std::int64_t last_posted_seq = -1; ///< failed rank's last post
        std::int64_t ops_completed = -1;   ///< failed rank's mailbox ops
        double deadline_s = 0.0;    ///< configured deadline (0 = manual)
        std::string reason;         ///< human-readable cause
        std::string stall_chain;    ///< formatted wait-for chain ("" none)
        int chain_terminus = -1;    ///< rank the chain ends at (-1 none)
        int chain_len = 0;          ///< blocked ranks along the chain
    };

    explicit CollectiveError(Info info);

    /** The structured fields (the what() string is derived from them). */
    const Info& info() const { return info_; }

  private:
    Info info_;
};

/**
 * Thrown out of a bounded spin (semaphore wait, lock, check)
 * when the communicator's abort epoch flips. Internal control flow:
 * Communicator::run converts it into the communicator's structured
 * CollectiveError before returning to the caller.
 */
class AbortedWait : public std::runtime_error
{
  public:
    AbortedWait();
};

/** Thrown by the FaultInjector to simulate a rank dying mid-collective. */
class RankKilled : public std::runtime_error
{
  public:
    explicit RankKilled(int rank);

    int rank() const { return rank_; }

  private:
    int rank_;
};

/**
 * The per-communicator abort epoch plus the first-abort-wins error
 * record. Epoch parity is the wire protocol: even = running, odd =
 * aborted; clear() re-arms by advancing to the next even value, so a
 * generation count is carried for free.
 */
class AbortState
{
  public:
    AbortState() = default;
    AbortState(const AbortState&) = delete;
    AbortState& operator=(const AbortState&) = delete;

    /** True while tripped (epoch odd). One relaxed load — this is the
     *  poll every bounded spin performs. */
    bool aborted() const
    {
        return (epoch_.load(std::memory_order_acquire) & 1) != 0;
    }

    /** Current epoch value (parity = abort flag). */
    std::uint64_t epoch() const
    {
        return epoch_.load(std::memory_order_acquire);
    }

    /**
     * Trips the abort: stores @p info and flips the epoch odd. Only
     * the first trip per generation wins; returns whether this call
     * was it. Every call — winner or loser — bumps tripAttempts(), so
     * a clear can detect trips that lost first-trip-wins.
     */
    bool trip(CollectiveError::Info info);

    /** Re-arms after an abort was consumed (epoch odd → next even). */
    void clear();

    /**
     * Total trip() calls ever, including ones that lost
     * first-trip-wins. A trip on an already-aborted generation does
     * not move the epoch, but its caller may have had side effects
     * (posts in flight) that a racing clearAbort() flush missed —
     * this counter is how clearIfEpoch() sees it.
     */
    std::uint64_t tripAttempts() const
    {
        return trip_attempts_.load(std::memory_order_acquire);
    }

    /**
     * Epoch-checked clear: re-arms ONLY when the current epoch still
     * equals @p expected_epoch AND no trip() call — not even one that
     * lost first-trip-wins — landed since @p expected_attempts was
     * captured. Returns true when the state is clean afterwards
     * (cleared now, or @p expected_epoch was already even and nothing
     * tripped since); false means an abort raced the caller's
     * pre-clear work (mailbox flush) and that work must re-run before
     * clearing. This closes the abort-during-clearAbort window where
     * an unconditional clear() would silently retire a generation
     * whose damage was never flushed.
     */
    bool clearIfEpoch(std::uint64_t expected_epoch,
                      std::uint64_t expected_attempts);

    /** The stored description; meaningful while aborted(). */
    CollectiveError::Info info() const;

  private:
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::uint64_t> trip_attempts_{0};
    mutable std::mutex mutex_;
    CollectiveError::Info info_;
};

/**
 * Deterministic fault injection for abort-path testing: kill (throw
 * RankKilled), stall (spin until the abort epoch flips), or delay a
 * chosen rank when it reaches a chosen mailbox operation. Arm any
 * number of faults; each fires at most once per arm().
 */
class FaultInjector
{
  public:
    enum class Action {
        kKill,  ///< rank dies: throws RankKilled out of the mailbox op
        kStall, ///< rank wedges: spins until aborted, then AbortedWait
        kDelay, ///< rank hiccups: sleeps delay_s, then proceeds
    };

    struct Fault {
        int rank = -1;            ///< rank to fault
        Action action = Action::kKill;
        std::int64_t at_op = 0;   ///< fire before the rank's at_op-th
                                  ///< mailbox operation (0 = pre-post)
        double delay_s = 0.0;     ///< sleep length for kDelay
    };

    FaultInjector() = default;
    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /**
     * Adds @p fault to the plan. A detached injector takes any rank
     * ≥ 0; an attached one only the ranks of its communicator.
     */
    void arm(const Fault& fault);

    /**
     * Communicator side of setFaultInjector(): limits arm() to
     * @p num_ranks ranks (0 = detached, any rank). An injector serves
     * one communicator at a time.
     */
    void attach(int num_ranks);

    /**
     * Runtime side: checks the plan against @p rank's @p op-th mailbox
     * operation (the communicator's context counts them). Returns true
     * (filling @p out) when an armed fault fires; each fires once.
     */
    bool onOp(int rank, std::int64_t op, Fault* out);

  private:
    std::mutex mutex_;
    int num_ranks_ = 0; ///< attached communicator's ranks (0 = none)
    std::vector<Fault> plan_;
    std::vector<bool> fired_;
};

/**
 * Per-communicator fault runtime: abort epoch, per-rank progress
 * table, optional injector. Installed thread-locally around every step
 * of a running collective's rank tasks so the sync primitives
 * can poll the abort epoch without any signature plumbing — the
 * host-side analog of the abort flag the paper's persistent kernels
 * would poll in their spin loops.
 */
class CommFaultContext
{
  public:
    explicit CommFaultContext(int num_ranks);
    CommFaultContext(const CommFaultContext&) = delete;
    CommFaultContext& operator=(const CommFaultContext&) = delete;

    int numRanks() const { return num_ranks_; }

    AbortState& abortState() { return abort_; }
    const AbortState& abortState() const { return abort_; }

    /** Attaches @p injector (borrowed; null detaches) and restarts
     *  every rank's opsSeen() count. No collective may be running. */
    void setInjector(FaultInjector* injector);

    /** Marks the start of a collective named @p op (a string literal —
     *  the pointer is stored, not the contents). The progress table
     *  and op name of the previous collective stay readable until
     *  then, for post-mortem reads. */
    void beginCollective(const char* op);

    /** Name of the running (or last) collective. */
    const char* currentOp() const;

    // ---- hooks called by Mailbox on the acting rank's thread ----

    // Every hook writes the calling thread's rank slot; a thread with
    // no rank tag (obs::threadRank() < 0) writes nothing.

    /**
     * Called at the top of every mailbox send/recv. Runs the injector
     * (may throw RankKilled, stall until abort, or sleep) and counts
     * the op against the calling thread's rank.
     */
    void onMailboxOp(int flow);

    /**
     * Declares the calling rank blocked on @p label / @p flow,
     * expecting @p peer to post it (-1 = unknown). The peer edge
     * feeds the wait-for graph the watchdog walks at deadline
     * expiry; progress-table attribution works without it. Labels
     * are stored by pointer (mailbox labels outlive the collective).
     */
    void noteWaitBegin(const char* label, int flow, int peer = -1);

    /** Clears the calling rank's blocked-on record. */
    void noteWaitEnd();

    /** Records the calling rank's last posted mailbox sequence. */
    void notePosted(std::int64_t seq);

    // ---- watchdog side ----

    /**
     * Attribution snapshot for a deadline overrun, or for a killed
     * rank no peer waited for: blames the first rank marked dead by
     * the injector, else the running rank with the fewest completed
     * mailbox ops, and reports that rank's blocked wait site and last
     * posted sequence number.
     */
    CollectiveError::Info deadlineInfo(double deadline_s) const;

    /** Marks @p rank dead (killed or wedged by the injector). */
    void markDead(int rank);

    /** Mailbox operations @p rank has started while the current
     *  injector was attached (setInjector restarts the count): the
     *  index the injector matches Fault::at_op against. */
    std::int64_t opsSeen(int rank) const;

    /** One wait-for edge snapshot. */
    struct WaitLink {
        int rank = -1;     ///< the blocked rank
        int peer = -1;     ///< rank expected to post (-1 unknown)
        std::string label; ///< mailbox/semaphore label
        int flow = -1;
    };

    /** A materialized stall chain. */
    struct WaitChain {
        std::vector<WaitLink> links; ///< blocked ranks, waiter first
        int terminus = -1;           ///< first non-waiting rank reached
        bool terminus_dead = false;
        bool cycle = false; ///< terminus closes a wait-for cycle

        bool empty() const { return links.empty() && terminus < 0; }
        std::size_t length() const { return links.size(); }
    };

    /**
     * Follows wait-for edges from @p start until a rank that is not
     * waiting (the terminus — dead, running, or outside the table) or
     * a previously-visited rank (a cycle). Each link is a snapshot;
     * concurrent wakes can truncate the chain but never loop it. When
     * several tasks of one rank block at once the last writer wins,
     * so a chain may simply end early.
     */
    WaitChain chain(int start) const;

    /** The longest chain over all currently-waiting start ranks
     *  (ties: lowest start rank). Empty when nobody waits. */
    WaitChain longestChain() const;

    /**
     * One-line rendering of @p chain:
     * `r17 parked on mb 3->17/f2 <- r3 parked on mb 9->3/f1
     *  <- r9 killed`. The terminus renders as `killed` (dead),
     * `running` (alive, not waiting), `wait cycle` (cycle), or the
     * chain ends at `<external>` when the poster is unknown.
     */
    static std::string formatChain(const WaitChain& chain);

    /** The context installed on the calling thread (null outside a
     *  running collective). */
    static CommFaultContext* current();

  private:
    friend class ScopedFaultContext;

    struct alignas(64) RankSlot {
        std::atomic<std::int64_t> ops{0};      ///< this collective
        std::atomic<std::int64_t> ops_seen{0}; ///< since setInjector
        std::atomic<std::int64_t> posted_seq{-1};
        /// Null = not waiting. Stored last (release), after peer and
        /// flow, so a reader that sees it also sees a matching pair.
        std::atomic<const char*> wait_label{nullptr};
        std::atomic<int> wait_peer{-1};
        std::atomic<int> wait_flow{-1};
        std::atomic<bool> dead{false};
    };

    /** The calling thread's rank slot; null when it has no rank tag. */
    RankSlot* slotForCurrentThread();

    const int num_ranks_;
    std::vector<RankSlot> slots_;
    AbortState abort_;
    std::atomic<const char*> op_{nullptr};
    std::atomic<FaultInjector*> injector_{nullptr};
};

/**
 * RAII thread-local install of a communicator's fault context; nests
 * (restores the previous context on destruction). A null context is a
 * no-op installation.
 */
class ScopedFaultContext
{
  public:
    explicit ScopedFaultContext(CommFaultContext* context);
    ~ScopedFaultContext();

    ScopedFaultContext(const ScopedFaultContext&) = delete;
    ScopedFaultContext& operator=(const ScopedFaultContext&) = delete;

  private:
    CommFaultContext* previous_;
};

/**
 * Poll point for bounded spins: throws AbortedWait when the calling
 * thread's installed context has tripped its abort epoch. A thread
 * with no context (plain tests, non-collective use) never throws —
 * the cost is one thread-local load.
 */
void abortPoll();

/**
 * Multi-line, human-facing stall report for a watchdog abort: the
 * blamed rank, its wait site, and the full wait-for chain when one
 * was captured. This is what the scale-smoke CI leg uploads as an
 * artifact and what operators read before any trace.
 */
std::string formatStallReport(const CollectiveError::Info& info);

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_FAULT_H_
