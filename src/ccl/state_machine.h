#ifndef CCUBE_CCL_STATE_MACHINE_H_
#define CCUBE_CCL_STATE_MACHINE_H_

/**
 * @file
 * The rank runtime: resumable per-rank collectives driven by worker
 * threads. Every collective algorithm is a set of RankTasks (one per
 * sched::Program thread, see ccl/program_task.h); this engine is the
 * only thing that runs them.
 *
 * Each task's step() advances its rank's mailbox plan until an op
 * would block, then hands the wait to its StepContext. What happens
 * next depends on the engine's placement:
 *
 *  - Placement::kRankPinned — the persistent threads. One worker per
 *    rank, each task pinned to its rank's worker. The worker runs one
 *    loop over its rank's step list, the way an NCCL channel loops over
 *    its steps: a blocked task simply yields the loop to the rank's
 *    next task, and once every task is blocked the worker backs off on
 *    the util::SpinWait ladder. Nothing parks, so a post never pays a
 *    wake. The RankExecutor each Communicator owns is this form: the
 *    host-side analog of the paper's persistent kernels, launched once
 *    and then driven through every collective.
 *  - Placement::kPooled — thread-per-rank caps the runtime at a few
 *    dozen ranks, so the process-wide shared() pool multiplexes tasks
 *    onto a handful of workers. NCCL multiplexes many channels'
 *    progress onto a few proxy threads, and Motr-style request handlers
 *    (the FOM pattern) run as non-blocking state machines that *park*
 *    on a condition and are resumed by the post. A blocked task parks on
 *    the mailbox's semaphore via the SemaphoreWaiter registration in
 *    sync_primitives.h; the post pops the waiter and reschedules the
 *    task onto the pool — so P=512–1024 functional ranks run on a few
 *    workers instead of a thousand threads.
 *
 * Park/wake protocol of the pooled placement (exactly-once resume, no
 * lost wakeups):
 *
 *   1. step() fails a try* mailbox op and calls StepContext::parkOn.
 *      The task's park_state goes kRunning → kParking and the task
 *      registers on the semaphore under the semaphore's own SpinLock,
 *      *rechecking the condition* there (a concurrent post between the
 *      failed try and the registration is observed; the task retries
 *      instead of parking).
 *   2. The worker, seeing kParked returned from step(), publishes the
 *      park with a CAS kParking → kParked and moves to other work.
 *   3. A poster pops the waiter node (list removal under the semaphore
 *      lock = exclusive wake ownership) and exchanges park_state to
 *      kWoken: if it observed kParked the poster enqueues the task; if
 *      it observed kParking the worker's CAS in (2) fails and the
 *      worker requeues the task itself. Either way exactly one side
 *      schedules the resume.
 *   4. The abort sweep (run() notices a tripped epoch) claims still-
 *      parked tasks through BoundedSemaphore::cancelPark — the same
 *      removal-is-ownership rule — and wakes them so their next step's
 *      abortPoll() throws AbortedWait and the batch unwinds. PR 5
 *      fault semantics carry over: the fault context travels with the
 *      batch (installed around every step), deadline/abort checks run
 *      at every park and resume point, and a parked task keeps its
 *      wait-site label published so a deadline overrun blames the
 *      right rank.
 *
 * Work stealing (pooled): each worker owns a deque; enqueues go to the
 * task's home worker, idle workers steal from the back of other
 * queues. Steals, parks, and resumes land in obs::RankCounters and the
 * engine exports live ccl.sm.* gauges to obs::Monitor.
 *
 * Deadlines: run() is also the collective's watchdog. The caller
 * already wakes every millisecond while its batch runs (to notice a
 * tripped abort epoch); once the batch's deadline has passed it runs
 * the expiry action there, on its own thread, before it returns.
 *
 * This is the only translation unit in src/ccl/ that constructs
 * std::thread (the workers); the Release CI job's thread census
 * enforces it.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ccl/mailbox.h"
#include "ccl/sync_primitives.h"
#include "obs/monitor.h"

namespace ccube {
namespace ccl {

class CommFaultContext;
class RankTask;
class StepContext;

/** What one step() invocation accomplished. */
enum class StepStatus {
    kDone,     ///< the task finished its whole protocol
    kContinue, ///< progress made, or retry later (see StepContext)
    kParked,   ///< registered on a semaphore; resume on post
};

/**
 * The worker threads driving RankTask state machines. One pooled
 * engine is shared per process (shared()) so N concurrent
 * communicators multiplex onto the same handful of threads; each
 * Communicator in persistent mode owns a rank-pinned one (its
 * RankExecutor); tests may build private engines with explicit worker
 * counts.
 */
class StateMachineEngine
{
  public:
    using Clock = std::chrono::steady_clock;

    /** run()'s deadline when the batch has none. */
    static constexpr Clock::time_point kNoDeadline =
        Clock::time_point::max();

    /** How tasks map onto workers (see the file comment). */
    enum class Placement {
        kPooled,     ///< any worker; steal, park on block
        kRankPinned, ///< rank r on worker r only; poll, never park
    };

    /** Engine with @p num_workers threads (min 1). A rank-pinned
     *  engine needs one worker per rank of the tasks it runs. */
    explicit StateMachineEngine(int num_workers,
                                Placement placement = Placement::kPooled);

    /** Joins the workers (all run() calls must have returned). */
    ~StateMachineEngine();

    StateMachineEngine(const StateMachineEngine&) = delete;
    StateMachineEngine& operator=(const StateMachineEngine&) = delete;

    /**
     * Process-wide engine, created on first use with
     * defaultWorkerCount() workers and never destroyed (it may be
     * referenced from static-destruction contexts).
     */
    static StateMachineEngine& shared();

    /**
     * Worker-count default: $CCUBE_CCL_SM_WORKERS when set (min 1),
     * else max(2, 2 × hardware_concurrency) — the "handful of
     * threads" the P=512 acceptance bound is measured against.
     */
    static int defaultWorkerCount();

    /**
     * Runs @p tasks to completion and returns. Thread-safe: multiple
     * run() batches (from different communicators) interleave on the
     * same pool. @p fault, when non-null, is installed around every
     * step of every task in this batch (ScopedFaultContext), and a
     * tripped abort epoch wakes the batch's parked tasks so the run
     * unwinds instead of hanging. Rethrows the first exception any
     * task threw — after every task of the batch has finished or
     * aborted.
     *
     * Once @p deadline has passed with tasks still running, run()
     * calls @p on_deadline (which must not throw) once on the calling
     * thread, without any engine lock held and before it looks at the
     * abort epoch in the same wakeup — so an expiry action that trips
     * the epoch (the Communicator's abort) sees every blocked task's
     * wait-for edge still registered, and its own trip is swept at
     * once.
     */
    void run(std::vector<std::unique_ptr<RankTask>> tasks,
             CommFaultContext* fault,
             Clock::time_point deadline = kNoDeadline,
             const std::function<void()>& on_deadline = nullptr);

    // ---- telemetry ----

    int workerCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /** Tasks currently parked on a semaphore. */
    int parkedNow() const
    {
        return parked_now_.load(std::memory_order_relaxed);
    }

    /** Tasks currently enqueued and runnable. */
    int runnableNow() const
    {
        return static_cast<int>(
            pending_.load(std::memory_order_relaxed));
    }

  private:
    friend class RankTask;
    friend class StepContext;

    struct Batch;

    /** One worker's run queue (owner pops front, thieves pop back).
     *  A pinned worker sleeps on @c ready between collectives. */
    struct WorkerQueue {
        std::mutex mutex;
        std::condition_variable ready;
        std::deque<RankTask*> tasks;
        std::atomic<bool> nonempty{false}; ///< pinned: tasks != empty
    };

    void enqueue(RankTask& task);

    /** Exactly-once resume of a parked/parking task (see protocol). */
    void wake(RankTask& task);

    /** Wakes every still-parked task of @p batch after an abort. */
    void sweepAborted(Batch& batch);

    void workerLoop(int index);
    void pinnedLoop(int index);

    /** Announces @p task's last wait site for watchdog blame. */
    void publishWait(RankTask& task);

    /**
     * Stall telemetry of a blocked mailbox op on a rank-pinned engine,
     * as the blocking waits count it: beginStall() opens the episode on
     * the op's first block (a wait stall; a slot-full stall too for a
     * send), endStall() adds its duration once the op has completed.
     * No-ops when pooled, when no episode is open / one already is.
     */
    void beginStall(RankTask& task, bool slot_full);
    static void endStall(RankTask& task);

    RankTask* tryPop(int index, bool* stolen);
    void runTask(RankTask& task, int worker, bool stolen);

    /** One step() of @p task with its rank and batch fault context
     *  installed. A finished or failed task is handed to finishTask()
     *  and must not be touched again; its status reads kDone. */
    StepStatus stepTask(RankTask& task, StepContext& ctx);

    void finishTask(RankTask& task, std::exception_ptr error);

    const Placement placement_;
    std::vector<WorkerQueue> queues_;
    std::vector<std::thread> workers_;

    std::mutex idle_mutex_;
    std::condition_variable idle_cv_;
    std::atomic<std::size_t> pending_{0}; ///< increments under idle_mutex_
    /** Set once, under idle_mutex_; the destructor then takes each
     *  queue mutex before notifying, so no pinned worker misses it. */
    std::atomic<bool> stop_{false};

    std::atomic<int> parked_now_{0};

    /// Live ccl.sm.* gauges (pooled engines only).
    obs::Monitor::SourceHandle monitor_source_;
};

/**
 * A Communicator's persistent rank threads: a rank-pinned engine with
 * one worker per rank, asleep between collectives.
 */
class RankExecutor : public StateMachineEngine
{
  public:
    /** Which engine a Communicator's collectives run on. */
    enum class Mode {
        kPersistent,   ///< this executor: one pinned thread per rank
        kStateMachine, ///< StateMachineEngine::shared(): pooled workers
    };

    /** kPersistent; Communicator's Mode argument overrides it for
     *  A/B runs of the two placements. */
    static Mode defaultMode() { return Mode::kPersistent; }

    /** Starts @p num_ranks threads, asleep until the first run(). */
    explicit RankExecutor(int num_ranks)
        : StateMachineEngine(num_ranks, Placement::kRankPinned)
    {
    }
};

/**
 * A resumable per-rank protocol body — the FOM. Subclasses hold the
 * rank's entire mailbox plan and an explicit state/cursor set, and
 * advance it in step(): attempt non-blocking mailbox ops, return
 * kContinue at natural fairness boundaries (chunk completed), return
 * what StepContext::parkOn* gives back when an op would block, and
 * kDone when the protocol is finished. step() runs with the batch's
 * fault context installed and the task's rank set as the thread rank,
 * so mailbox telemetry, fault injection, and watchdog blame attribute
 * to the task's rank whichever worker runs it.
 */
class RankTask : public SemaphoreWaiter
{
  public:
    RankTask(int rank, const char* role) : rank_(rank), role_(role) {}

    /** Advances the protocol; see class comment. */
    virtual StepStatus step(StepContext& ctx) = 0;

    int rank() const { return rank_; }

    /** Role label ("rank", "tree1", "forward", ...). */
    const char* role() const { return role_; }

    /**
     * Trace track (tid) for the task's phase spans: its rank thread's
     * track on a pinned engine, where the rank's mailbox spans land
     * too; 0 on the pool, where the task migrates across workers.
     */
    int traceTrack() const { return trace_track_; }

  private:
    friend class StateMachineEngine;
    friend class StepContext;

    /** Park lifecycle (see the header protocol walkthrough). */
    enum : int { kRunning = 0, kParking = 1, kParked = 2, kWoken = 3 };

    /** SemaphoreWaiter: a poster popped our registration. */
    void semaphoreReady() final;

    const int rank_;
    const char* role_;
    std::atomic<int> park_state_{kRunning};
    BoundedSemaphore* parked_sem_ = nullptr; ///< for the abort sweep
    bool resuming_ = false; ///< next execution is a park resume
    // Pinned: the last wait site parkOn saw, and whether publishWait()
    // announced it to the fault context.
    const char* wait_label_ = nullptr;
    int wait_flow_ = -1;
    int wait_peer_ = -1;
    bool wait_published_ = false;
    int trace_track_ = 0;
    std::uint64_t stall_begin_ns_ = 0; ///< open stall episode, or 0
    // Steady-clock stamp of the last park, so the resume path can
    // attribute the parked interval to the rank in obs::Profiler.
    // Plain field: the park/wake handoff (queue + state CAS) orders
    // the write before any other worker reads it.
    std::uint64_t park_begin_ns_ = 0;
    int home_worker_ = 0;
    StateMachineEngine* engine_ = nullptr;
    StateMachineEngine::Batch* batch_ = nullptr;
};

/**
 * Per-step services handed to RankTask::step by the executing worker.
 */
class StepContext
{
  public:
    /**
     * Starts a logical mailbox op: Mailbox::noteOpBegin() (fault hook
     * and telemetry), and marks the step as having made progress — a
     * task only begins an op once its previous one completed.
     */
    void beginOp(Mailbox& box, Mailbox::OpKind kind);

    /**
     * Parks the task until @p box has an arrived chunk. Call after a
     * failed tryRecv variant or tryPeek and return the result from
     * step() immediately: kParked when the task actually parked,
     * kContinue when the chunk raced in or the engine is rank-pinned
     * (retry the op on the next step).
     */
    StepStatus parkOnArrival(Mailbox& box);

    /** Parks until @p box has a free receive buffer (failed trySend). */
    StepStatus parkOnFreeSlot(Mailbox& box);

    /**
     * General form: parks on @p sem, publishing @p label / @p flow as
     * the task's blocked wait site for watchdog blame and @p peer as
     * the rank expected to post the semaphore (the wait-for graph
     * edge; -1 = unknown). Pooled: spins a bounded util::SpinWait
     * ladder first while the pool is otherwise idle — the
     * small-message fast path — then registers. Rank-pinned: records
     * the wait site (published once the whole rank is blocked) and
     * returns retryLater().
     */
    StepStatus parkOn(BoundedSemaphore& sem, const char* label,
                      int flow, int peer = -1);

    /**
     * The op would block on a condition no semaphore announces (an LL
     * flag): returns kContinue, marking the step as blocked so a
     * pinned worker backs off once its whole step list is blocked.
     */
    StepStatus retryLater()
    {
        blocked_ = true;
        return StepStatus::kContinue;
    }

  private:
    friend class StateMachineEngine;

    StepContext(StateMachineEngine& engine, RankTask& task)
        : engine_(engine), task_(task)
    {
    }

    StateMachineEngine& engine_;
    RankTask& task_;
    bool blocked_ = false;  ///< the step ended waiting (retryLater)
    bool began_op_ = false; ///< the step started a mailbox op
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_STATE_MACHINE_H_
