#ifndef CCUBE_CCL_SYNC_PRIMITIVES_H_
#define CCUBE_CCL_SYNC_PRIMITIVES_H_

/**
 * @file
 * Device-side-style synchronization primitives (paper Fig. 11).
 *
 * The paper implements C-Cube as persistent CUDA kernels that
 * synchronize without host intervention, using an atomicCAS spin lock
 * plus thread fences, and builds semaphores (post / wait / check) on
 * top to manage receive buffers and gradient queuing. This header is
 * the faithful host-side analog over std::atomic: the same protocol,
 * with the single concession that spin loops yield to the OS scheduler
 * (a persistent GPU kernel never needs to yield; a CPU thread does).
 *
 * Every blocking spin is *bounded*: each iteration polls the abort
 * epoch of the calling thread's installed ccl::CommFaultContext (see
 * fault.h) and throws AbortedWait when a watchdog or explicit
 * Communicator::abort() has tripped it, so a dead peer can never
 * wedge a waiter forever. Threads with no installed context pay one
 * thread-local load per iteration and never throw. All blocking
 * loops share the util::SpinWait backoff ladder, so the abort-epoch
 * poll cadence is defined in exactly one place.
 *
 * The state-machine runtime (state_machine.h) adds a third waiting
 * style: instead of blocking, a resumable rank task *parks* — it
 * registers a SemaphoreWaiter on the semaphore and returns its worker
 * thread to the pool; the next post() pops the waiter and reschedules
 * the task. The tryWait/parkOnWait/cancelPark trio below is that
 * non-blocking surface.
 */

#include <atomic>
#include <cstdint>

#include "util/spin_wait.h"

namespace ccube {
namespace ccl {

/**
 * Spin lock built from compare-and-swap and fences, mirroring the
 * paper's lock()/unlock() pseudocode.
 */
class SpinLock
{
  public:
    SpinLock() = default;
    SpinLock(const SpinLock&) = delete;
    SpinLock& operator=(const SpinLock&) = delete;

    /** Spins (yielding) until the CAS 0→1 succeeds. Polls the abort
     *  epoch every kAbortPollInterval retries. */
    void lock();

    /** Releases: fence then store 0 (atomicExch in the paper). */
    void unlock();

    /** Abort-epoch poll cadence inside lock()'s CAS loop (alias of
     *  the shared util::SpinWait cadence). */
    static constexpr std::uint64_t kAbortPollInterval =
        util::SpinWait::kPollInterval;

  private:
    std::atomic<int> flag_{0};
};

/** RAII guard for SpinLock. */
class SpinLockGuard
{
  public:
    explicit SpinLockGuard(SpinLock& lock) : lock_(lock) { lock_.lock(); }
    ~SpinLockGuard() { lock_.unlock(); }
    SpinLockGuard(const SpinLockGuard&) = delete;
    SpinLockGuard& operator=(const SpinLockGuard&) = delete;

  private:
    SpinLock& lock_;
};

/**
 * Intrusive node a parked state machine registers on a semaphore it
 * is waiting on. The semaphore owns the node only while it sits on
 * the waiter list; whoever removes it (a poster via the pop inside
 * post(), or the task itself via cancelPark()) claims the
 * exclusive right to reschedule the parked task — that list-removal-
 * as-ownership rule is what makes the wake exactly-once.
 */
class SemaphoreWaiter
{
  public:
    SemaphoreWaiter() = default;
    virtual ~SemaphoreWaiter() = default;
    SemaphoreWaiter(const SemaphoreWaiter&) = delete;
    SemaphoreWaiter& operator=(const SemaphoreWaiter&) = delete;

    /**
     * Invoked by the poster, outside the semaphore's lock, after the
     * count became nonzero and this node was popped. The registered
     * condition is a *hint*, not a reservation: another consumer may
     * win the race, so the resumed task must re-attempt its tryWait().
     */
    virtual void semaphoreReady() = 0;

  private:
    friend class BoundedSemaphore;
    SemaphoreWaiter* next_ = nullptr;
};

/**
 * Bounded counting semaphore with the paper's post/wait semantics:
 * post() blocks while the count is at capacity (receive buffers are
 * finite); wait() blocks while the count is zero. Used to manage the
 * P2P receive buffers of the collective implementation.
 */
class BoundedSemaphore
{
  public:
    /** Creates with the given capacity and initial count. */
    explicit BoundedSemaphore(int capacity, int initial = 0);

    BoundedSemaphore(const BoundedSemaphore&) = delete;
    BoundedSemaphore& operator=(const BoundedSemaphore&) = delete;

    /** Increments the count; blocks while count == capacity. */
    void post();

    /** Decrements the count; blocks while count == 0. */
    void wait();

    /**
     * Non-blocking wait(): decrements and returns true if the count
     * was nonzero, otherwise returns false without blocking. Never
     * touches the fault layer — state-machine callers poll abort at
     * their step boundary instead.
     */
    bool tryWait();

    /**
     * Registers @p waiter to be woken by a future post(). Rechecks
     * the condition under the lock: returns false — without
     * registering — if the count is already nonzero (the caller
     * should retry tryWait() instead of parking). On true, the task
     * is parked: the next post() pops the node and calls
     * semaphoreReady() exactly once.
     */
    bool parkOnWait(SemaphoreWaiter& waiter);

    /**
     * Removes @p waiter from the list if still registered. Returns
     * true if this call removed it — the caller now owns the wake —
     * or false if a poster already popped it (its semaphoreReady()
     * has been or is about to be invoked). Used by the abort sweep
     * and by wake/cancel races in the engine.
     */
    bool cancelPark(SemaphoreWaiter& waiter);

    /** Current count (racy snapshot, for tests/telemetry). */
    int value() const;

    /** Capacity. */
    int capacity() const { return capacity_; }

    /**
     * Forces the count back to @p value. Only valid while no thread is
     * blocked on this semaphore (post-abort reinitialization).
     */
    void reset(int value);

  private:
    /** Pops the head waiter (FIFO); caller must hold lock_. */
    SemaphoreWaiter* popWaiterLocked();

    mutable SpinLock lock_;
    int count_;
    const int capacity_;
    SemaphoreWaiter* waiters_head_ = nullptr;
    SemaphoreWaiter* waiters_tail_ = nullptr;
};

/**
 * Monotonic counter with the paper's check semantics: post()
 * increments forever (no capacity — the gradient queue reuses gradient
 * memory so nothing is consumed), and check(v) blocks until the count
 * reaches @p v without modifying it. This is the Enqueue Semaphore of
 * the gradient-queuing architecture (Fig. 9): broadcast posts once per
 * fully-reduced chunk; each layer checks for its last chunk offset.
 */
class CheckableCounter
{
  public:
    CheckableCounter() = default;
    CheckableCounter(const CheckableCounter&) = delete;
    CheckableCounter& operator=(const CheckableCounter&) = delete;

    /** Increments the counter. */
    void post();

    /** Blocks until the counter is ≥ @p value (paper's check()). */
    void check(std::int64_t value) const;

    /** Non-blocking form of check(). */
    bool checkNow(std::int64_t value) const;

    /** Current value. */
    std::int64_t value() const;

    /** Resets to zero (between iterations). */
    void reset();

  private:
    mutable SpinLock lock_;
    std::int64_t count_ = 0;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_SYNC_PRIMITIVES_H_
