#include "ccl/sync_primitives.h"

#include <chrono>
#include <cstdint>

#include "ccl/fault.h"
#include "obs/context.h"
#include "util/logging.h"
#include "util/spin_wait.h"

namespace ccube {
namespace ccl {

namespace {

using SteadyClock = std::chrono::steady_clock;

/**
 * Stall-time bookkeeping for the semaphore slow paths: the first
 * blocked iteration timestamps; destruction reports elapsed wall time
 * to the per-rank counters. One steady_clock read per end, only ever
 * on an already-slow path.
 */
class StallTimer
{
  public:
    enum class Kind { kPost, kWait };

    explicit StallTimer(Kind kind)
        : kind_(kind), start_(SteadyClock::now())
    {
    }

    ~StallTimer()
    {
        const std::uint64_t ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                SteadyClock::now() - start_)
                .count());
        if (ns == 0)
            return;
        obs::RankCounters& counters = obs::RankCounters::global();
        if (kind_ == Kind::kPost)
            counters.addPostStallNs(ns);
        else
            counters.addWaitStallNs(ns);
    }

  private:
    const Kind kind_;
    const SteadyClock::time_point start_;
};

/** The poll hook every ccl:: blocking loop installs in SpinWait. */
inline void
pollAbort()
{
    abortPoll();
}

} // namespace

void
SpinLock::lock()
{
    // Paper: while atomicCAS(lock,0,1) != 0 {} followed by a fence.
    // acquire ordering plays the role of the threadfence; the shared
    // SpinWait ladder keeps the protocol live on oversubscribed CPU
    // cores. The periodic abortPoll bounds the spin: it throws while
    // the lock is NOT held, so an abort can never leak a locked
    // SpinLock.
    int expected = 0;
    util::SpinWait spin;
    while (!flag_.compare_exchange_weak(expected, 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
        expected = 0;
        spin.once(pollAbort);
    }
    // Contention telemetry, attributed to the current rank; the fast
    // path (CAS succeeds first try) records nothing.
    if (spin.rounds() > 0)
        obs::RankCounters::global().addCasRetries(spin.rounds());
}

void
SpinLock::unlock()
{
    // Paper: threadfence(); atomicExch(lock, 0).
    flag_.store(0, std::memory_order_release);
}

BoundedSemaphore::BoundedSemaphore(int capacity, int initial)
    : count_(initial), capacity_(capacity)
{
    CCUBE_CHECK(capacity >= 1, "semaphore capacity must be positive");
    CCUBE_CHECK(initial >= 0 && initial <= capacity,
                "initial count out of range");
}

SemaphoreWaiter*
BoundedSemaphore::popWaiterLocked()
{
    SemaphoreWaiter* head = waiters_head_;
    if (head != nullptr) {
        waiters_head_ = head->next_;
        if (waiters_head_ == nullptr)
            waiters_tail_ = nullptr;
        head->next_ = nullptr;
    }
    return head;
}

void
BoundedSemaphore::post()
{
    // Paper's post(): lock; while cnt == capacity { unlock; lock; }
    // ++cnt; unlock. The abort poll runs while the lock is dropped.
    lock_.lock();
    if (count_ == capacity_) {
        obs::RankCounters::global().addPostStall();
        StallTimer timer(StallTimer::Kind::kPost);
        util::SpinWait spin;
        while (count_ == capacity_) {
            lock_.unlock();
            spin.once(pollAbort);
            lock_.lock();
        }
    }
    ++count_;
    SemaphoreWaiter* waiter = popWaiterLocked();
    lock_.unlock();
    // The wake runs outside the lock: semaphoreReady() only enqueues
    // the parked task onto its engine, it never re-enters this
    // semaphore.
    if (waiter != nullptr)
        waiter->semaphoreReady();
}

void
BoundedSemaphore::wait()
{
    // Paper's wait(): lock; while cnt == 0 { unlock; lock; } --cnt;
    // unlock.
    lock_.lock();
    if (count_ == 0) {
        obs::RankCounters::global().addWaitStall();
        StallTimer timer(StallTimer::Kind::kWait);
        util::SpinWait spin;
        while (count_ == 0) {
            lock_.unlock();
            spin.once(pollAbort);
            lock_.lock();
        }
    }
    --count_;
    lock_.unlock();
}

bool
BoundedSemaphore::tryWait()
{
    SpinLockGuard guard(lock_);
    if (count_ == 0)
        return false;
    --count_;
    return true;
}

bool
BoundedSemaphore::parkOnWait(SemaphoreWaiter& waiter)
{
    SpinLockGuard guard(lock_);
    // Condition recheck under the lock closes the lost-wakeup window:
    // a post() that landed between the caller's failed tryWait() and
    // this registration is observed here, and the caller retries
    // instead of parking.
    if (count_ > 0)
        return false;
    waiter.next_ = nullptr;
    if (waiters_tail_ != nullptr)
        waiters_tail_->next_ = &waiter;
    else
        waiters_head_ = &waiter;
    waiters_tail_ = &waiter;
    return true;
}

bool
BoundedSemaphore::cancelPark(SemaphoreWaiter& waiter)
{
    SpinLockGuard guard(lock_);
    SemaphoreWaiter* prev = nullptr;
    for (SemaphoreWaiter* node = waiters_head_; node != nullptr;
         node = node->next_) {
        if (node == &waiter) {
            if (prev != nullptr)
                prev->next_ = node->next_;
            else
                waiters_head_ = node->next_;
            if (waiters_tail_ == node)
                waiters_tail_ = prev;
            node->next_ = nullptr;
            return true;
        }
        prev = node;
    }
    return false;
}

int
BoundedSemaphore::value() const
{
    SpinLockGuard guard(lock_);
    return count_;
}

void
BoundedSemaphore::reset(int value)
{
    CCUBE_CHECK(value >= 0 && value <= capacity_,
                "semaphore reset value " << value << " out of range");
    SpinLockGuard guard(lock_);
    CCUBE_CHECK(waiters_head_ == nullptr,
                "semaphore reset with parked waiters");
    count_ = value;
}

void
CheckableCounter::post()
{
    SpinLockGuard guard(lock_);
    ++count_;
}

void
CheckableCounter::check(std::int64_t value) const
{
    // Paper's check(): lock; while cnt < value { unlock; lock; }
    // (just checks, never updates); unlock.
    lock_.lock();
    util::SpinWait spin;
    while (count_ < value) {
        lock_.unlock();
        spin.once(pollAbort);
        lock_.lock();
    }
    lock_.unlock();
}

bool
CheckableCounter::checkNow(std::int64_t value) const
{
    SpinLockGuard guard(lock_);
    return count_ >= value;
}

std::int64_t
CheckableCounter::value() const
{
    SpinLockGuard guard(lock_);
    return count_;
}

void
CheckableCounter::reset()
{
    SpinLockGuard guard(lock_);
    count_ = 0;
}

} // namespace ccl
} // namespace ccube
