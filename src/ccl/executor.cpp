#include "ccl/executor.h"

#include <utility>

#include "obs/context.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

RankExecutor::RankExecutor(int num_ranks)
    : StateMachineEngine(num_ranks, Placement::kRankPinned)
{
    CCUBE_CHECK(num_ranks >= 1, "executor needs at least one rank");
}

CommWatchdog::CommWatchdog()
{
    thread_ = std::thread([this]() { loop(); });
}

CommWatchdog::~CommWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        armed_ = false;
        stop_ = true;
        ++generation_;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
CommWatchdog::arm(std::chrono::nanoseconds deadline,
                  std::function<void()> on_expire)
{
    CCUBE_CHECK(on_expire, "watchdog needs an expiry callback");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CCUBE_CHECK(!armed_, "watchdog already armed");
        armed_ = true;
        fired_ = false;
        ++generation_;
        deadline_ = std::chrono::steady_clock::now() + deadline;
        on_expire_ = std::move(on_expire);
    }
    cv_.notify_all();
}

void
CommWatchdog::disarm()
{
    std::unique_lock<std::mutex> lock(mutex_);
    armed_ = false;
    ++generation_;
    cv_.notify_all();
    // An expiry callback that already started keeps running without
    // the lock; wait it out so the caller can rely on fired() and on
    // the callback's side effects being complete.
    cv_.wait(lock, [&]() { return !callback_running_; });
}

bool
CommWatchdog::fired() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fired_;
}

void
CommWatchdog::loop()
{
    obs::labelThread("watchdog");
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait(lock, [&]() { return armed_ || stop_; });
        if (stop_)
            return;
        const std::uint64_t generation = generation_;
        const auto deadline = deadline_;
        const bool expired = !cv_.wait_until(lock, deadline, [&]() {
            return generation_ != generation || stop_;
        });
        if (!expired)
            continue; // disarmed (or stopping) before the deadline
        // Deadline passed while still armed: run the callback without
        // the lock so it may take other locks (abort state, tracing).
        std::function<void()> callback = std::move(on_expire_);
        on_expire_ = nullptr;
        armed_ = false;
        fired_ = true;
        callback_running_ = true;
        lock.unlock();
        callback();
        lock.lock();
        callback_running_ = false;
        cv_.notify_all();
    }
}

} // namespace ccl
} // namespace ccube
