#ifndef CCUBE_CCL_EXECUTOR_H_
#define CCUBE_CCL_EXECUTOR_H_

/**
 * @file
 * Persistent rank executor: the host-side analog of the paper's
 * persistent kernels.
 *
 * The paper launches its collective as long-lived CUDA kernels exactly
 * once and then drives every AllReduce through device-side semaphores,
 * amortizing the per-invocation launch cost that dominates small
 * messages (Fig. 3). The executor owns one long-lived thread per rank
 * — a rank-pinned ccl::StateMachineEngine — and every collective hands
 * each rank's thread the RankTasks of that rank, which it drives in one
 * loop (see ccl/state_machine.h). The same tasks run on the process-wide
 * pooled engine when a communicator selects Mode::kStateMachine, so
 * each algorithm has exactly one implementation.
 *
 * Along with state_machine.cpp, this is one of the only two
 * translation units in src/ccl/ allowed to construct std::thread.
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "ccl/state_machine.h"

namespace ccube {
namespace ccl {

/**
 * One persistent thread per rank. run() is called from one external
 * thread at a time.
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
    explicit RankExecutor(int num_ranks);
};

/**
 * Deadline watchdog for collectives: one lazy long-lived timer thread
 * that, once armed, invokes a caller-supplied expiry callback if the
 * deadline passes before disarm(). The Communicator arms it around
 * every run() with a callback that trips the abort epoch — the
 * host-side analog of NCCL's async error watchdog thread.
 *
 * arm()/disarm() pair per collective; disarm() blocks until any
 * in-flight expiry callback has returned, so the caller can safely
 * inspect fired() and tear down afterwards. Lives in the executor
 * header because executor.cpp is one of the two translation units in
 * src/ccl/ allowed to construct std::thread.
 */
class CommWatchdog
{
  public:
    CommWatchdog();

    /** Stops and joins the timer thread (disarms first). */
    ~CommWatchdog();

    CommWatchdog(const CommWatchdog&) = delete;
    CommWatchdog& operator=(const CommWatchdog&) = delete;

    /**
     * Starts a watch: if @p deadline elapses before disarm(),
     * @p on_expire runs once on the watchdog thread. Must not be
     * called while already armed.
     */
    void arm(std::chrono::nanoseconds deadline,
             std::function<void()> on_expire);

    /**
     * Cancels the watch. Blocks until an expiry callback that already
     * started has returned, so after disarm() the callback is either
     * fully done (fired() == true) or will never run.
     */
    void disarm();

    /** Whether the most recent watch expired (callback ran). */
    bool fired() const;

  private:
    void loop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::thread thread_;
    std::uint64_t generation_ = 0; ///< bumped by arm/disarm
    bool armed_ = false;
    bool stop_ = false;
    bool callback_running_ = false;
    bool fired_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    std::function<void()> on_expire_;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_EXECUTOR_H_
