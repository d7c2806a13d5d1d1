#ifndef CCUBE_UTIL_SPIN_WAIT_H_
#define CCUBE_UTIL_SPIN_WAIT_H_

/**
 * @file
 * util::SpinWait — the one bounded-spin backoff policy of the runtime.
 *
 * Every blocking loop in ccl:: used to hand-roll the same three-part
 * dance: poll the abort epoch every N iterations, relax the CPU while
 * the wait is young, and yield to the OS scheduler once it is not.
 * Four copies of that loop drifted apart (different poll cadences,
 * different yield points); this header is the single implementation
 * they now share, so the abort-epoch poll cadence lives in exactly one
 * place.
 *
 * The ladder, per blocked iteration:
 *
 *   rounds 1..kRelaxRounds        cpu-relax (PAUSE) in growing bursts
 *   rounds kRelaxRounds+1..∞      std::this_thread::yield()
 *   every kPollInterval rounds    invoke the caller's poll hook
 *                                 (ccl:: passes abortPoll, which
 *                                 throws AbortedWait on a tripped
 *                                 epoch)
 *
 * On a single-hardware-thread machine the relax rungs are skipped
 * entirely: the awaited condition can only change after the OS runs
 * the peer thread, so anything but an immediate yield just delays it.
 *
 * The state-machine runtime adds a fourth rung: after kParkThreshold
 * rounds a resumable task should stop spinning and park on a waiter
 * registration instead (see ccl/state_machine.h). shouldPark() is
 * that cutover test; blocking callers simply never ask.
 */

#include <cstdint>
#include <thread>

namespace ccube {
namespace util {

/** Architecture CPU-relax hint (PAUSE / YIELD), no-op elsewhere. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    // No hint instruction: fall through (the caller's ladder still
    // yields once the relax rounds are exhausted).
#endif
}

/**
 * One blocked wait's backoff state. Construct fresh per logical wait;
 * call once(poll) every iteration the condition is still false.
 */
class SpinWait
{
  public:
    /** Poll-hook cadence (was SpinLock::kAbortPollInterval). */
    static constexpr std::uint64_t kPollInterval = 64;

    /** Rounds of PAUSE bursts before falling back to yield. */
    static constexpr std::uint64_t kRelaxRounds = 16;

    /** Rounds after which a resumable caller should park instead of
     *  continuing to spin (the small-message fast path stays pure
     *  spin below this). */
    static constexpr std::uint64_t kParkThreshold = 256;

    /**
     * One backoff step: runs @p poll every kPollInterval rounds (the
     * hook may throw — ccl:: passes abortPoll), then relaxes or
     * yields according to the ladder.
     */
    template <typename PollFn>
    void once(PollFn&& poll)
    {
        ++rounds_;
        if (rounds_ % kPollInterval == 0)
            poll();
        if (rounds_ <= kRelaxRounds && multicore()) {
            // Growing PAUSE burst: 1, 2, 4, ... capped at 32 hints.
            const std::uint64_t burst =
                rounds_ < 6 ? (std::uint64_t{1} << rounds_) : 32;
            for (std::uint64_t i = 0; i < burst; ++i)
                cpuRelax();
        } else {
            std::this_thread::yield();
        }
    }

    /** Backoff steps taken so far (feeds CAS-retry telemetry). */
    std::uint64_t rounds() const { return rounds_; }

    /** True once a resumable caller should park rather than spin. */
    bool shouldPark() const { return rounds_ >= kParkThreshold; }

  private:
    /** Whether PAUSE can ever help (a second hardware thread exists). */
    static bool multicore()
    {
        static const bool multi =
            std::thread::hardware_concurrency() > 1;
        return multi;
    }

    std::uint64_t rounds_ = 0;
};

} // namespace util
} // namespace ccube

#endif // CCUBE_UTIL_SPIN_WAIT_H_
