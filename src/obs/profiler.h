#ifndef CCUBE_OBS_PROFILER_H_
#define CCUBE_OBS_PROFILER_H_

/**
 * @file
 * obs::Profiler — always-on sampling profiler for the ccl runtime.
 *
 * The state-machine engine multiplexes hundreds of functional ranks
 * onto a handful of pool workers, which breaks `top`-style "where is
 * the time going": worker threads carry many ranks, so OS-level
 * profiles attribute everything to "sm worker 0". This header
 * restores it. Instrumented sites publish their current (phase, rank)
 * pair into a per-thread slot — one relaxed atomic store on
 * entry/exit, nothing else — and a single sampler thread wakes at
 * --profile-hz, reads every slot, and accumulates per-rank ×
 * per-phase sample counts: step (reduce/copy inside a rank task),
 * mailbox post, mailbox wait, steal scan, worker idle. Parked time
 * cannot be sampled from thread slots (a parked task occupies no
 * thread), so the engine feeds it exactly: the park/resume
 * transitions in state_machine.cpp measure each park episode with a
 * steady clock and add it per rank here. Results export as
 * collapsed-stack flamegraph text (writeCollapsed,
 * `flamegraph.pl`-compatible), as `profiler.*` counters in the
 * MetricRegistry, and as live `ccl.prof.*` gauges in obs::Monitor
 * while running.
 *
 * "Who is waiting on whom" — a parked task is not a blocked thread
 * any debugger can see — is the other half of that debugging story;
 * it lives with the fault runtime: ccl::CommFaultContext's per-rank
 * table records each blocked rank's wait site and expected poster,
 * and the watchdog walks it into a stall chain at deadline expiry.
 *
 * Overhead discipline: publication sites gate on one relaxed load
 * (enabled()) and are no-ops while no sampler is running, so the
 * profiler stays always-on. The sampler is a single thread
 * regardless of rank count.
 *
 * Layering: this header has no ccl:: dependencies — the mailbox and
 * state-machine publish phases into it, never the other way around.
 */

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.h"
#include "obs/monitor.h"

namespace ccube {
namespace obs {

class MetricRegistry;

/** What an instrumented thread is doing right now. */
enum class ProfPhase : int {
    kIdle = 0,        ///< pool worker with no runnable task
    kStep = 1,        ///< inside a rank task step / rank body
    kMailboxPost = 2, ///< mailbox send side (copy + flow control)
    kMailboxWait = 3, ///< mailbox receive side (wait + reduce/copy)
    kSteal = 4,       ///< worker scanning victim queues
    kParked = 5,      ///< task parked (fed exactly, never sampled)
    kLLSpin = 6,      ///< spinning on an LL inline arrival flag
};

/** Number of distinct ProfPhase values. */
constexpr int kProfPhaseCount = 7;

/** Stable short name ("step", "mailbox_wait", ...). */
const char* profPhaseName(ProfPhase phase);

/**
 * Sampling profiler: per-thread phase publication + one sampler
 * thread. start()/stop() bound a capture; the publication sites stay
 * compiled in and cost one relaxed load while stopped.
 */
class Profiler
{
  public:
    /** Publication slots; threads beyond this are not sampled. */
    static constexpr int kMaxThreads = 256;

    /** Default sampling rate (prime, so it cannot phase-lock with
     *  millisecond-periodic runtime behavior). */
    static constexpr double kDefaultHz = 997.0;

    Profiler() = default;
    ~Profiler();
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /** Process-wide instance the instrumentation publishes to. */
    static Profiler& global();

    /** True while a sampler is running (publication gate). */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Clears accumulated samples and starts the sampler thread at
     * @p hz (<= 0 selects kDefaultHz). No-op when already running.
     * Registers live `ccl.prof.*` gauges with obs::Monitor.
     */
    void start(double hz);

    /** Stops and joins the sampler; accumulated samples are kept. */
    void stop();

    /** Sampler wakeups so far. */
    std::uint64_t ticks() const
    {
        return ticks_.load(std::memory_order_relaxed);
    }

    // ---- publication (instrumented threads) ----

    /**
     * Publishes (phase, rank) for the calling thread and returns the
     * previous packed state so ScopedProfPhase can restore nesting.
     * Returns 0 without publishing while disabled.
     */
    std::uint64_t publish(ProfPhase phase, int rank);

    /** Restores a packed state returned by publish(). */
    void restore(std::uint64_t packed);

    // ---- exact park attribution (always on; engine slow path) ----

    /** Adds @p ns of measured parked time for @p rank. */
    void addParkedNs(int rank, std::uint64_t ns);

    /** Accumulated parked ns for @p rank (-1 = unknown slot). */
    std::uint64_t parkedNs(int rank) const;

    /** Parked ns summed over every rank slot. */
    std::uint64_t totalParkedNs() const;

    // ---- results ----

    /** Samples observed in @p phase, summed over ranks. */
    std::uint64_t samples(ProfPhase phase) const;

    /** Samples observed in @p phase for @p rank (-1 = unknown). */
    std::uint64_t samples(ProfPhase phase, int rank) const;

    /**
     * Collapsed-stack flamegraph text, one `frame;frame count` line
     * per non-zero (rank, phase) bucket. Parked time is folded in as
     * `parked` frames scaled by hz so one unit ≈ one sample period.
     */
    void writeCollapsed(std::ostream& out) const;

    /** Exports `profiler.*` counters into @p registry. */
    void exportTo(MetricRegistry& registry) const;

    /** Folds a capture summary into the Chrome trace (one instant
     *  per phase with sample/ns args) when the recorder is enabled. */
    void foldIntoTrace() const;

    /** Zeroes samples, parked time, and tick counts. */
    void reset();

  private:
    struct alignas(64) ThreadSlot {
        std::atomic<std::uint64_t> state{0}; ///< packed (phase, rank)
    };

    struct alignas(64) ParkSlot {
        std::atomic<std::uint64_t> ns{0};
    };

    static std::uint64_t pack(ProfPhase phase, int rank);

    /** Slot index for the calling thread (registers on first use);
     *  -1 when the slot table is full. */
    int threadSlot();

    void samplerLoop();

    std::atomic<bool> enabled_{false};
    double hz_ = kDefaultHz;
    std::atomic<std::uint64_t> ticks_{0};

    std::atomic<int> slots_used_{0};
    ThreadSlot thread_slots_[kMaxThreads];
    /// Indexed by RankCounters::slotOf(rank).
    ParkSlot parked_ns_[RankCounters::kMaxRanks + 1];

    // Sample accumulation: written by the sampler thread, read by
    // reporters; the mutex also serializes start/stop.
    mutable std::mutex mutex_;
    std::vector<std::uint64_t> counts_; ///< [phase][rank slot], flat
    std::thread sampler_;
    bool running_ = false; ///< guarded by mutex_
    Monitor::SourceHandle monitor_source_;
};

/**
 * RAII phase publication: publishes (phase, rank) on construction and
 * restores the previous phase on destruction, so nested sites (a
 * mailbox wait inside a task step) attribute to the innermost phase.
 * A disabled profiler makes both ends one relaxed load.
 */
class ScopedProfPhase
{
  public:
    /** Publishes with the calling thread's obs::threadRank(). */
    explicit ScopedProfPhase(ProfPhase phase);

    ScopedProfPhase(ProfPhase phase, int rank);
    ~ScopedProfPhase();

    ScopedProfPhase(const ScopedProfPhase&) = delete;
    ScopedProfPhase& operator=(const ScopedProfPhase&) = delete;

  private:
    std::uint64_t previous_ = 0;
    bool active_ = false;
};

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_PROFILER_H_
