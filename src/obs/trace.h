#ifndef CCUBE_OBS_TRACE_H_
#define CCUBE_OBS_TRACE_H_

/**
 * @file
 * Chrome/Perfetto trace recording — the unified span substrate for
 * all three execution layers.
 *
 * Emits the `trace_event` JSON format (`ph:"X"` complete events plus
 * process/thread metadata) that `chrome://tracing` and Perfetto load
 * directly. Producers are grouped into pid namespaces:
 *
 *   - `pids::simNode(n)`  — DES network nodes; spans carry *simulated*
 *     time (channel occupancy, queue wait, multi-hop flows);
 *   - `pids::cclRank(r)`  — functional-runtime rank threads; spans
 *     carry *wall-clock* time since the recorder was enabled (mailbox
 *     post/wait, allreduce roles);
 *   - `pids::core()`      — analytic iteration timelines (backward /
 *     allreduce-chunk / forward phases, trainer iterations).
 *
 * Successive DES runs all start at simulated t = 0; the recorder keeps
 * a *sim epoch offset* that callers advance between runs so each run
 * lands after the previous one on the trace timeline.
 *
 * Overhead discipline: every producer checks `enabled()` (one relaxed
 * atomic load) before building an event; a disabled recorder costs one
 * branch per call site and records nothing.
 *
 * Memory discipline: retention is bounded. By default events land in a
 * vector capped at `capacity()` (overridable with setCapacity(), which
 * ObsSession's `--trace-capacity` calls); events beyond the cap
 * are counted in droppedEvents() instead of accumulating without
 * limit, so long sweeps with tracing left on cannot OOM.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccube {
namespace obs {

class MetricRegistry;

/** Pid namespaces separating the three producer layers in the UI. */
namespace pids {

/** Analytic iteration timeline (core::). */
constexpr int core() { return 1; }

/** DES network node @p node (simnet::). */
constexpr int simNode(int node) { return 100 + node; }

/** Functional-runtime rank @p rank (ccl::). */
constexpr int cclRank(int rank) { return 1000 + rank; }

} // namespace pids

/** Track (tid) used for multi-hop flow spans within a sim-node pid;
 *  channel occupancy spans use the channel id itself (small ints). */
constexpr int kFlowTrackBase = 1000;

/** One recorded event (complete span or instant). */
struct TraceEvent {
    std::string name;
    std::string cat;
    char phase = 'X'; ///< 'X' complete, 'i' instant
    int pid = 0;
    int tid = 0;
    double ts_us = 0.0;  ///< start, microseconds
    double dur_us = 0.0; ///< duration, microseconds ('X' only)
    std::vector<std::pair<std::string, double>> args;
};

/**
 * Thread-safe span/event recorder with Chrome trace JSON export.
 */
class TraceRecorder
{
  public:
    /** Event cap until setCapacity() changes it. */
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    TraceRecorder();
    ~TraceRecorder();
    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    /** The recorder the instrumentation hooks feed: the calling
     *  thread's obs::Capture::current() trace sink. */
    static TraceRecorder& global();

    /**
     * Merges @p other into this recorder as if its events had been
     * recorded here sequentially after everything recorded so far:
     * event timestamps are shifted by this recorder's current sim
     * epoch offset, process/thread names are adopted (theirs win on
     * collision, matching later-run-overwrites semantics), the drop
     * count is added, and this recorder's sim epoch advances by
     * @p other's accumulated offset. Ignores the enabled() gate; the
     * retention cap still applies. @p other is left unchanged.
     */
    void absorb(const TraceRecorder& other);

    /** Starts recording; resets the wall-clock epoch. */
    void enable();

    /** Stops recording (already-recorded events are kept). */
    void disable();

    /** True while recording. Producers gate on this before building
     *  events — the disabled cost is this single relaxed load. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Wall-clock microseconds since enable() (0 when disabled). */
    double wallNowUs() const;

    /** Records a complete ('X') span. Timestamps in microseconds;
     *  the caller owns the time domain (simulated or wall-clock). */
    void completeEvent(
        std::string_view name, std::string_view cat, int pid, int tid,
        double ts_us, double dur_us,
        std::initializer_list<std::pair<std::string_view, double>>
            args = {});

    /** Records an instant ('i') event. */
    void instantEvent(std::string_view name, std::string_view cat,
                      int pid, int tid, double ts_us);

    /** Records a fully-built event (producers that batch args). */
    void record(TraceEvent event);

    /** Names a pid group in the trace UI (metadata event). */
    void setProcessName(int pid, std::string_view name);

    /** Names a (pid, tid) track in the trace UI (metadata event). */
    void setThreadName(int pid, int tid, std::string_view name);

    /**
     * Offset (µs) added by DES producers to their simulated
     * timestamps, so that successive simulation runs serialize on the
     * trace timeline instead of stacking at t = 0.
     */
    double simOffsetUs() const;

    /** Advances the sim epoch past @p run_end_us (relative time of the
     *  run's completion). Call once after each simulation run. */
    void advanceSimEpoch(double run_end_us);

    /** Number of recorded events (metadata excluded). */
    std::size_t eventCount() const;

    /** Snapshot of all recorded events (metadata excluded). */
    std::vector<TraceEvent> snapshot() const;

    /** Drops all events, metadata, the sim epoch, and the dropped-
     *  event counter (the capacity is kept). */
    void clear();

    /** Writes `{"traceEvents": [...]}` Chrome trace JSON. */
    void writeJson(std::ostream& out) const;

    /**
     * Caps retained events at @p capacity (≥ 1). Events recorded past
     * the cap are dropped (newest-dropped) and counted.
     */
    void setCapacity(std::size_t capacity);

    /** Current retention cap. */
    std::size_t capacity() const;

    /** Events lost to the retention bound (drop-newest rejections). */
    std::uint64_t droppedEvents() const;

    /** Exports `trace.events`, `trace.dropped_events` counters into
     *  @p registry (unconditionally — callers gate on their own). */
    void exportTo(MetricRegistry& registry) const;

  private:
    void push(TraceEvent&& event);

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_{};

    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    std::size_t capacity_ = kDefaultCapacity;
    std::uint64_t dropped_ = 0; ///< drop-newest count
    std::map<int, std::string> process_names_;
    std::map<std::pair<int, int>, std::string> thread_names_;
    double sim_offset_us_ = 0.0;
};

/**
 * RAII wall-clock span against a recorder: measures from construction
 * to destruction and records one complete event. A no-op (no clock
 * reads, no allocation) when the recorder is disabled at construction.
 */
class ScopedSpan
{
  public:
    ScopedSpan(TraceRecorder& recorder, std::string_view name,
               std::string_view cat, int pid, int tid);

    /** Convenience: spans the global recorder. */
    ScopedSpan(std::string_view name, std::string_view cat, int pid,
               int tid);

    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** Attaches a numeric argument to the span (recorded at close). */
    void arg(std::string_view key, double value);

  private:
    TraceRecorder* recorder_ = nullptr; ///< null when disabled
    std::string name_;
    std::string cat_;
    int pid_ = 0;
    int tid_ = 0;
    double start_us_ = 0.0;
    std::vector<std::pair<std::string, double>> args_;
};

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_TRACE_H_
