#ifndef CCUBE_OBS_MONITOR_H_
#define CCUBE_OBS_MONITOR_H_

/**
 * @file
 * obs::Monitor — live telemetry and SLO tracking.
 *
 * The recorder/registry pair is strictly post-mortem: nothing is
 * observable until a run finishes and exports. The Monitor closes that
 * gap with a periodic snapshot engine driven from two edges:
 *
 *   - DES heartbeats: sim::Simulation::run() chops the event loop
 *     into --monitor-interval slices (sim::EventQueue::runUntil) and
 *     snapshots registered gauge sources at each tick — per-channel
 *     busy fraction, per-rank mailbox stall time, CAS retries;
 *   - collective-completion edges: every simnet schedule runner and
 *     the functional ccl::Communicator report (name, start, end,
 *     bytes), feeding latency histograms and the SLO engine.
 *
 * Snapshots are appended to a bounded in-memory series and serialized
 * as JSONL plus an OpenMetrics-style text endpoint file by
 * ObsSession::finish(). Latencies go into LogHistogram (p50/p99/p999
 * with deterministic merge), and the monitor is one of the three
 * sinks of an obs::Capture, forked per sweep task and absorbed in
 * task order like the trace recorder and metric registry, so a
 * sweep's monitor series is byte-identical for --jobs=1 and --jobs=8.
 *
 * Timestamps are simulated seconds within a run plus a run ordinal
 * (every Simulation::run() under an enabled monitor opens a new run):
 * no wall-clock values enter the series from DES paths, which is what
 * licenses the byte-identity contract. Wall-clock collective edges
 * from the functional runtime carry run ordinal 0.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace ccube {

namespace util {
class Flags;
}

namespace obs {

/**
 * Deadline budgets for the SLO engine. A zero deadline disables that
 * budget. Resolved from flags (--slo-collective-ms, --slo-mttr-ms);
 * a negative or non-numeric value dies naming the flag.
 */
struct SloSpec {
    double collective_deadline_s = 0.0;
    /** Mean-time-to-recover budget: a supervised recovery whose MTTR
     *  exceeds this counts as an SLO violation. */
    double mttr_budget_s = 0.0;

    static SloSpec fromFlags(const util::Flags& flags);

    bool any() const
    {
        return collective_deadline_s > 0.0 || mttr_budget_s > 0.0;
    }
};

/** One row of the monitor time-series. */
struct MonitorSnapshot {
    int run = 0;          ///< run ordinal (0 = wall-clock / no run)
    double t_s = 0.0;     ///< simulated seconds within the run
    std::string trigger;  ///< "heartbeat", "collective", ...
    std::string label;    ///< collective name, if any
    std::vector<std::pair<std::string, double>> values;
};

/**
 * Live telemetry hub. Thread-safe; gated like the registry so an
 * un-monitored run pays one relaxed atomic load per site.
 */
class Monitor
{
  public:
    /// Bound on the retained snapshot series; later snapshots are
    /// dropped.
    static constexpr std::size_t kMaxSnapshots = std::size_t{1} << 16;

    using SampleFn = std::function<void(
        double t_s, std::vector<std::pair<std::string, double>>&)>;

    /** Deleter of a SourceHandle: removes its source. */
    struct SourceRemover {
        int token = 0;
        void operator()(Monitor* monitor) const
        {
            monitor->removeSource(token);
        }
    };

    /**
     * Owns one registered gauge source: destroying or resetting the
     * handle removes the source from the monitor it was added to,
     * whichever capture is current by then. Must not outlive that
     * monitor.
     */
    using SourceHandle = std::unique_ptr<Monitor, SourceRemover>;

    Monitor() = default;
    Monitor(const Monitor&) = delete;
    Monitor& operator=(const Monitor&) = delete;

    /** The monitor instrumentation writes through: the calling
     *  thread's obs::Capture::current() monitor sink. */
    static Monitor& global();

    /** Opens the gate for instrumentation that writes through here. */
    void enable() { enabled_.store(true, std::memory_order_release); }

    /** Closes the gate (accumulated snapshots are kept). */
    void disable() { enabled_.store(false, std::memory_order_release); }

    /** True when instrumentation should report into this monitor. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Sets the heartbeat interval in simulated seconds (<= 0 turns
     *  heartbeats off; collective edges still snapshot). */
    void setInterval(double seconds);

    /** Heartbeat interval in simulated seconds. */
    double interval() const;

    /** Installs the SLO budgets. */
    void setSlo(const SloSpec& spec);

    /** Current SLO budgets. */
    SloSpec slo() const;

    /**
     * Registers a gauge source sampled at every snapshot until the
     * returned handle goes. Sources must tolerate being sampled from
     * the thread that drives the simulation.
     */
    [[nodiscard]] SourceHandle addSource(SampleFn fn);

    /** Opens a new run ordinal (called by sim::Simulation::run). */
    void beginRun();

    /** Snapshot triggered by the DES heartbeat at sim time @p t_s. */
    void heartbeat(double t_s);

    /**
     * Collective-completion edge: records latency (@p end_s -
     * @p start_s, simulated or wall seconds), applies the collective
     * SLO budget, and snapshots. @p completed false marks a collective
     * that aborted / stalled (watchdog or fault): it counts as an SLO
     * violation regardless of latency.
     */
    void collectiveComplete(const std::string& name, double start_s,
                            double end_s, double bytes,
                            bool completed = true);

    /** Records a watchdog trip attributed to @p rank. */
    void noteWatchdogTrip(int rank);

    /**
     * Records one completed supervised recovery: @p mttr_s wall
     * seconds from fault detection to the collective completing again,
     * after @p retries retried attempts. Snapshots
     * `recovery.mttr_ms` / `recovery.retries` and applies the MTTR
     * SLO budget.
     */
    void noteRecovery(double mttr_s, int retries);

    // ---- accessors (reports, tests) ----

    std::size_t snapshotCount() const;
    std::vector<MonitorSnapshot> snapshots() const;
    std::uint64_t collectivesTotal() const;
    std::uint64_t collectiveViolations() const;
    std::uint64_t recoveriesTotal() const;
    std::uint64_t recoveryViolations() const;
    std::uint64_t recoveryRetriesTotal() const;
    LogHistogram collectiveLatency() const; ///< seconds
    LogHistogram recoveryMttr() const;      ///< seconds

    /**
     * Merges @p other as if its activity had happened here: snapshots
     * append with run ordinals renumbered after this monitor's runs
     * (preserving @p other's internal order), counters add, latency
     * histograms merge. Sources are not transferred. Ignores the
     * enabled() gate. @p other is left unchanged.
     */
    void absorb(const Monitor& other);

    /** Drops snapshots, counters, and histograms (gate, interval,
     *  SLO spec, and sources are left as-is). */
    void clear();

    /** Writes the snapshot series as JSONL, one row per snapshot. */
    void writeJsonl(std::ostream& out) const;

    /**
     * Writes cumulative state (SLO counters, latency summary
     * quantiles, gauges from the newest snapshot) in OpenMetrics-style
     * text exposition format.
     */
    void writeOpenMetrics(std::ostream& out) const;

  private:
    struct Source {
        int token = 0;
        SampleFn fn;
    };

    /** Unregisters a source (SourceRemover). */
    void removeSource(int token);

    /** Appends one snapshot; assumes mutex_ held. */
    void snapshotLocked(const char* trigger, const std::string& label,
                        double t_s,
                        std::vector<std::pair<std::string, double>>
                            values);

    /** Samples sources + rank counters; assumes mutex_ held. */
    std::vector<std::pair<std::string, double>>
    sampleLocked(double t_s);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    double interval_s_ = 0.0;
    SloSpec slo_;
    std::vector<Source> sources_;
    /// Capacity hint for the next sample (size of the last one), so
    /// steady-state heartbeats do one vector allocation, not log(n).
    std::size_t last_sample_size_ = 0;
    int next_token_ = 1;
    int run_counter_ = 0;
    int current_run_ = 0;
    std::vector<MonitorSnapshot> snapshots_;
    std::uint64_t collectives_total_ = 0;
    std::uint64_t collective_violations_ = 0;
    std::uint64_t watchdog_trips_ = 0;
    std::uint64_t recoveries_total_ = 0;
    std::uint64_t recovery_violations_ = 0;
    std::uint64_t recovery_retries_total_ = 0;
    LogHistogram collective_latency_s_;
    LogHistogram recovery_mttr_s_;
};

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_MONITOR_H_
