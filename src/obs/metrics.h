#ifndef CCUBE_OBS_METRICS_H_
#define CCUBE_OBS_METRICS_H_

/**
 * @file
 * Named metrics — counters, gauges, and histograms — with CSV/JSON
 * export.
 *
 * Histograms are util::RunningStats accumulators, so every sample
 * stream gets count/mean/min/max/stddev for free. The registry is
 * pull-oriented: hot paths keep cheap local state (atomics, per-object
 * accumulators) and export into a registry at the end of a run; only
 * warm paths write through the registry's mutex directly.
 *
 * The global registry is gated by enable(): instrumentation that would
 * otherwise add per-event map lookups checks `enabled()` first, so an
 * un-observed run pays one relaxed atomic load per site.
 */

#include <atomic>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "util/stats.h"

namespace ccube {
namespace obs {

/**
 * Thread-safe registry of named counters, gauges, and histograms.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry&) = delete;
    MetricRegistry& operator=(const MetricRegistry&) = delete;

    /** The registry instrumentation writes through: the calling
     *  thread's obs::Capture::current() metrics sink. */
    static MetricRegistry& global();

    /**
     * Merges @p other into this registry as if its writes had happened
     * here: counters add, gauges overwrite (last writer wins, matching
     * sequential-run semantics), histograms merge. Ignores the
     * enabled() gate. @p other is left unchanged.
     */
    void absorb(const MetricRegistry& other);

    /** Opens the gate for instrumentation that writes through here. */
    void enable() { enabled_.store(true, std::memory_order_release); }

    /** Closes the gate (accumulated metrics are kept). */
    void disable() { enabled_.store(false, std::memory_order_release); }

    /** True when instrumentation should export into this registry. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Adds @p delta to counter @p name (created at 0). */
    void addCounter(const std::string& name, double delta);

    /** Counter value; 0 when never written. */
    double counter(const std::string& name) const;

    /** Sets gauge @p name to @p value. */
    void setGauge(const std::string& name, double value);

    /** Gauge value; 0 when never set. */
    double gauge(const std::string& name) const;

    /** True when the gauge has been set. */
    bool hasGauge(const std::string& name) const;

    /** Adds one sample to histogram @p name. */
    void observe(const std::string& name, double sample);

    /** Merges @p stats into histogram @p name. */
    void mergeHistogram(const std::string& name,
                        const util::RunningStats& stats);

    /** Histogram accumulator; empty stats when never observed. */
    util::RunningStats histogram(const std::string& name) const;

    /**
     * Adds one sample to quantile histogram @p name — the
     * LogHistogram-backed kind for hot counters whose p50/p99/p999
     * matter. Bounded memory, deterministic under sweep:: absorb.
     */
    void observeQuantile(const std::string& name, double sample);

    /** Merges @p histogram into quantile histogram @p name. */
    void mergeQuantileHistogram(const std::string& name,
                                const LogHistogram& histogram);

    /** Quantile histogram; empty histogram when never observed. */
    LogHistogram quantileHistogram(const std::string& name) const;

    /** All metric names, sorted, with their kind. */
    std::vector<std::pair<std::string, std::string>> names() const;

    /** Drops every metric (the gate is left as-is). */
    void clear();

    /**
     * Writes one row per metric:
     * `name,kind,count,value,mean,min,max,stddev`. Counters and gauges
     * fill `value`; histograms fill the sample-statistics columns.
     */
    void writeCsv(std::ostream& out) const;

    /** Writes the same content as a JSON object keyed by name. */
    void writeJson(std::ostream& out) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::map<std::string, double> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, util::RunningStats> histograms_;
    std::map<std::string, LogHistogram> quantile_histograms_;
};

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_METRICS_H_
