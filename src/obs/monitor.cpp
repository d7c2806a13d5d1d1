#include "obs/monitor.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/capture.h"
#include "obs/context.h"
#include "util/flags.h"
#include "util/logging.h"

namespace ccube {
namespace obs {

namespace {

void
writeJsonString(std::ostream& out, const std::string& s)
{
    out << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out << '\\';
        out << c;
    }
    out << '"';
}

/** OpenMetrics label values escape backslash, quote, and newline. */
std::string
escapeLabel(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

/** Budget flag --@p name in ms (0 when absent); dies when negative. */
double
budgetMs(const util::Flags& flags, const char* name)
{
    const double ms = flags.getDouble(name, 0.0);
    CCUBE_CHECK(ms >= 0.0, "--" << name << " must not be negative, got '"
                                << flags.get(name) << "'");
    return ms;
}

} // namespace

SloSpec
SloSpec::fromFlags(const util::Flags& flags)
{
    SloSpec spec;
    spec.collective_deadline_s =
        budgetMs(flags, "slo-collective-ms") * 1e-3;
    spec.mttr_budget_s = budgetMs(flags, "slo-mttr-ms") * 1e-3;
    return spec;
}

Monitor&
Monitor::global()
{
    return Capture::current().monitor();
}

void
Monitor::setInterval(double seconds)
{
    std::lock_guard<std::mutex> guard(mutex_);
    interval_s_ = seconds;
}

double
Monitor::interval() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return interval_s_;
}

void
Monitor::setSlo(const SloSpec& spec)
{
    std::lock_guard<std::mutex> guard(mutex_);
    slo_ = spec;
}

SloSpec
Monitor::slo() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return slo_;
}

Monitor::SourceHandle
Monitor::addSource(SampleFn fn)
{
    std::lock_guard<std::mutex> guard(mutex_);
    const int token = next_token_++;
    sources_.push_back(Source{token, std::move(fn)});
    return SourceHandle(this, SourceRemover{token});
}

void
Monitor::removeSource(int token)
{
    std::lock_guard<std::mutex> guard(mutex_);
    sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                  [token](const Source& source) {
                                      return source.token == token;
                                  }),
                   sources_.end());
}

void
Monitor::beginRun()
{
    std::lock_guard<std::mutex> guard(mutex_);
    current_run_ = ++run_counter_;
}

void
Monitor::heartbeat(double t_s)
{
    std::lock_guard<std::mutex> guard(mutex_);
    snapshotLocked("heartbeat", std::string(), t_s,
                   sampleLocked(t_s));
}

void
Monitor::collectiveComplete(const std::string& name, double start_s,
                            double end_s, double bytes, bool completed)
{
    std::lock_guard<std::mutex> guard(mutex_);
    const double latency = end_s - start_s;
    ++collectives_total_;
    collective_latency_s_.add(latency);
    const bool violated =
        !completed || (slo_.collective_deadline_s > 0.0 &&
                       latency > slo_.collective_deadline_s);
    if (violated)
        ++collective_violations_;
    auto values = sampleLocked(end_s);
    values.emplace_back("collective.bytes", bytes);
    values.emplace_back("collective.latency_s", latency);
    values.emplace_back("collective.completed", completed ? 1.0 : 0.0);
    snapshotLocked("collective", name, end_s, std::move(values));
}

void
Monitor::noteWatchdogTrip(int rank)
{
    std::lock_guard<std::mutex> guard(mutex_);
    ++watchdog_trips_;
    std::vector<std::pair<std::string, double>> values;
    values.emplace_back("watchdog.rank",
                        static_cast<double>(rank));
    values.emplace_back("watchdog.trips",
                        static_cast<double>(watchdog_trips_));
    snapshotLocked("watchdog", "watchdog_trip", 0.0,
                   std::move(values));
}

void
Monitor::noteRecovery(double mttr_s, int retries)
{
    std::lock_guard<std::mutex> guard(mutex_);
    ++recoveries_total_;
    recovery_retries_total_ += static_cast<std::uint64_t>(
        retries > 0 ? retries : 0);
    recovery_mttr_s_.add(mttr_s);
    if (slo_.mttr_budget_s > 0.0 && mttr_s > slo_.mttr_budget_s)
        ++recovery_violations_;
    std::vector<std::pair<std::string, double>> values;
    values.emplace_back("recovery.mttr_ms", mttr_s * 1e3);
    values.emplace_back("recovery.retries",
                        static_cast<double>(retries));
    values.emplace_back("recovery.total",
                        static_cast<double>(recoveries_total_));
    values.emplace_back("recovery.violations",
                        static_cast<double>(recovery_violations_));
    snapshotLocked("recovery", "recovery", 0.0, std::move(values));
}

std::size_t
Monitor::snapshotCount() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return snapshots_.size();
}

std::vector<MonitorSnapshot>
Monitor::snapshots() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return snapshots_;
}

std::uint64_t
Monitor::collectivesTotal() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return collectives_total_;
}

std::uint64_t
Monitor::collectiveViolations() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return collective_violations_;
}

std::uint64_t
Monitor::recoveriesTotal() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return recoveries_total_;
}

std::uint64_t
Monitor::recoveryViolations() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return recovery_violations_;
}

std::uint64_t
Monitor::recoveryRetriesTotal() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return recovery_retries_total_;
}

LogHistogram
Monitor::recoveryMttr() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return recovery_mttr_s_;
}

LogHistogram
Monitor::collectiveLatency() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return collective_latency_s_;
}

void
Monitor::absorb(const Monitor& other)
{
    if (&other == this)
        return;
    std::scoped_lock guard(mutex_, other.mutex_);
    const int run_base = run_counter_;
    for (const MonitorSnapshot& snapshot : other.snapshots_) {
        if (snapshots_.size() >= kMaxSnapshots)
            break;
        MonitorSnapshot copy = snapshot;
        if (copy.run > 0)
            copy.run += run_base;
        snapshots_.push_back(std::move(copy));
    }
    run_counter_ += other.run_counter_;
    current_run_ = run_counter_;
    collectives_total_ += other.collectives_total_;
    collective_violations_ += other.collective_violations_;
    watchdog_trips_ += other.watchdog_trips_;
    recoveries_total_ += other.recoveries_total_;
    recovery_violations_ += other.recovery_violations_;
    recovery_retries_total_ += other.recovery_retries_total_;
    collective_latency_s_.merge(other.collective_latency_s_);
    recovery_mttr_s_.merge(other.recovery_mttr_s_);
}

void
Monitor::clear()
{
    std::lock_guard<std::mutex> guard(mutex_);
    snapshots_.clear();
    run_counter_ = 0;
    current_run_ = 0;
    collectives_total_ = 0;
    collective_violations_ = 0;
    watchdog_trips_ = 0;
    recoveries_total_ = 0;
    recovery_violations_ = 0;
    recovery_retries_total_ = 0;
    collective_latency_s_.clear();
    recovery_mttr_s_.clear();
}

void
Monitor::snapshotLocked(const char* trigger, const std::string& label,
                        double t_s,
                        std::vector<std::pair<std::string, double>>
                            values)
{
    if (snapshots_.size() >= kMaxSnapshots)
        return;
    std::stable_sort(values.begin(), values.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    MonitorSnapshot snapshot;
    snapshot.run = current_run_;
    snapshot.t_s = t_s;
    snapshot.trigger = trigger;
    snapshot.label = label;
    snapshot.values = std::move(values);
    snapshots_.push_back(std::move(snapshot));
}

std::vector<std::pair<std::string, double>>
Monitor::sampleLocked(double t_s)
{
    std::vector<std::pair<std::string, double>> values;
    values.reserve(last_sample_size_ + 8);
    for (Source& source : sources_)
        source.fn(t_s, values);

    // Cumulative SLO state rides on every snapshot so a JSONL row is
    // self-contained (a dashboard can plot violations without joins).
    values.emplace_back("slo.collective.total",
                        static_cast<double>(collectives_total_));
    values.emplace_back("slo.collective.violations",
                        static_cast<double>(collective_violations_));
    if (!collective_latency_s_.empty()) {
        values.emplace_back("slo.collective.p50_s",
                            collective_latency_s_.quantile(0.50));
        values.emplace_back("slo.collective.p99_s",
                            collective_latency_s_.quantile(0.99));
        values.emplace_back("slo.collective.p999_s",
                            collective_latency_s_.quantile(0.999));
    }

    // Per-rank functional-runtime counters (mailbox stalls, CAS
    // retries). Zero — and therefore absent — in pure-DES runs, which
    // keeps DES snapshot series wall-clock free and deterministic.
    const RankCounters& ranks = RankCounters::global();
    const int bound = RankCounters::rankBound();
    for (int rank = 0; rank < bound; ++rank) {
        const std::uint64_t cas = ranks.casRetries(rank);
        const std::uint64_t post_ns = ranks.postStallNs(rank);
        const std::uint64_t wait_ns = ranks.waitStallNs(rank);
        const std::uint64_t slot_full = ranks.slotFullStalls(rank);
        if (cas == 0 && post_ns == 0 && wait_ns == 0 &&
            slot_full == 0)
            continue;
        const std::string prefix =
            "rank." + std::to_string(rank) + '.';
        if (cas)
            values.emplace_back(prefix + "cas_retries",
                                static_cast<double>(cas));
        if (post_ns)
            values.emplace_back(prefix + "post_stall_ns",
                                static_cast<double>(post_ns));
        if (wait_ns)
            values.emplace_back(prefix + "wait_stall_ns",
                                static_cast<double>(wait_ns));
        if (slot_full)
            values.emplace_back(prefix + "slot_full_stalls",
                                static_cast<double>(slot_full));
    }
    last_sample_size_ = values.size();
    return values;
}

void
Monitor::writeJsonl(std::ostream& out) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    const auto saved_precision = out.precision(12);
    for (const MonitorSnapshot& snapshot : snapshots_) {
        out << "{\"run\": " << snapshot.run
            << ", \"t_s\": " << snapshot.t_s << ", \"trigger\": ";
        writeJsonString(out, snapshot.trigger);
        if (!snapshot.label.empty()) {
            out << ", \"label\": ";
            writeJsonString(out, snapshot.label);
        }
        out << ", \"values\": {";
        bool first = true;
        for (const auto& [name, value] : snapshot.values) {
            if (!first)
                out << ", ";
            first = false;
            writeJsonString(out, name);
            out << ": " << value;
        }
        out << "}}\n";
    }
    out.precision(saved_precision);
}

void
Monitor::writeOpenMetrics(std::ostream& out) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    const auto saved_precision = out.precision(12);
    out << "# TYPE ccube_monitor_snapshots counter\n"
        << "ccube_monitor_snapshots_total " << snapshots_.size()
        << "\n";
    out << "# TYPE ccube_slo_collective counter\n"
        << "ccube_slo_collective_total " << collectives_total_ << "\n";
    out << "# TYPE ccube_slo_collective_violations counter\n"
        << "ccube_slo_collective_violations_total "
        << collective_violations_ << "\n";
    out << "# TYPE ccube_watchdog_trips counter\n"
        << "ccube_watchdog_trips_total " << watchdog_trips_ << "\n";
    out << "# TYPE ccube_recoveries counter\n"
        << "ccube_recoveries_total " << recoveries_total_ << "\n";
    out << "# TYPE ccube_recovery_violations counter\n"
        << "ccube_recovery_violations_total " << recovery_violations_
        << "\n";
    out << "# TYPE ccube_recovery_retries counter\n"
        << "ccube_recovery_retries_total " << recovery_retries_total_
        << "\n";
    const auto writeSummary = [&out](const char* name,
                                     const LogHistogram& histogram) {
        out << "# TYPE " << name << " summary\n";
        for (double q : {0.5, 0.99, 0.999}) {
            out << name << "{quantile=\"" << q << "\"} "
                << (histogram.empty() ? 0.0 : histogram.quantile(q))
                << "\n";
        }
        out << name << "_sum " << histogram.sum() << "\n"
            << name << "_count " << histogram.count() << "\n";
    };
    writeSummary("ccube_collective_latency_seconds",
                 collective_latency_s_);
    writeSummary("ccube_recovery_mttr_seconds", recovery_mttr_s_);
    if (!snapshots_.empty()) {
        // Newest snapshot = the "current" value of every gauge.
        const MonitorSnapshot& last = snapshots_.back();
        out << "# TYPE ccube_monitor_gauge gauge\n";
        for (const auto& [name, value] : last.values)
            out << "ccube_monitor_gauge{name=\"" << escapeLabel(name)
                << "\"} " << value << "\n";
    }
    out << "# EOF\n";
    out.precision(saved_precision);
}

} // namespace obs
} // namespace ccube
