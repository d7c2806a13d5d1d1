#include "obs/session.h"

#include <fstream>

#include "obs/analyze.h"
#include "obs/capture.h"
#include "obs/context.h"
#include "obs/diff.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace obs {

namespace {

bool
endsWithJson(const std::string& path)
{
    static const std::string suffix = ".json";
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

ObsSession::ObsSession(const util::Flags& flags)
    : trace_path_(flags.get("trace-out")),
      metrics_path_(flags.get("metrics-out")),
      report_path_(flags.get("report-out")),
      monitor_path_(flags.get("monitor-out")),
      openmetrics_path_(flags.get("monitor-openmetrics")),
      rootcause_path_(flags.get("rootcause-out")),
      profile_path_(flags.get("profile-out")),
      profile_hz_(flags.getDouble("profile-hz", 0.0))
{
    const Capture& capture = Capture::current();
    // --trace-capacity applies before capture starts.
    if (const int capacity = flags.getInt("trace-capacity", 0);
        capacity > 0)
        capture.trace().setCapacity(static_cast<std::size_t>(capacity));
    if (tracing() || reporting() || rootCause())
        capture.trace().enable();
    if (metrics())
        capture.metrics().enable();
    if (monitoring()) {
        if (openmetrics_path_.empty())
            openmetrics_path_ = monitor_path_ + ".om";
        Monitor& monitor = capture.monitor();
        monitor.setInterval(flags.getDouble("monitor-interval", 0.0));
        monitor.setSlo(SloSpec::fromFlags(flags));
        monitor.enable();
    }
    if (profiling())
        Profiler::global().start(profile_hz_);
}

ObsSession::~ObsSession()
{
    finish();
}

void
ObsSession::finish()
{
    if (finished_)
        return;
    finished_ = true;

    const Capture& capture = Capture::current();
    TraceRecorder& recorder = capture.trace();
    MetricRegistry& registry = capture.metrics();
    Monitor& monitor = capture.monitor();

    if (profiling()) {
        Profiler& profiler = Profiler::global();
        profiler.stop();
        profiler.foldIntoTrace();
        if (metrics())
            profiler.exportTo(registry);
        std::ofstream out(profile_path_);
        if (!out) {
            util::logWarn("obs", "cannot open profile file " +
                                     profile_path_);
        } else {
            profiler.writeCollapsed(out);
            util::logInfo(
                "obs",
                "wrote collapsed-stack profile (" +
                    std::to_string(profiler.ticks()) +
                    " sampler ticks) to " + profile_path_);
        }
    }

    if (metrics()) {
        RankCounters::global().exportTo(registry);
        if (tracing() || reporting() || rootCause())
            recorder.exportTo(registry);
        if (monitoring()) {
            registry.addCounter(
                "monitor.snapshots",
                static_cast<double>(monitor.snapshotCount()));
            registry.addCounter(
                "slo.collective.total",
                static_cast<double>(monitor.collectivesTotal()));
            registry.addCounter(
                "slo.collective.violations",
                static_cast<double>(monitor.collectiveViolations()));
            registry.mergeQuantileHistogram(
                "slo.collective.latency_s",
                monitor.collectiveLatency());
        }
    }

    if (tracing()) {
        std::ofstream out(trace_path_);
        if (!out) {
            util::logWarn("obs", "cannot open trace file " + trace_path_);
        } else {
            recorder.writeJson(out);
            util::logInfo("obs",
                          "wrote " + std::to_string(recorder.eventCount()) +
                              " trace events to " + trace_path_);
        }
    }

    if (reporting()) {
        std::ofstream out(report_path_);
        if (!out) {
            util::logWarn("obs",
                          "cannot open report file " + report_path_);
        } else {
            const TraceAnalyzer analyzer =
                TraceAnalyzer::fromRecorder(recorder);
            writeAnalysisReport(out, analyzer,
                                metrics() ? &registry : nullptr);
            util::logInfo("obs", "wrote analysis report to " +
                                     report_path_);
        }
    }

    if (rootCause()) {
        std::ofstream out(rootcause_path_);
        if (!out) {
            util::logWarn("obs", "cannot open root-cause file " +
                                     rootcause_path_);
        } else {
            const TraceAnalyzer analyzer =
                TraceAnalyzer::fromRecorder(recorder);
            const RootCauseReport report = analyzeRootCause(
                analyzer, metrics() ? &registry : nullptr);
            writeRootCauseReport(out, report);
            util::logInfo("obs", "wrote root-cause report to " +
                                     rootcause_path_);
        }
    }

    if (monitoring()) {
        std::ofstream out(monitor_path_);
        if (!out) {
            util::logWarn("obs", "cannot open monitor file " +
                                     monitor_path_);
        } else {
            monitor.writeJsonl(out);
            util::logInfo(
                "obs",
                "wrote " + std::to_string(monitor.snapshotCount()) +
                    " monitor snapshots to " + monitor_path_);
        }
        std::ofstream om(openmetrics_path_);
        if (!om)
            util::logWarn("obs", "cannot open OpenMetrics file " +
                                     openmetrics_path_);
        else
            monitor.writeOpenMetrics(om);
        monitor.disable();
    }

    if (tracing() || reporting() || rootCause())
        recorder.disable();

    if (metrics()) {
        std::ofstream out(metrics_path_);
        if (!out) {
            util::logWarn("obs",
                          "cannot open metrics file " + metrics_path_);
        } else if (endsWithJson(metrics_path_)) {
            registry.writeJson(out);
        } else {
            registry.writeCsv(out);
        }
        registry.disable();
    }
}

} // namespace obs
} // namespace ccube
