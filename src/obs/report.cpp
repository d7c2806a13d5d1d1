#include "obs/report.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze.h"
#include "obs/metrics.h"

namespace ccube {
namespace obs {

namespace {

void
rule(std::ostream& out, const char* title)
{
    out << "\n--- " << title << " ---\n";
}

std::string
fmtBytes(double bytes)
{
    const char* unit = "B";
    double value = bytes;
    if (value >= 1e9) {
        value /= 1e9;
        unit = "GB";
    } else if (value >= 1e6) {
        value /= 1e6;
        unit = "MB";
    } else if (value >= 1e3) {
        value /= 1e3;
        unit = "KB";
    }
    std::ostringstream s;
    s << std::fixed << std::setprecision(value < 10 ? 2 : 1) << value
      << unit;
    return s.str();
}

void
writeBreakdownRow(std::ostream& out, const char* label, double us,
                  double total_us)
{
    out << "  " << std::left << std::setw(14) << label << std::right
        << std::setw(12) << std::fixed << std::setprecision(2) << us
        << " us";
    if (total_us > 0.0) {
        out << "  (" << std::setw(5) << std::setprecision(1)
            << 100.0 * us / total_us << "%)";
    }
    out << "\n";
}

/** Channel-table row cap. */
constexpr int kMaxChannels = 32;

/** Critical-path rows printed. */
constexpr int kMaxSteps = 24;

} // namespace

void
writeAnalysisReport(std::ostream& out, const TraceAnalyzer& analyzer,
                    const MetricRegistry* registry,
                    const model::AlphaBeta* reference)
{
    const TimeInterval window = analyzer.channelWindow();

    out << "=== ccube trace analysis ===\n";
    if (registry != nullptr &&
        registry->counter("trace.dropped_events") > 0.0) {
        out << "WARNING: trace truncated ("
            << static_cast<long>(
                   registry->counter("trace.dropped_events"))
            << " events dropped), analysis may be partial\n";
    }
    out << "events: " << analyzer.events().size()
        << "  channels: " << analyzer.channels().size()
        << "  transfers: " << analyzer.transfers().size() << "\n";
    out << std::fixed << std::setprecision(2);
    out << "channel window: [" << window.start_us << ", "
        << window.end_us << "] us  (span " << window.durationUs()
        << " us)\n";

    // --- Channel utilization table. ---------------------------------
    rule(out, "channel utilization");
    if (analyzer.channels().empty()) {
        out << "(no channel traffic recorded)\n";
    } else {
        out << std::right << std::setw(5) << "chan" << std::setw(6)
            << "pid" << std::setw(7) << "xfers" << std::setw(10)
            << "bytes" << std::setw(12) << "busy_us" << std::setw(8)
            << "util%" << std::setw(8) << "idle%" << std::setw(14)
            << "max_idle_us" << "  name\n";
        int rows = 0;
        for (const ChannelTimeline& channel : analyzer.channels()) {
            if (rows++ >= kMaxChannels) {
                out << "  ... "
                    << analyzer.channels().size() - kMaxChannels
                    << " more channels elided\n";
                break;
            }
            const auto gaps = channel.idleIntervals(window);
            double max_gap = 0.0;
            for (const TimeInterval& gap : gaps)
                max_gap = std::max(max_gap, gap.durationUs());
            out << std::setw(5) << channel.channel << std::setw(6)
                << channel.pid << std::setw(7) << channel.transfers
                << std::setw(10) << fmtBytes(channel.bytes)
                << std::setw(12) << std::setprecision(2)
                << channel.busy_us << std::setw(7)
                << std::setprecision(1)
                << 100.0 * channel.utilization(window) << "%"
                << std::setw(7)
                << 100.0 * channel.idleFraction(window) << "%"
                << std::setw(14) << std::setprecision(2) << max_gap
                << "  " << channel.name << "\n";
        }
    }

    // --- α-β fit. ---------------------------------------------------
    rule(out, "alpha-beta fit (occupancy = alpha + beta * bytes)");
    const AlphaBetaFit fit = analyzer.fitAlphaBeta();
    if (!fit.valid) {
        out << "(not enough distinct transfer sizes: " << fit.samples
            << " samples)\n";
    } else {
        out << "samples: " << fit.samples << "  r2: "
            << std::setprecision(4) << fit.r2 << "\n";
        out << "alpha: " << std::scientific << std::setprecision(3)
            << fit.alpha_s << " s  beta: " << fit.beta_s_per_byte
            << " s/B  (bandwidth " << std::fixed
            << std::setprecision(2) << fit.bandwidth() / 1e9
            << " GB/s)\n";
        if (reference) {
            out << "reference alpha: " << std::scientific
                << std::setprecision(3) << reference->alpha
                << " s  (rel err " << std::fixed
                << std::setprecision(1)
                << 100.0 * fit.alphaRelError(*reference)
                << "%)\n";
            out << "reference beta:  " << std::scientific
                << std::setprecision(3) << reference->beta
                << " s/B  (rel err " << std::fixed
                << std::setprecision(1)
                << 100.0 * fit.betaRelError(*reference)
                << "%)\n";
        }
    }

    // --- Critical path. ---------------------------------------------
    rule(out, "critical path");
    const CriticalPath path = analyzer.criticalPath(
        fit.valid ? fit.alpha_s * 1e6 : 0.0);
    if (path.empty()) {
        out << "(no spans)\n";
    } else {
        out << std::fixed << std::setprecision(2);
        out << "steps: " << path.steps.size() << "  span: "
            << path.spanUs() << " us  busy: " << path.busy_us
            << " us\n";
        const double total = path.breakdown.totalUs();
        writeBreakdownRow(out, "startup", path.breakdown.startup_us,
                          total);
        writeBreakdownRow(out, "serialization",
                          path.breakdown.serialization_us, total);
        writeBreakdownRow(out, "sync_stall",
                          path.breakdown.sync_stall_us, total);
        writeBreakdownRow(out, "reduction",
                          path.breakdown.reduction_us, total);
        writeBreakdownRow(out, "other", path.breakdown.other_us,
                          total);
        out << "steps (first " << kMaxSteps << "):\n";
        out << std::right << std::setw(5) << "#" << std::setw(15)
            << "kind" << std::setw(12) << "ts_us" << std::setw(12)
            << "dur_us" << std::setw(12) << "stall_us"
            << "  pid/tid  name\n";
        int rows = 0;
        for (const PathStep& step : path.steps) {
            if (rows >= kMaxSteps) {
                out << "  ... "
                    << path.steps.size() -
                           static_cast<std::size_t>(kMaxSteps)
                    << " more steps elided\n";
                break;
            }
            out << std::setw(5) << rows++ << std::setw(15)
                << costKindName(step.kind) << std::setw(12)
                << std::setprecision(2) << step.span.ts_us
                << std::setw(12) << step.span.dur_us << std::setw(12)
                << step.stall_before_us << "  " << step.span.pid << "/"
                << step.span.tid << "  " << step.span.name << "\n";
        }
    }

    // --- Per-rank ccl counters. --------------------------------------
    // RankCounters::exportTo lands `ccl.rank<r>.<field>` counters in
    // the registry; surface the synchronization-critical ones as one
    // row per rank (the sm_* columns are the state-machine runtime's
    // park/resume/steal activity, invisible in the flat dump).
    if (registry) {
        std::vector<int> ranks;
        for (const auto& [name, kind] : registry->names()) {
            if (kind != "counter" ||
                name.rfind("ccl.rank", 0) != 0)
                continue;
            const std::size_t dot = name.find('.', 8);
            if (dot == std::string::npos)
                continue;
            const int rank = std::atoi(name.substr(8, dot - 8).c_str());
            if (ranks.empty() || ranks.back() != rank)
                ranks.push_back(rank);
        }
        std::sort(ranks.begin(), ranks.end());
        ranks.erase(std::unique(ranks.begin(), ranks.end()),
                    ranks.end());
        if (!ranks.empty()) {
            rule(out, "per-rank ccl counters");
            out << std::right << std::setw(5) << "rank"
                << std::setw(12) << "cas_retry" << std::setw(14)
                << "post_stall_ns" << std::setw(14) << "wait_stall_ns"
                << std::setw(12) << "ll_spin_ns" << std::setw(10)
                << "sm_parks" << std::setw(12) << "sm_resumes"
                << std::setw(11) << "sm_steals" << "\n";
            const auto cell = [&](int rank, const char* field) {
                return static_cast<long long>(registry->counter(
                    "ccl.rank" + std::to_string(rank) + "." + field));
            };
            for (const int rank : ranks) {
                out << std::setw(5) << rank << std::setw(12)
                    << cell(rank, "cas_retries") << std::setw(14)
                    << cell(rank, "post_stall_ns") << std::setw(14)
                    << cell(rank, "wait_stall_ns") << std::setw(12)
                    << cell(rank, "ll_spin_ns") << std::setw(10)
                    << cell(rank, "sm_parks") << std::setw(12)
                    << cell(rank, "sm_resumes") << std::setw(11)
                    << cell(rank, "sm_steals") << "\n";
            }
        }
    }

    // --- Metrics. ---------------------------------------------------
    if (registry) {
        rule(out, "metrics");
        const auto names = registry->names();
        if (names.empty())
            out << "(registry empty)\n";
        for (const auto& [name, kind] : names) {
            out << "  " << std::left << std::setw(40) << name
                << std::right << " ";
            if (kind == "counter") {
                out << registry->counter(name);
            } else if (kind == "gauge") {
                out << registry->gauge(name);
            } else {
                const util::RunningStats stats =
                    registry->histogram(name);
                out << "count=" << stats.count()
                    << " mean=" << stats.mean() << " max="
                    << stats.max();
            }
            out << "\n";
        }
    }
    out.flush();
}

} // namespace obs
} // namespace ccube
