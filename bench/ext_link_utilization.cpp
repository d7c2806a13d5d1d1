/**
 * @file
 * Extension: per-channel utilization of the DGX-1 during AllReduce —
 * making Observation #2 visible. During the baseline's reduction
 * phase the tree's "downlinks" sit idle (and vice versa during
 * broadcast), so no channel can exceed ~50% utilization; the
 * overlapped algorithm drives both directions at once.
 *
 * This harness always enables the global trace recorder and runs the
 * obs::TraceAnalyzer over each schedule's spans, printing the
 * per-direction channel-class idle fractions and the critical-path
 * cost breakdown next to the raw DES utilization counters.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/report.h"
#include "obs/analyze.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace ccube;

struct Utilization {
    double completion = 0.0;
    util::RunningStats used_channels; ///< utilization of busy channels
    double max_utilization = 0.0;
    std::vector<obs::TraceEvent> events; ///< this run's spans only
};

Utilization
measure(sched::PhaseMode mode, const std::string& metric_prefix)
{
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    const std::size_t events_before = recorder.eventCount();

    const topo::Graph graph = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(graph);
    sim::Simulation sim;
    simnet::Network net(sim, graph);
    const auto result = simnet::runProgram(
        sim, net, sched::doubleTreeProgram(dt, mode, 32), util::mib(64));

    Utilization u;
    u.completion = result.completion_time;
    for (int id = 0; id < graph.channelCount(); ++id) {
        const double busy = net.channelBusyTime(id);
        if (busy <= 0.0)
            continue; // channel unused by the embedding
        const double utilization = busy / result.completion_time;
        u.used_channels.add(utilization);
        u.max_utilization = std::max(u.max_utilization, utilization);
    }
    net.closeTraceEpoch(result.completion_time);
    obs::MetricRegistry& registry = obs::MetricRegistry::global();
    if (registry.enabled())
        net.exportMetrics(registry, result.completion_time,
                          metric_prefix);

    std::vector<obs::TraceEvent> all = recorder.snapshot();
    u.events.assign(
        all.begin() + static_cast<std::ptrdiff_t>(events_before),
        all.end());
    return u;
}

/** One channel-class row per (tree, direction) of the double tree. */
void
addTreeClassRows(util::Table& table, const std::string& schedule,
                 const obs::TraceAnalyzer& analyzer)
{
    const topo::Graph graph = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(graph);
    // kPointToPoint lane policy: tree i keeps lane i both ways.
    core::addChannelClassRow(
        table, schedule, "tree0 up", analyzer,
        simnet::treeChannelIds(graph, dt.tree0, 0, false));
    core::addChannelClassRow(
        table, schedule, "tree0 down", analyzer,
        simnet::treeChannelIds(graph, dt.tree0, 0, true));
    core::addChannelClassRow(
        table, schedule, "tree1 up", analyzer,
        simnet::treeChannelIds(graph, dt.tree1, 1, false));
    core::addChannelClassRow(
        table, schedule, "tree1 down", analyzer,
        simnet::treeChannelIds(graph, dt.tree1, 1, true));
}

} // namespace

int
main(int argc, char** argv)
{
    const util::Flags flags(argc, argv);
    obs::ObsSession obs_session(flags);
    // The analysis below always needs spans, with or without
    // --trace-out / --report-out.
    obs::TraceRecorder::global().enable();

    std::cout << "=== Extension: NVLink channel utilization, "
                 "baseline vs overlapped double tree "
                 "(DGX-1, 64 MiB) ===\n\n";

    const Utilization base =
        measure(sched::PhaseMode::kTwoPhase, "simnet.B");
    const Utilization over =
        measure(sched::PhaseMode::kOverlapped, "simnet.C1");

    util::Table table({"algorithm", "completion_ms", "busy_channels",
                       "mean_utilization", "max_utilization"});
    table.addRow(
        {"B (two-phase)", util::formatDouble(base.completion * 1e3, 3),
         std::to_string(base.used_channels.count()),
         util::formatDouble(base.used_channels.mean(), 3),
         util::formatDouble(base.max_utilization, 3)});
    table.addRow(
        {"C1 (overlapped)",
         util::formatDouble(over.completion * 1e3, 3),
         std::to_string(over.used_channels.count()),
         util::formatDouble(over.used_channels.mean(), 3),
         util::formatDouble(over.max_utilization, 3)});
    table.print(std::cout);

    const obs::TraceAnalyzer base_analysis(base.events);
    const obs::TraceAnalyzer over_analysis(over.events);

    std::cout << "\nPer-direction channel classes "
                 "(trace-derived):\n";
    util::Table classes = core::makeChannelClassTable();
    addTreeClassRows(classes, "B", base_analysis);
    addTreeClassRows(classes, "C1", over_analysis);
    classes.print(std::cout);

    std::cout << "\nCritical-path attribution:\n";
    util::Table costs = core::makeCostBreakdownTable();
    core::addCostBreakdownRow(costs, "B (two-phase)",
                              base_analysis.criticalPath());
    core::addCostBreakdownRow(costs, "C1 (overlapped)",
                              over_analysis.criticalPath());
    costs.print(std::cout);

    std::cout
        << "\nObservation #2 made visible: in the two-phase baseline "
           "a channel works in only one of the two phases, capping "
           "its utilization near 50%; the overlapped algorithm's "
           "bottleneck channels approach full utilization — the same "
           "channels finish the same bytes almost twice as fast.\n";
    obs_session.finish();
    return 0;
}
