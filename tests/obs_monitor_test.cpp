/**
 * @file
 * Tests for the obs::monitor live-telemetry layer and the obs::diff
 * root-cause / differential engines: LogHistogram bucketing and
 * merge determinism, DES-heartbeat snapshots, SLO accounting, absorb
 * renumbering, golden-trace root-cause blame, and critical-path diff
 * attribution — plus an end-to-end DGX-1 fault scenario.
 */

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analyze.h"
#include "obs/capture.h"
#include "obs/diff.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/fault_plan.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "util/units.h"

namespace ccube {
namespace {

obs::TraceEvent
makeEvent(std::string name, std::string cat, char phase, int pid,
          int tid, double ts_us, double dur_us,
          std::vector<std::pair<std::string, double>> args = {})
{
    obs::TraceEvent event;
    event.name = std::move(name);
    event.cat = std::move(cat);
    event.phase = phase;
    event.pid = pid;
    event.tid = tid;
    event.ts_us = ts_us;
    event.dur_us = dur_us;
    event.args = std::move(args);
    return event;
}

obs::TraceEvent
channelSpan(std::string name, int channel, double ts_us, double dur_us,
            double bytes)
{
    return makeEvent(std::move(name), "simnet.channel", 'X', 100,
                     channel, ts_us, dur_us,
                     {{"queue_wait_us", 0.0}, {"bytes", bytes}});
}

// --- LogHistogram ----------------------------------------------------

TEST(LogHistogram, CountsSumsAndExactExtremes)
{
    obs::LogHistogram hist;
    EXPECT_TRUE(hist.empty());
    for (double v : {1.0, 2.0, 3.0, 4.0, 100.0})
        hist.add(v);
    EXPECT_EQ(hist.count(), 5u);
    EXPECT_DOUBLE_EQ(hist.sum(), 110.0);
    EXPECT_DOUBLE_EQ(hist.min(), 1.0);
    EXPECT_DOUBLE_EQ(hist.max(), 100.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 22.0);
    // q outside (0,1) returns the exact extremes.
    EXPECT_DOUBLE_EQ(hist.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 100.0);
}

TEST(LogHistogram, QuantileWithinBucketResolution)
{
    obs::LogHistogram hist;
    for (int i = 1; i <= 1000; ++i)
        hist.add(static_cast<double>(i) * 1e-3); // 1ms..1s
    // Log-bucketed with 64 sub-buckets per decade: relative error of
    // any quantile is bounded by one sub-bucket (~1.6%).
    for (double q : {0.5, 0.9, 0.99}) {
        const double exact = q; // uniform samples on (0, 1]
        const double approx = hist.quantile(q);
        EXPECT_GE(approx, exact * 0.98) << "q=" << q;
        EXPECT_LE(approx, exact * 1.05) << "q=" << q;
    }
}

TEST(LogHistogram, MergeIsOrderInvariant)
{
    obs::LogHistogram a;
    obs::LogHistogram b;
    obs::LogHistogram c;
    for (int i = 0; i < 100; ++i) {
        a.add(1e-6 * (i + 1));
        b.add(3.7 * (i + 1));
        c.add(1e6 / (i + 1));
    }
    obs::LogHistogram abc;
    abc.merge(a);
    abc.merge(b);
    abc.merge(c);
    obs::LogHistogram cba;
    cba.merge(c);
    cba.merge(b);
    cba.merge(a);
    EXPECT_EQ(abc.fingerprint(), cba.fingerprint());
    EXPECT_EQ(abc.count(), 300u);
    // Merging must agree with observing the union directly.
    obs::LogHistogram direct;
    for (int i = 0; i < 100; ++i) {
        direct.add(1e-6 * (i + 1));
        direct.add(3.7 * (i + 1));
        direct.add(1e6 / (i + 1));
    }
    EXPECT_EQ(abc.fingerprint(), direct.fingerprint());
}

TEST(LogHistogram, UnderflowAndSaturation)
{
    obs::LogHistogram hist;
    hist.add(0.0);
    hist.add(-5.0); // non-positive samples clamp to the zero bucket
    hist.add(1e300); // beyond the top decade: saturates
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_DOUBLE_EQ(hist.min(), 0.0);
    EXPECT_DOUBLE_EQ(hist.max(), 1e300);
    // Low quantiles resolve to the underflow bucket (reported as min),
    // the top quantile to the tracked max.
    EXPECT_DOUBLE_EQ(hist.quantile(0.1), 0.0);
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 1e300);
}

// --- MetricRegistry qhist kind --------------------------------------

TEST(MetricRegistry, QuantileHistogramsAbsorbAndExport)
{
    obs::MetricRegistry a;
    obs::MetricRegistry b;
    for (int i = 1; i <= 50; ++i) {
        a.observeQuantile("lat", i * 1e-3);
        b.observeQuantile("lat", i * 1e-2);
    }
    a.absorb(b);
    EXPECT_EQ(a.quantileHistogram("lat").count(), 100u);
    const auto names = a.names();
    bool found = false;
    for (const auto& [name, kind] : names)
        found = found || (name == "lat" && kind == "qhist");
    EXPECT_TRUE(found);
    std::ostringstream json;
    a.writeJson(json);
    EXPECT_NE(json.str().find("\"p99\""), std::string::npos);
}

// --- Monitor ---------------------------------------------------------

TEST(Monitor, HeartbeatSnapshotsFromSimulation)
{
    obs::Monitor monitor;
    monitor.setInterval(1.0);
    monitor.enable();
    obs::ScopedCapture capture{obs::Capture(nullptr, nullptr, &monitor)};

    sim::Simulation sim;
    for (int i = 0; i < 5; ++i)
        sim.at(static_cast<double>(i), []() {});
    sim.run();

    // Events at t=0..4 with a 1s interval tick at t=1,2,3; the run
    // ends when the queue drains, so no tick follows the last event.
    const auto snapshots = monitor.snapshots();
    ASSERT_GE(snapshots.size(), 3u);
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        EXPECT_EQ(snapshots[i].run, 1);
        EXPECT_EQ(snapshots[i].trigger, "heartbeat");
        if (i > 0) {
            EXPECT_GT(snapshots[i].t_s, snapshots[i - 1].t_s);
        }
    }
}

TEST(Monitor, SaturatedChannelReadsFullyBusyPastManyGrants)
{
    // One DGX-1 channel kept busy back to back for 70,000 grants:
    // every heartbeat window must read it fully busy, up to the last.
    constexpr int kTransfers = 70000;
    constexpr double kBytes = 1 << 20;
    obs::Monitor monitor;
    monitor.enable();
    obs::ScopedCapture capture{obs::Capture(nullptr, nullptr, &monitor)};

    const topo::Graph graph = topo::makeDgx1();
    sim::Simulation sim;
    simnet::Network net(sim, graph);
    monitor.setInterval(net.occupancy(0, kBytes) * kTransfers / 16);
    for (int i = 0; i < kTransfers; ++i)
        ASSERT_TRUE(net.transferOnChannel(0, kBytes, {}));
    sim.run();
    ASSERT_EQ(net.channelGrants(0), static_cast<std::uint64_t>(kTransfers));

    int heartbeats = 0;
    for (const obs::MonitorSnapshot& snapshot : monitor.snapshots()) {
        if (snapshot.trigger != "heartbeat")
            continue;
        ++heartbeats;
        double busy_frac = -1.0;
        for (const auto& [name, value] : snapshot.values) {
            if (name == "chan.0.busy_frac")
                busy_frac = value;
        }
        EXPECT_NEAR(busy_frac, 1.0, 1e-9) << "at t=" << snapshot.t_s;
    }
    EXPECT_GE(heartbeats, 15);
}

TEST(Monitor, SloViolationsAndLatencyHistogram)
{
    obs::Monitor monitor;
    obs::SloSpec slo;
    slo.collective_deadline_s = 0.1;
    monitor.setSlo(slo);
    monitor.enable();

    monitor.collectiveComplete("fast", 0.0, 0.05, 1e6);
    monitor.collectiveComplete("slow", 0.0, 0.25, 1e6);
    // An aborted collective violates regardless of latency.
    monitor.collectiveComplete("dead", 0.0, 0.01, 1e6,
                               /*completed=*/false);

    EXPECT_EQ(monitor.collectivesTotal(), 3u);
    EXPECT_EQ(monitor.collectiveViolations(), 2u);
    EXPECT_EQ(monitor.collectiveLatency().count(), 3u);
    EXPECT_EQ(monitor.snapshotCount(), 3u);

    // Violation counters ride along in every snapshot row.
    std::ostringstream jsonl;
    monitor.writeJsonl(jsonl);
    EXPECT_NE(jsonl.str().find("\"slo.collective.violations\": 2"),
              std::string::npos);

    std::ostringstream om;
    monitor.writeOpenMetrics(om);
    EXPECT_NE(
        om.str().find("ccube_slo_collective_violations_total 2"),
        std::string::npos);
    EXPECT_NE(om.str().find("# EOF"), std::string::npos);
}

TEST(Monitor, AbsorbRenumbersRunsInTaskOrder)
{
    obs::Monitor parent;
    parent.enable();
    parent.beginRun();
    parent.heartbeat(0.5);

    obs::Monitor task;
    task.enable();
    task.beginRun();
    task.heartbeat(0.25);
    task.beginRun();
    task.heartbeat(0.75);

    parent.absorb(task);
    const auto snapshots = parent.snapshots();
    ASSERT_EQ(snapshots.size(), 3u);
    EXPECT_EQ(snapshots[0].run, 1);
    EXPECT_EQ(snapshots[1].run, 2); // task run 1 → after parent's runs
    EXPECT_EQ(snapshots[2].run, 3);
    EXPECT_DOUBLE_EQ(snapshots[1].t_s, 0.25);
}

// --- Root cause ------------------------------------------------------

TEST(RootCause, GoldenTraceBlamesFailedChannelAndReceiver)
{
    std::vector<obs::TraceEvent> events;
    // Healthy traffic on two channels, then channel 0 (GPU0->GPU1)
    // fails and drops three transfers.
    events.push_back(channelSpan("GPU0->GPU1#0", 0, 0.0, 10.0, 4096));
    events.push_back(channelSpan("GPU1->GPU2#1", 1, 10.0, 10.0, 4096));
    events.push_back(makeEvent("fault.channel_fail", "simnet.fault",
                               'i', 100, 0, 20.0, 0.0,
                               {{"src", 0.0}, {"dst", 1.0}}));
    for (int i = 0; i < 3; ++i)
        events.push_back(makeEvent("fault.transfer_dropped",
                                   "simnet.fault", 'i', 100, 0,
                                   21.0 + i, 0.0));

    const obs::TraceAnalyzer analyzer(events);
    const obs::RootCauseReport report = obs::analyzeRootCause(analyzer);
    ASSERT_FALSE(report.empty());
    EXPECT_EQ(report.blamed_channel, 0);
    EXPECT_EQ(report.blamed_rank, 1);
    EXPECT_EQ(report.causes.front().kind,
              obs::RootCause::Kind::kChannelFail);
    EXPECT_NE(report.causes.front().description.find("failed"),
              std::string::npos);
    EXPECT_NE(report.causes.front().description.find("3 transfers"),
              std::string::npos);

    std::ostringstream text;
    obs::writeRootCauseReport(text, report);
    EXPECT_NE(text.str().find("blamed channel: 0"), std::string::npos);
    EXPECT_EQ(text.str().find("WARNING"), std::string::npos);
}

TEST(RootCause, TruncatedTraceCarriesWarning)
{
    obs::MetricRegistry registry;
    registry.addCounter("trace.dropped_events", 7.0);
    const obs::TraceAnalyzer analyzer(
        {channelSpan("GPU0->GPU1#0", 0, 0.0, 10.0, 4096),
         makeEvent("fault.channel_fail", "simnet.fault", 'i', 100, 0,
                   20.0, 0.0)});
    const obs::RootCauseReport report =
        obs::analyzeRootCause(analyzer, &registry);
    EXPECT_TRUE(report.truncated());
    EXPECT_EQ(report.dropped_trace_events, 7u);
    std::ostringstream text;
    obs::writeRootCauseReport(text, report);
    EXPECT_NE(text.str().find("analysis may be partial"),
              std::string::npos);
}

TEST(RootCause, NamesInjectedDgx1Failure)
{
    // End-to-end: fail both directions of one DGX-1 NVLink pair
    // mid-collective and check the analysis names them.
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding embedding =
        topo::makeDgx1DoubleTree(graph);
    const std::vector<int> failed = [&]() {
        std::vector<int> ids = graph.channelIds(2, 6);
        for (int id : graph.channelIds(6, 2))
            ids.push_back(id);
        return ids;
    }();
    ASSERT_FALSE(failed.empty());

    obs::TraceRecorder recorder;
    recorder.enable();
    {
        obs::ScopedCapture capture{obs::Capture(&recorder)};
        sim::Simulation sim;
        simnet::Network net(sim, graph);
        simnet::FaultPlan plan;
        for (int id : failed)
            plan.failChannel(2e-4, id);
        simnet::runProgramWithFaults(sim, net,
                                     sched::doubleTreeProgram(
                                         embedding,
                                         sched::PhaseMode::kOverlapped, 16),
                                     util::mib(16), plan);
    }
    const obs::TraceAnalyzer analyzer(recorder.snapshot());
    const obs::RootCauseReport report = obs::analyzeRootCause(analyzer);
    bool named = false;
    for (int id : failed)
        named = named || report.blamed_channel == id;
    EXPECT_TRUE(named) << "blamed channel " << report.blamed_channel;
    EXPECT_TRUE(report.blamed_rank == 2 || report.blamed_rank == 6)
        << "blamed rank " << report.blamed_rank;
}

// --- Differential analysis ------------------------------------------

TEST(TraceDiff, AttributesSlowdownToTheGuiltySegment)
{
    // Baseline: a three-hop chain, 10us per hop. Current: the middle
    // hop takes 30us, everything downstream shifts.
    std::vector<obs::TraceEvent> base;
    base.push_back(channelSpan("GPU0->GPU1#0", 0, 0.0, 10.0, 4096));
    base.push_back(channelSpan("GPU1->GPU2#1", 1, 10.0, 10.0, 4096));
    base.push_back(channelSpan("GPU2->GPU3#2", 2, 20.0, 10.0, 4096));
    std::vector<obs::TraceEvent> cur;
    cur.push_back(channelSpan("GPU0->GPU1#0", 0, 0.0, 10.0, 4096));
    cur.push_back(channelSpan("GPU1->GPU2#1", 1, 10.0, 30.0, 4096));
    cur.push_back(channelSpan("GPU2->GPU3#2", 2, 40.0, 10.0, 4096));

    const obs::TraceDiff diff = obs::diffTraces(
        obs::TraceAnalyzer(base), obs::TraceAnalyzer(cur));
    EXPECT_NEAR(diff.deltaUs(), 20.0, 1e-9);
    ASSERT_FALSE(diff.segments.empty());
    EXPECT_EQ(diff.segments.front().name, "GPU1->GPU2#1");
    EXPECT_NEAR(diff.segments.front().delta_us, 20.0, 1e-9);
    EXPECT_TRUE(diff.segments.front().matched);
    // The whole delta is explained by critical-path segments.
    EXPECT_GE(diff.attributedFraction(), 0.8);
    EXPECT_NEAR(diff.attributed_us, diff.deltaUs(), 1e-6);

    std::ostringstream text;
    obs::writeDiffReport(text, diff);
    EXPECT_NE(text.str().find("GPU1->GPU2#1"), std::string::npos);
    EXPECT_NE(text.str().find("% of delta"), std::string::npos);
}

TEST(TraceDiff, IdenticalTracesHaveZeroDelta)
{
    std::vector<obs::TraceEvent> events;
    events.push_back(channelSpan("GPU0->GPU1#0", 0, 0.0, 10.0, 4096));
    events.push_back(channelSpan("GPU1->GPU2#1", 1, 10.0, 10.0, 4096));
    const obs::TraceDiff diff = obs::diffTraces(
        obs::TraceAnalyzer(events), obs::TraceAnalyzer(events));
    EXPECT_NEAR(diff.deltaUs(), 0.0, 1e-9);
    EXPECT_DOUBLE_EQ(diff.attributedFraction(), 1.0);
    for (const obs::DiffSegment& segment : diff.segments)
        EXPECT_NEAR(segment.delta_us, 0.0, 1e-9);
}

} // namespace
} // namespace ccube
