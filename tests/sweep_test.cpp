/**
 * @file
 * Tests for the sweep:: parallel runner. The load-bearing property is
 * determinism: a grid executed with --jobs=8 must produce the same
 * numeric results and the same absorbed obs capture, byte for byte,
 * as --jobs=1 — that is what licenses the figure benches to fan out.
 * Also covers task coverage, job clamping, exception propagation, and
 * jobs-invariance of the parallel embedding search.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ccl/tuner.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "sweep/sweep.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/embedding_search.h"
#include "util/units.h"

namespace ccube {
namespace {

sweep::Options
withJobs(int jobs)
{
    sweep::Options options;
    options.jobs = jobs;
    return options;
}

TEST(SweepRun, RunsEveryTaskExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        for (std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{64}}) {
            std::vector<std::atomic<int>> hits(count);
            sweep::runIndexed(withJobs(jobs), count,
                              [&](std::size_t i) { ++hits[i]; });
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "jobs=" << jobs << " task " << i;
        }
    }
}

TEST(SweepRun, EffectiveJobsClampsToTaskCount)
{
    EXPECT_EQ(withJobs(8).effectiveJobs(3), 3);
    EXPECT_EQ(withJobs(1).effectiveJobs(100), 1);
    EXPECT_EQ(withJobs(4).effectiveJobs(100), 4);
    EXPECT_GE(withJobs(0).effectiveJobs(100), 1); // hardware pick
    EXPECT_EQ(withJobs(8).effectiveJobs(0), 8);
}

TEST(SweepRun, RethrowsFirstExceptionByTaskIndex)
{
    for (int jobs : {1, 8}) {
        std::atomic<int> completed{0};
        try {
            sweep::runIndexed(withJobs(jobs), 64, [&](std::size_t i) {
                if (i == 50)
                    throw std::runtime_error("late failure");
                if (i == 10)
                    throw std::runtime_error("early failure");
                ++completed;
            });
            FAIL() << "expected a rethrown task exception";
        } catch (const std::runtime_error& error) {
            // First by task index, not by completion order.
            EXPECT_STREQ(error.what(), "early failure");
        }
        // The pool drains before rethrowing: every non-throwing task
        // still ran.
        EXPECT_EQ(completed.load(), 62);
    }
}

// --- Byte-identical parallel grid ------------------------------------

struct Cell {
    double completion = 0.0;
    double turnaround = 0.0;

    bool
    operator==(const Cell& other) const
    {
        // Exact equality on purpose: the parallel run executes the
        // same serial simulations, so there is no tolerance to grant.
        return completion == other.completion &&
               turnaround == other.turnaround;
    }
};

/**
 * Runs a small fig14-style grid (message size × chunk count on the
 * DGX-1 double tree) under an enabled trace capture and returns the
 * trace JSON; per-cell results land in @p cells. Only simulated-time
 * spans are recorded here, so the JSON is a pure function of the grid.
 */
std::string
runGrid(int jobs, std::vector<Cell>& cells)
{
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding embedding =
        topo::makeDgx1DoubleTree(graph);
    const std::vector<double> sizes{util::mib(1), util::mib(4)};
    const std::vector<int> chunk_counts{8, 32};

    obs::TraceRecorder recorder;
    recorder.enable();
    std::string json;
    {
        // Make the local recorder the absorb target of the sweep, so
        // the test neither touches nor depends on process-global obs
        // state.
        obs::ScopedCapture capture{obs::Capture(&recorder)};
        cells.assign(sizes.size() * chunk_counts.size(), Cell{});
        sweep::runIndexed(
            withJobs(jobs), cells.size(), [&](std::size_t i) {
                const double bytes = sizes[i / chunk_counts.size()];
                const int chunks =
                    chunk_counts[i % chunk_counts.size()];
                sim::Simulation sim;
                simnet::Network net(sim, graph);
                const auto result = simnet::runProgram(
                    sim, net,
                    sched::doubleTreeProgram(embedding,
                                             sched::PhaseMode::kOverlapped,
                                             chunks),
                    bytes);
                net.closeTraceEpoch(result.completion_time);
                cells[i] =
                    Cell{result.completion_time,
                         result.turnaroundTime()};
            });
    }
    std::ostringstream out;
    recorder.writeJson(out);
    return out.str();
}

TEST(SweepRun, ParallelGridMatchesSerialByteForByte)
{
    std::vector<Cell> serial_cells;
    const std::string serial = runGrid(1, serial_cells);
    ASSERT_FALSE(serial_cells.empty());
    EXPECT_NE(serial.find("\"traceEvents\""), std::string::npos);
    // The grid actually recorded channel spans, so the comparison
    // below is not vacuous.
    EXPECT_NE(serial.find("simnet"), std::string::npos);

    for (int jobs : {2, 8}) {
        std::vector<Cell> parallel_cells;
        const std::string parallel = runGrid(jobs, parallel_cells);
        EXPECT_EQ(serial_cells, parallel_cells) << "jobs=" << jobs;
        EXPECT_EQ(serial, parallel) << "jobs=" << jobs;
    }
}

TEST(SweepRun, MetricsMergeIsJobsInvariant)
{
    // Counters/histograms absorbed from per-task registries must not
    // depend on the job count. (Gauges carrying wall-clock rates are
    // excluded by construction: the tasks here record none.)
    auto run = [](int jobs) {
        obs::MetricRegistry registry;
        registry.enable();
        std::string json;
        {
            obs::ScopedCapture capture{
                obs::Capture(nullptr, &registry)};
            sweep::runIndexed(
                withJobs(jobs), 8, [&](std::size_t i) {
                    obs::MetricRegistry& sink =
                        obs::MetricRegistry::global();
                    sink.addCounter("sweep.test.tasks", 1.0);
                    sink.observe("sweep.test.index",
                                 static_cast<double>(i));
                });
        }
        std::ostringstream out;
        registry.writeJson(out);
        return out.str();
    };
    const std::string serial = run(1);
    EXPECT_NE(serial.find("sweep.test.tasks"), std::string::npos);
    EXPECT_EQ(serial, run(8));
}

TEST(SweepRun, MonitorSnapshotsAreJobsInvariant)
{
    // The monitor's JSONL series (heartbeat gauges + collective
    // edges, absorbed from per-task monitors in task-index order)
    // must be byte-identical across job counts: snapshot timestamps
    // are simulated time and run ordinals, never wall clock.
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding embedding =
        topo::makeDgx1DoubleTree(graph);
    auto run = [&](int jobs) {
        obs::Monitor monitor;
        monitor.setInterval(1e-4);
        monitor.enable();
        std::string jsonl;
        {
            obs::ScopedCapture capture{
                obs::Capture(nullptr, nullptr, &monitor)};
            sweep::runIndexed(withJobs(jobs), 4, [&](std::size_t i) {
                sim::Simulation sim;
                simnet::Network net(sim, graph);
                simnet::runProgram(sim, net,
                                   sched::doubleTreeProgram(
                                       embedding, sched::PhaseMode::kOverlapped,
                                       8),
                                   util::mib(1 << i));
            });
        }
        std::ostringstream out;
        monitor.writeJsonl(out);
        return out.str();
    };
    const std::string serial = run(1);
    EXPECT_NE(serial.find("\"trigger\": \"heartbeat\""),
              std::string::npos);
    EXPECT_NE(serial.find("chan."), std::string::npos);
    EXPECT_NE(serial.find("double_tree_allreduce"), std::string::npos);
    for (int jobs : {2, 8})
        EXPECT_EQ(serial, run(jobs)) << "jobs=" << jobs;
}

/** Every sink of one capture, serialized. */
struct CaptureText {
    std::string trace;
    std::string metrics; ///< CSV minus the wall-clock events/s row
    std::string monitor;
};

TEST(SweepRun, WholeCaptureWithNestedSweepsIsJobsInvariant)
{
    // Trace, metrics and monitor enabled together, and every task runs
    // its own sweep: the grandchild captures merge into the task's
    // capture and the task captures into the parent, each in task
    // order, so all three outputs are byte-identical at any job count.
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding embedding =
        topo::makeDgx1DoubleTree(graph);
    auto run = [&](int jobs) {
        obs::TraceRecorder recorder;
        obs::MetricRegistry registry;
        obs::Monitor monitor;
        recorder.enable();
        registry.enable();
        monitor.setInterval(1e-4);
        monitor.enable();
        {
            obs::ScopedCapture capture{
                obs::Capture(&recorder, &registry, &monitor)};
            sweep::runIndexed(withJobs(jobs), 3, [&](std::size_t outer) {
                obs::MetricRegistry::global().addCounter(
                    "sweep.test.outer", 1.0);
                sweep::runIndexed(
                    withJobs(jobs), 2, [&](std::size_t inner) {
                        sim::Simulation sim;
                        simnet::Network net(sim, graph);
                        const auto result = simnet::runProgram(
                            sim, net,
                            sched::doubleTreeProgram(
                                embedding, sched::PhaseMode::kOverlapped,
                                4 << inner),
                            util::mib(1 + outer));
                        net.closeTraceEpoch(result.completion_time);
                        obs::MetricRegistry::global().observe(
                            "sweep.test.completion_s",
                            result.completion_time);
                    });
            });
        }
        CaptureText text;
        std::ostringstream trace, metrics, jsonl;
        recorder.writeJson(trace);
        registry.writeCsv(metrics);
        monitor.writeJsonl(jsonl);
        text.trace = trace.str();
        std::istringstream rows(metrics.str());
        for (std::string row; std::getline(rows, row);)
            if (row.rfind("sim.events_per_sec,", 0) != 0)
                text.metrics += row + '\n';
        text.monitor = jsonl.str();
        return text;
    };
    const CaptureText serial = run(1);
    EXPECT_NE(serial.trace.find("simnet"), std::string::npos);
    EXPECT_NE(serial.metrics.find("sweep.test.outer,counter"),
              std::string::npos);
    EXPECT_NE(serial.metrics.find("sweep.test.completion_s"),
              std::string::npos);
    EXPECT_NE(serial.monitor.find("\"trigger\": \"heartbeat\""),
              std::string::npos);
    // Six inner simulations, six monitor runs, renumbered in order.
    EXPECT_NE(serial.monitor.find("\"run\": 6"), std::string::npos);
    for (int jobs : {2, 8}) {
        const CaptureText parallel = run(jobs);
        EXPECT_EQ(serial.trace, parallel.trace) << "jobs=" << jobs;
        EXPECT_EQ(serial.metrics, parallel.metrics) << "jobs=" << jobs;
        EXPECT_EQ(serial.monitor, parallel.monitor) << "jobs=" << jobs;
    }
}

TEST(SweepRun, TunerTablesAreJobsInvariant)
{
    // The tables every task sees — and the per-protocol DES results
    // built from them — are identical at jobs=1 and jobs=8, byte for
    // byte.
    const topo::Graph graph = topo::makeDgx1();
    auto run = [&](int jobs) {
        ccl::Tuner::global().clearCache();
        std::vector<std::string> tables(4);
        std::vector<double> completions(4, 0.0);
        sweep::runIndexed(withJobs(jobs), 4, [&](std::size_t i) {
            tables[i] = ccl::Tuner::global().formatTable(graph, 8);
            const std::size_t elems = std::size_t{256} << (4 * i);
            const ccl::Protocol proto =
                ccl::Tuner::global().choose(graph, 8, elems).protocol;
            sim::Simulation sim;
            simnet::Network net(sim, graph);
            const topo::RingEmbedding ring =
                topo::findHamiltonianRing(graph, 8);
            completions[i] =
                simnet::runProgram(
                    sim, net,
                    sched::ringProgram(ring, sched::RingPhase::kAllReduce),
                    static_cast<double>(elems) * sizeof(float), proto)
                    .completion_time;
        });
        std::ostringstream out;
        for (std::size_t i = 0; i < tables.size(); ++i)
            out << tables[i] << "|" << completions[i] << "\n";
        return out.str();
    };
    const std::string serial = run(1);
    EXPECT_NE(serial.find("tuner table"), std::string::npos);
    for (int jobs : {2, 8})
        EXPECT_EQ(serial, run(jobs)) << "jobs=" << jobs;
}

TEST(SweepRun, EmbeddingSearchIsJobsInvariant)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    for (std::uint64_t seed : {7ull, 42ull}) {
        topo::EmbeddingSearchOptions serial_options;
        serial_options.seed = seed;
        serial_options.jobs = 1;
        topo::EmbeddingSearchOptions parallel_options = serial_options;
        parallel_options.jobs = 8;
        const auto a =
            topo::findConflictFreeDoubleTree(dgx1, serial_options);
        const auto b =
            topo::findConflictFreeDoubleTree(dgx1, parallel_options);
        ASSERT_TRUE(a.has_value()) << "seed " << seed;
        ASSERT_TRUE(b.has_value()) << "seed " << seed;
        EXPECT_EQ(a->tree0.tree.edges(), b->tree0.tree.edges());
        EXPECT_EQ(a->tree1.tree.edges(), b->tree1.tree.edges());
        for (const auto& trees :
             {std::make_pair(&a->tree0, &b->tree0),
              std::make_pair(&a->tree1, &b->tree1)}) {
            ASSERT_EQ(trees.first->routes.size(),
                      trees.second->routes.size());
            for (std::size_t r = 0; r < trees.first->routes.size();
                 ++r)
                EXPECT_EQ(trees.first->routes[r].hops,
                          trees.second->routes[r].hops);
        }
    }
}

} // namespace
} // namespace ccube
