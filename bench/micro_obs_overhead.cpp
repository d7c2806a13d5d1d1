/**
 * @file
 * Monitoring- and profiler-overhead gate.
 *
 * Two workloads are each timed with observability fully off and with
 * the live obs::Monitor enabled:
 *
 *  - "functional": the micro_primitives AllReduce (double tree on the
 *    persistent rank executor). Monitoring here is the SLO collective
 *    edge — one snapshot per collective — which is the overhead a
 *    real training loop pays. This is the gated ratio.
 *  - "des": the simulated double-tree schedule, where monitoring also
 *    records per-grant busy intervals and heartbeat gauge snapshots.
 *    Telemetry density per unit of wall time is orders of magnitude
 *    higher than any real deployment (the DES collapses milliseconds
 *    of simulated transfer into microseconds of wall time), so this
 *    ratio is printed for trend-watching, not gated.
 *
 * A third paired workload gates the obs::Profiler: a P=256 double-
 * tree AllReduce on the state-machine pool — the engine whose park/
 * resume stamps and phase publications carry the profiler's cost —
 * timed with the sampler off vs running, reported as
 * "profiler_overhead_ratio" and held to the same 5% threshold.
 *
 * Measurement is paired: off and on blocks alternate round-robin so
 * slow machine drift (frequency scaling, noisy neighbours) hits both
 * sides equally, and the reported ratio is the median of per-round
 * ratios, which shrugs off one-off scheduling spikes.
 *
 * Exit status: 1 when either gated median ratio (functional monitor,
 * profiler) is above kMaxOverheadRatio — 1.05, i.e. 5% overhead — and
 * 0 otherwise. The ratios are dimensionless on/off quotients of the
 * same host, so the bound means the same on any machine; a single run
 * still carries a few percent of scheduling noise.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/program_task.h"
#include "obs/capture.h"
#include "obs/monitor.h"
#include "obs/profiler.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/tree_embedding.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/units.h"

namespace {

using namespace ccube;

double sink_ = 0.0; ///< defeats over-eager dead-code elimination

/** Largest median on/off ratio a gated workload may show (5%). */
constexpr double kMaxOverheadRatio = 1.05;

/** Wall ns/op over @p reps back-to-back calls of @p op. */
double
timeBlock(int reps, const std::function<double()>& op)
{
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        sink_ += op();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::nano>(elapsed).count() /
           reps;
}

struct PairedResult {
    double off_ns = 0.0; ///< median of per-round off blocks
    double on_ns = 0.0;  ///< median of per-round on blocks
    double ratio = 1.0;  ///< median of per-round on/off ratios
};

/**
 * Runs @p rounds alternating off/on blocks of @p reps calls each; the
 * monitor capture is installed only around the on blocks.
 */
PairedResult
measurePaired(obs::Monitor& monitor, int rounds, int reps, int warmup,
              const std::function<double()>& op)
{
    const obs::Capture on_capture(nullptr, nullptr, &monitor);
    for (int i = 0; i < warmup; ++i) {
        timeBlock(reps, op);
        obs::ScopedCapture scope(on_capture);
        timeBlock(reps, op);
    }
    std::vector<double> off_rounds, on_rounds, ratios;
    for (int round = 0; round < rounds; ++round) {
        const double off = timeBlock(reps, op);
        double on = 0.0;
        {
            obs::ScopedCapture scope(on_capture);
            on = timeBlock(reps, op);
        }
        off_rounds.push_back(off);
        on_rounds.push_back(on);
        ratios.push_back(off > 0.0 ? on / off : 0.0);
    }
    PairedResult result;
    result.off_ns = util::quantileInPlace(off_rounds, 0.5);
    result.on_ns = util::quantileInPlace(on_rounds, 0.5);
    result.ratio = util::quantileInPlace(ratios, 0.5);
    return result;
}

/**
 * Profiler variant of measurePaired: the sampler thread runs only
 * around the on blocks. start()/stop() (thread spawn + join) sit
 * outside the timed region — the gated cost is the steady-state
 * publication + sampling overhead, not capture setup.
 */
PairedResult
measurePairedProfiler(double hz, int rounds, int reps, int warmup,
                      const std::function<double()>& op)
{
    obs::Profiler& profiler = obs::Profiler::global();
    for (int i = 0; i < warmup; ++i) {
        timeBlock(reps, op);
        profiler.start(hz);
        timeBlock(reps, op);
        profiler.stop();
    }
    std::vector<double> off_rounds, on_rounds, ratios;
    for (int round = 0; round < rounds; ++round) {
        const double off = timeBlock(reps, op);
        profiler.start(hz);
        const double on = timeBlock(reps, op);
        profiler.stop();
        off_rounds.push_back(off);
        on_rounds.push_back(on);
        ratios.push_back(off > 0.0 ? on / off : 0.0);
    }
    PairedResult result;
    result.off_ns = util::quantileInPlace(off_rounds, 0.5);
    result.on_ns = util::quantileInPlace(on_rounds, 0.5);
    result.ratio = util::quantileInPlace(ratios, 0.5);
    return result;
}

void
report(const char* label, const PairedResult& r)
{
    std::cout << label << ": off " << r.off_ns / 1e6 << " ms/op, on "
              << r.on_ns / 1e6 << " ms/op, overhead "
              << (r.ratio - 1.0) * 100.0 << "% (median paired ratio)\n";
}

} // namespace

int
main(int argc, char** argv)
{
    const util::Flags flags(argc, argv);
    const int rounds = flags.getInt("rounds", 24);
    const int reps = flags.getInt("reps", 8); // per block, per round
    const int warmup = flags.getInt("warmup", 2);
    const auto elems =
        static_cast<std::size_t>(flags.getInt("elems", 16384));
    const double des_bytes = flags.getDouble("des-bytes", util::mib(8));
    const int des_chunks = flags.getInt("des-chunks", 32);
    // Heartbeat cadence in simulated seconds (DES side only; the
    // functional side snapshots on collective completion).
    const double interval = flags.getDouble("interval", 5e-4);

    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding embedding =
        topo::makeDgx1DoubleTree(graph);

    obs::Monitor monitor; // local: the bench leaves no global state
    monitor.setInterval(interval);
    obs::SloSpec slo;
    slo.collective_deadline_s = 1.0;
    monitor.setSlo(slo);
    monitor.enable();

    // --- gated: functional AllReduce (the micro_primitives path) ----
    ccl::Communicator comm(8, 4, ccl::RankExecutor::Mode::kPersistent);
    ccl::RankBuffers buffers(8, std::vector<float>(elems, 0.0f));
    const PairedResult functional = measurePaired(
        monitor, rounds, reps, warmup, [&]() {
            ccl::runProgram(comm, buffers,
                            sched::doubleTreeProgram(
                                embedding, sched::PhaseMode::kOverlapped,
                                /*chunks_per_tree=*/4));
            return 1.0;
        });
    const std::uint64_t functional_collectives =
        monitor.collectivesTotal();

    // --- informational: DES schedule (per-grant + heartbeat path) ---
    const PairedResult des = measurePaired(
        monitor, rounds, reps, warmup, [&]() {
            sim::Simulation sim;
            simnet::Network net(sim, graph);
            return simnet::runProgram(
                       sim, net,
                       sched::doubleTreeProgram(
                           embedding, sched::PhaseMode::kOverlapped,
                           des_chunks),
                       des_bytes)
                .completion_time;
        });
    monitor.disable();

    // --- gated: profiler on the state-machine engine at P=256 ------
    // The sampling profiler's cost sits in the park/resume stamps and
    // the per-site phase publication, which only the state-machine
    // runtime exercises at density — so the gate measures exactly
    // that engine, at a rank count where tasks park constantly.
    const int prof_ranks = flags.getInt("profile-ranks", 256);
    const auto prof_elems =
        static_cast<std::size_t>(flags.getInt("profile-elems", 4096));
    const double prof_hz =
        flags.getDouble("profile-hz", obs::Profiler::kDefaultHz);
    const topo::DoubleTreeEmbedding prof_tree(
        topo::directEmbedding(topo::BinaryTree::inorder(prof_ranks)),
        topo::directEmbedding(
            topo::BinaryTree::inorder(prof_ranks).mirrored()));
    ccl::Communicator sm_comm(prof_ranks, 4,
                              ccl::RankExecutor::Mode::kStateMachine);
    ccl::RankBuffers sm_buffers(
        static_cast<std::size_t>(prof_ranks),
        std::vector<float>(prof_elems, 1.0f));
    const PairedResult profiled = measurePairedProfiler(
        prof_hz, rounds, reps, warmup, [&]() {
            ccl::runProgram(sm_comm, sm_buffers,
                            sched::doubleTreeProgram(
                                prof_tree, sched::PhaseMode::kTwoPhase,
                                /*chunks_per_tree=*/2));
            return 1.0;
        });
    if (sink_ < 0.0)
        std::cerr << "";

    report("functional", functional);
    report("des       ", des);
    report("profiler  ", profiled);

    // --profile-out=FILE keeps the last profiled round's collapsed
    // stacks as a flamegraph artifact (start() resets the capture, so
    // this is one representative round, not the whole run).
    const std::string profile_out = flags.get("profile-out");
    if (!profile_out.empty()) {
        std::ofstream prof_file(profile_out);
        if (prof_file) {
            obs::Profiler::global().writeCollapsed(prof_file);
            std::cout << "wrote collapsed-stack profile to "
                      << profile_out << "\n";
        }
    }
    std::cout << monitor.snapshotCount() << " snapshots, "
              << monitor.collectivesTotal() << " collectives ("
              << functional_collectives << " functional)\n";

    bool pass = true;
    for (const auto& [label, r] :
         {std::pair{"monitor_overhead_ratio", functional},
          std::pair{"profiler_overhead_ratio", profiled}}) {
        if (r.ratio > kMaxOverheadRatio) {
            std::cerr << "FAIL: " << label << " " << r.ratio << " > "
                      << kMaxOverheadRatio << "\n";
            pass = false;
        }
    }
    return pass ? 0 : 1;
}
