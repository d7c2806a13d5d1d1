/**
 * @file
 * Monitoring-overhead microbenchmark for the perf gate.
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
 *    ratio is recorded for trend-watching, not gated at 5%.
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
 * Results land in BENCH_obs.json (schema bench_ccl/v1; set
 * CCUBE_BENCH_OUT to override): ns/op per workload and side, plus a
 * dimensionless "monitor_overhead_ratio" record (on/off, so 1.05 =
 * 5% overhead) that bench_compare diffs against
 * bench/baselines/BENCH_obs_baseline.json with --threshold=0.05.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/double_tree_allreduce.h"
#include "obs/capture.h"
#include "obs/monitor.h"
#include "obs/profiler.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/double_tree_schedule.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/tree_embedding.h"
#include "util/bench_json.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/units.h"

namespace {

using namespace ccube;

double sink_ = 0.0; ///< defeats over-eager dead-code elimination

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
            ccl::doubleTreeAllReduce(comm, buffers, embedding,
                                     /*num_chunks=*/4,
                                     ccl::TreePhaseMode::kOverlapped);
            return 1.0;
        });
    const std::uint64_t functional_collectives =
        monitor.collectivesTotal();

    // --- informational: DES schedule (per-grant + heartbeat path) ---
    const PairedResult des = measurePaired(
        monitor, rounds, reps, warmup, [&]() {
            sim::Simulation sim;
            simnet::Network net(sim, graph);
            return simnet::runDoubleTreeSchedule(
                       sim, net, embedding, des_bytes,
                       simnet::PhaseMode::kOverlapped, des_chunks)
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
            ccl::doubleTreeAllReduce(sm_comm, sm_buffers, prof_tree,
                                     /*num_chunks=*/2,
                                     ccl::TreePhaseMode::kTwoPhase);
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

    std::vector<util::BenchRecord> records;
    {
        util::BenchRecord record;
        record.source = "micro_obs_overhead";
        record.kind = "latency";
        record.mode = "functional";
        record.bytes = static_cast<std::int64_t>(elems * sizeof(float));
        record.name = "allreduce_monitor_off";
        record.ns_per_op = functional.off_ns;
        records.push_back(record);
        record.name = "allreduce_monitor_on";
        record.ns_per_op = functional.on_ns;
        records.push_back(record);
        record.mode = "des";
        record.bytes = static_cast<std::int64_t>(des_bytes);
        record.name = "allreduce_monitor_off";
        record.ns_per_op = des.off_ns;
        records.push_back(record);
        record.name = "allreduce_monitor_on";
        record.ns_per_op = des.on_ns;
        records.push_back(record);

        // Dimensionless on/off ratios: stable across machines, so the
        // perf gate can hold the functional one to a tight threshold
        // (1.05 = 5% overhead).
        util::BenchRecord gate;
        gate.source = "micro_obs_overhead";
        gate.kind = "overhead";
        gate.name = "monitor_overhead_ratio";
        gate.mode = "functional";
        gate.bytes = 0;
        gate.ns_per_op = functional.ratio;
        gate.extra["off_ns"] = functional.off_ns;
        gate.extra["on_ns"] = functional.on_ns;
        records.push_back(gate);
        gate.name = "monitor_overhead_ratio_des";
        gate.mode = "des";
        gate.ns_per_op = des.ratio;
        gate.extra["off_ns"] = des.off_ns;
        gate.extra["on_ns"] = des.on_ns;
        gate.extra["snapshots"] =
            static_cast<double>(monitor.snapshotCount());
        records.push_back(gate);

        // Sampling-profiler gate: P=256 double tree on the state-
        // machine pool, sampler off vs on (same 5% threshold).
        record.kind = "latency";
        record.mode = "statemachine";
        record.bytes =
            static_cast<std::int64_t>(prof_elems * sizeof(float));
        record.name = "allreduce_profiler_off";
        record.ns_per_op = profiled.off_ns;
        records.push_back(record);
        record.name = "allreduce_profiler_on";
        record.ns_per_op = profiled.on_ns;
        records.push_back(record);

        util::BenchRecord prof_gate;
        prof_gate.source = "micro_obs_overhead";
        prof_gate.kind = "overhead";
        prof_gate.name = "profiler_overhead_ratio";
        prof_gate.mode = "statemachine";
        prof_gate.bytes = 0;
        prof_gate.ns_per_op = profiled.ratio;
        prof_gate.extra["off_ns"] = profiled.off_ns;
        prof_gate.extra["on_ns"] = profiled.on_ns;
        records.push_back(prof_gate);
    }
    const std::string path = util::benchOutputPath("BENCH_obs.json");
    util::writeBenchRecords(path, records, /*append=*/true);
    std::cout << "wrote " << records.size() << " records to " << path
              << "\n";
    return 0;
}
