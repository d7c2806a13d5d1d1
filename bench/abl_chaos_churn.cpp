/**
 * @file
 * Ablation: fault churn under the resilience supervisor — the MTTR
 * and re-promotion bandwidth gate.
 *
 * Two measurements:
 *
 *   1. Churn cycles: a real threaded collective is killed mid-call
 *      (injected rank death), the fabric manager reports the whole
 *      NVLink fabric down while the abort clears, and the supervisor
 *      descends the ladder to the PCIe fallback ring. The links then
 *      restore, probation passes, and the supervisor re-promotes to
 *      the C-Cube embedding. Per cycle this reports MTTR (wall time
 *      from first failure to the completed retry) and, after
 *      re-promotion, the DES bandwidth of the supervisor's live plan
 *      relative to the healthy C-Cube plan — the >=95% recovery
 *      criterion.
 *
 *   2. Chaos-fuzz summary: seeded simnet::ChaosPlan schedules against
 *      the DES fabric, counting completions, casualties, and dropped
 *      transfers — the same liveness/safety surface as
 *      chaos_fuzz_test, summarized for the CI artifact.
 *
 * Exit status: 1 when obs::Monitor counted any MTTR-budget violation
 * or the worst post-churn bandwidth ratio is below kMinRecoveredRatio
 * (95%), 0 otherwise. The MTTR budget comes from --slo-mttr-ms /
 * $CCUBE_SLO_MTTR_MS; without one no violation is counted. The ratio
 * is a DES quotient, so it is the same on every host.
 *
 * Artifacts, only when asked for: --mttr-out (MTTR table),
 * --chaos-summary-out (chaos-fuzz summary).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/fault.h"
#include "core/recovery.h"
#include "core/report.h"
#include "core/supervisor.h"
#include "obs/monitor.h"
#include "simnet/chaos.h"
#include "simnet/channel.h"
#include "simnet/double_tree_schedule.h"
#include "simnet/fault_plan.h"
#include "simnet/multi_ring_schedule.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/graph.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace ccube;
using namespace std::chrono_literals;

constexpr int kRanks = 8;

/** Smallest re-promoted / healthy bandwidth ratio the gate accepts. */
constexpr double kMinRecoveredRatio = 0.95;

/**
 * DGX-1 NVLink fabric plus a PCIe peer ring (same testbed as
 * supervisor_test / chaos_fuzz_test): tree embeddings can route over
 * PCIe, so only a fabric-wide NVLink outage forces the ladder down to
 * the ring rung — which is exactly the churn this bench exercises.
 */
topo::Graph
makeTestbed()
{
    topo::Graph graph = topo::makeDgx1();
    const topo::Dgx1Params params;
    for (int g = 0; g < kRanks; ++g)
        graph.addLink(g, (g + 1) % kRanks, params.pcie_bandwidth,
                      params.pcie_latency, topo::LinkKind::kPcie);
    return graph;
}

/** DES completion time of @p recovery's schedule at @p bytes. */
double
planTime(const core::RecoveryResult& recovery, double bytes)
{
    sim::Simulation sim;
    simnet::Network net(sim, recovery.graph);
    switch (recovery.kind) {
    case core::RecoveryKind::kCCube:
        return simnet::runDoubleTreeSchedule(
                   sim, net, *recovery.double_tree, bytes,
                   simnet::PhaseMode::kOverlapped, 32)
            .completion_time;
    case core::RecoveryKind::kDoubleTree:
        return simnet::runDoubleTreeSchedule(
                   sim, net, *recovery.double_tree, bytes,
                   simnet::PhaseMode::kTwoPhase, 32)
            .completion_time;
    case core::RecoveryKind::kRing:
        // The DES transfer engine routes NVLink-only; a fallback ring
        // over PCIe peer links is not simulable. The churn loop only
        // measures the plan after re-promotion, so this is a guard,
        // not a path the bench expects to take.
        if (recovery.graph.shortestPath(0, 1, topo::LinkKind::kNvlink)
                .empty())
            return 0.0;
        return simnet::runMultiRingSchedule(sim, net, recovery.rings,
                                            bytes)
            .completion_time;
    case core::RecoveryKind::kNone:
        break;
    }
    return 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    const util::Flags flags(argc, argv);
    const int cycles = flags.getInt("cycles", 4);
    const double bytes = util::mib(64);
    const std::size_t elems = 4096;

    std::cout << "=== Ablation: fault churn under the resilience "
                 "supervisor (DGX-1 + PCIe ring testbed) ===\n\n";

    const topo::Graph graph = makeTestbed();
    core::RecoveryOptions recovery_options;
    recovery_options.search.num_ranks = graph.nodeCount();
    recovery_options.search.seed = 7;

    // Healthy reference: the C-Cube plan's DES bandwidth — the 100%
    // mark the re-promoted plan is measured against.
    const core::RecoveryResult healthy =
        core::recoverSchedule(graph, {}, recovery_options);
    const double healthy_time = planTime(healthy, bytes);
    const double healthy_bw = bytes / healthy_time;
    std::cout << "healthy C-Cube plan: "
              << util::formatDouble(healthy_time * 1e3, 3) << " ms ("
              << util::formatDouble(healthy_bw / 1e9, 2)
              << " GB/s simulated)\n\n";

    // The whole NVLink fabric: the fail set each churn cycle reports.
    std::vector<int> nvlink_set;
    for (int id = 0; id < graph.channelCount(); ++id)
        if (graph.channel(id).kind == topo::LinkKind::kNvlink)
            nvlink_set.push_back(id);

    obs::Monitor& monitor = obs::Monitor::global();
    monitor.clear();
    monitor.setSlo(obs::SloSpec::fromFlags(flags));
    monitor.enable();

    ccl::Communicator comm(kRanks, 4);
    comm.setDeadline(200ms); // kill-detection latency, the MTTR floor
    ccl::FaultInjector injector;
    comm.setFaultInjector(&injector);

    core::SupervisorOptions options;
    options.recovery = recovery_options;
    options.backoff_base_s = 0.001;
    options.backoff_max_s = 0.01;
    options.health.probation_runs = 2;
    core::ResilienceSupervisor supervisor(comm, graph, options);

    auto runOnce = [&]() {
        ccl::RankBuffers buffers(kRanks);
        for (std::size_t r = 0; r < buffers.size(); ++r)
            buffers[r].assign(elems, static_cast<float>(r + 1));
        return supervisor.allReduce(buffers);
    };

    util::Table churn_table({"cycle", "mttr_ms", "retries",
                             "fallback_rung", "settle_runs",
                             "recovered_rung",
                             "recovered_bw_ratio_%"});
    std::vector<double> mttr_ms_samples;
    std::vector<double> ratio_samples;

    for (int cycle = 0; cycle < cycles; ++cycle) {
        // Steady state on C-Cube before the fault lands.
        runOnce();

        // Mid-call failure: the victim rank dies on its next mailbox
        // op; while the abort clears, the fabric manager reports the
        // NVLink outage, so the retry re-plans onto the fallback.
        const int victim = 1 + cycle % (kRanks - 1);
        ccl::FaultInjector::Fault kill;
        kill.rank = victim;
        kill.action = ccl::FaultInjector::Action::kKill;
        kill.at_op = injector.opsSeen(victim);
        injector.arm(kill);
        std::atomic<bool> fed{false};
        comm.setClearAbortHook([&]() {
            if (fed.exchange(true))
                return;
            for (int id : nvlink_set)
                supervisor.noteChannelFail(id);
        });
        const core::SupervisorReport fault_report = runOnce();
        comm.setClearAbortHook({});
        const core::RecoveryKind fallback_rung = fault_report.rung;

        // Links restore; the supervisor climbs back once probation is
        // served AND the health scores recover (repeated churn cycles
        // decay scores below the quarantine threshold and mark links
        // flapping, which doubles their sit-out — so the settle count
        // grows with churn history instead of being a constant).
        for (int id : nvlink_set)
            supervisor.noteChannelRestore(id);
        int settle_runs = 0;
        core::SupervisorReport promoted;
        for (; settle_runs < 16; ++settle_runs) {
            promoted = runOnce();
            if (promoted.rung == core::RecoveryKind::kCCube)
                break;
        }

        // Bandwidth of the LIVE plan after re-promotion, versus the
        // healthy C-Cube plan — the >=95% recovery criterion.
        const double recovered_time =
            planTime(supervisor.plan(), bytes);
        const double ratio =
            recovered_time > 0.0 ? healthy_time / recovered_time : 0.0;

        const double mttr_ms = fault_report.mttr_s * 1e3;
        mttr_ms_samples.push_back(mttr_ms);
        ratio_samples.push_back(ratio);
        churn_table.addRow(
            {std::to_string(cycle), util::formatDouble(mttr_ms, 3),
             std::to_string(fault_report.attempts - 1),
             core::recoveryKindName(fallback_rung),
             std::to_string(settle_runs),
             core::recoveryKindName(promoted.rung),
             util::formatDouble(ratio * 100.0, 1)});
    }
    comm.setFaultInjector(nullptr);
    monitor.disable();

    churn_table.print(std::cout);
    const double worst_ratio =
        *std::min_element(ratio_samples.begin(), ratio_samples.end());
    std::cout << "\nsupervisor stats: "
              << supervisor.stats().collectives << " collectives, "
              << supervisor.stats().retries << " retries, "
              << supervisor.stats().demotions << " demotions, "
              << supervisor.stats().promotions
              << " promotions; monitor recorded "
              << monitor.recoveriesTotal() << " recoveries ("
              << monitor.recoveryViolations()
              << " MTTR budget violations)\n";
    std::cout << "worst post-churn bandwidth ratio: "
              << util::formatDouble(worst_ratio * 100.0, 1)
              << "% of healthy C-Cube (criterion: >= 95%)\n";

    util::Table mttr_table = core::makeQuantileTable();
    core::addQuantileRow(mttr_table, "mttr", mttr_ms_samples);
    std::cout << "\n";
    mttr_table.print(std::cout);

    // Chaos-fuzz summary: seeded DES chaos plans, the liveness/safety
    // counts for the CI artifact.
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);
    double des_healthy = 0.0;
    {
        sim::Simulation sim;
        simnet::Network net(sim, dgx1);
        des_healthy = simnet::runDoubleTreeSchedule(
                          sim, net, dt, util::mib(1),
                          simnet::PhaseMode::kOverlapped, 8)
                          .completion_time;
    }
    int fuzz_completions = 0;
    int fuzz_casualties = 0;
    std::size_t fuzz_dropped = 0;
    const int fuzz_runs = flags.getInt("fuzz-runs", 40);
    for (int seed = 1; seed <= fuzz_runs; ++seed) {
        simnet::ChaosOptions chaos_options;
        chaos_options.horizon_s = des_healthy;
        chaos_options.max_faults = 3;
        const simnet::ChaosPlan chaos(
            dgx1, static_cast<std::uint64_t>(seed), chaos_options);
        sim::Simulation sim;
        simnet::Network net(sim, dgx1);
        const simnet::FaultedRunResult run =
            simnet::runDoubleTreeWithFaults(
                sim, net, dt, util::mib(1),
                simnet::PhaseMode::kOverlapped, 8, chaos.plan());
        fuzz_completions += run.completed ? 1 : 0;
        fuzz_casualties += run.completed ? 0 : 1;
        fuzz_dropped += run.dropped_transfers;
    }
    std::ostringstream fuzz_summary;
    fuzz_summary << "chaos-fuzz (DES): " << fuzz_runs
                 << " seeded runs, " << fuzz_completions
                 << " completed, " << fuzz_casualties
                 << " casualties, " << fuzz_dropped
                 << " dropped transfers, 0 hangs\n";
    std::cout << "\n" << fuzz_summary.str();

    const std::string mttr_path = flags.get("mttr-out", "");
    if (!mttr_path.empty()) {
        std::ofstream out(mttr_path);
        churn_table.print(out);
        out << "\n";
        mttr_table.print(out);
        std::cout << "wrote MTTR table to " << mttr_path << "\n";
    }
    const std::string summary_path = flags.get("chaos-summary-out", "");
    if (!summary_path.empty()) {
        std::ofstream out(summary_path);
        out << fuzz_summary.str();
        std::cout << "wrote chaos-fuzz summary to " << summary_path
                  << "\n";
    }

    bool pass = true;
    if (monitor.recoveryViolations() > 0) {
        std::cerr << "FAIL: " << monitor.recoveryViolations()
                  << " MTTR budget violations\n";
        pass = false;
    }
    if (worst_ratio < kMinRecoveredRatio) {
        std::cerr << "FAIL: worst post-churn bandwidth ratio "
                  << worst_ratio << " < " << kMinRecoveredRatio << "\n";
        pass = false;
    }
    return pass ? 0 : 1;
}
