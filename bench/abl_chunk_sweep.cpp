/**
 * @file
 * Ablation: chunk-count sweep around K_opt (Eq. (4)).
 *
 * The chunk count trades per-step latency overhead (K too large)
 * against pipeline granularity (K too small); Eq. (3) predicts a
 * U-shaped completion time minimized at K_opt = √(log P·βN/α). This
 * harness sweeps K for the overlapped double tree on the DGX-1 at
 * 64 MiB and marks the model's K_opt.
 */

#include <iostream>
#include <vector>

#include "core/ccube_engine.h"
#include "model/tree_model.h"
#include "obs/session.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "sweep/sweep.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/units.h"

int
main(int argc, char** argv)
{
    const ccube::util::Flags flags(argc, argv);
    ccube::obs::ObsSession obs_session(flags);
    using namespace ccube;

    std::cout << "=== Ablation: chunk count vs AllReduce time "
                 "(DGX-1, 64 MiB, overlapped double tree) ===\n\n";

    core::CCubeEngine engine(dnn::buildResnet50());
    const double bytes = util::mib(64);
    const model::TreeModel model(engine.linkModel());
    const int kopt = model.optimalChunksInt(8, bytes / 2.0);

    util::Table table({"K_per_tree", "completion_ms", "bandwidth_GBps",
                       "note"});
    std::vector<int> chunk_counts;
    for (int k = 1; k <= 1024; k *= 2)
        chunk_counts.push_back(k);

    // One simulation per K through the sweep pool, each filling its
    // own slot; the winner scan and the table stay in K order.
    std::vector<simnet::ScheduleResult> results(chunk_counts.size());
    sweep::runIndexed(
        sweep::Options::fromFlags(flags), chunk_counts.size(),
        [&](std::size_t i) {
            sim::Simulation sim;
            simnet::Network net(sim, engine.graph());
            results[i] = simnet::runProgram(
                sim, net,
                sched::doubleTreeProgram(engine.doubleTree(),
                                         sched::PhaseMode::kOverlapped,
                                         chunk_counts[i]),
                bytes);
        });

    double best_time = 1e99;
    int best_k = 0;
    for (std::size_t i = 0; i < chunk_counts.size(); ++i) {
        const int k = chunk_counts[i];
        const auto& result = results[i];
        if (result.completion_time < best_time) {
            best_time = result.completion_time;
            best_k = k;
        }
        table.addRow(
            {std::to_string(k),
             util::formatDouble(result.completion_time * 1e3, 3),
             util::formatDouble(result.effectiveBandwidth(bytes) / 1e9,
                                2),
             (k / 2 < kopt && kopt <= k) ? "<- model K_opt here" : ""});
    }
    table.print(std::cout);
    std::cout << "\nModel K_opt = " << kopt
              << " per tree; best measured K = " << best_k
              << ". Completion is U-shaped in K exactly as Eq. (3) "
                 "predicts.\n";
    return 0;
}
