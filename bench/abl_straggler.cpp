/**
 * @file
 * Ablation: sensitivity to a degraded link (straggler).
 *
 * Synchronous collectives are gated by their slowest member. This
 * harness degrades one NVLink pair's bandwidth and compares how the
 * multi-ring and the overlapped double tree degrade — the ring
 * pushes every byte through every link, so one slow link caps it;
 * the tree only suffers where the slow pair carries tree traffic.
 */

#include <iostream>
#include <vector>

#include "obs/session.h"
#include "sweep/sweep.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace ccube;

struct Timing {
    double ring;
    double tree_c1;
};

Timing
measure(const topo::Graph& graph, double bytes)
{
    const auto dt = topo::makeDgx1DoubleTree(graph);
    const auto rings = topo::findDisjointRings(graph, 8, 4);

    sim::Simulation sim_r;
    simnet::Network net_r(sim_r, graph);
    const double ring =
        simnet::runProgram(sim_r, net_r, sched::multiRingProgram(rings), bytes)
            .completion_time;

    sim::Simulation sim_t;
    simnet::Network net_t(sim_t, graph);
    const double tree =
        simnet::runProgram(sim_t, net_t,
                           sched::doubleTreeProgram(
                               dt, sched::PhaseMode::kOverlapped, 32),
                           bytes)
            .completion_time;
    return Timing{ring, tree};
}

} // namespace

int
main(int argc, char** argv)
{
    const ccube::util::Flags flags(argc, argv);
    ccube::obs::ObsSession obs_session(flags);
    std::cout << "=== Ablation: straggler link sensitivity "
                 "(DGX-1, 64 MiB, pair (2,3) degraded) ===\n\n";

    const double bytes = util::mib(64);

    // Slowdown factors including healthy; each cell simulates its own
    // degraded graph, so the grid fans over the sweep pool.
    const std::vector<double> factors{1.0, 0.5, 0.25, 0.1};
    std::vector<Timing> timings(factors.size());
    sweep::runIndexed(
        sweep::Options::fromFlags(flags), factors.size(),
        [&](std::size_t i) {
            topo::Graph graph = topo::makeDgx1();
            if (factors[i] < 1.0) {
                for (int id : graph.channelIds(2, 3))
                    graph.scaleChannelBandwidth(id, factors[i]);
                for (int id : graph.channelIds(3, 2))
                    graph.scaleChannelBandwidth(id, factors[i]);
            }
            timings[i] = measure(graph, bytes);
        });

    const Timing healthy = timings.front();
    util::Table table({"link_slowdown", "ring_ms", "ring_loss_%",
                       "tree_C1_ms", "tree_loss_%"});
    table.addRow({"1.0 (healthy)",
                  util::formatDouble(healthy.ring * 1e3, 3), "0.0",
                  util::formatDouble(healthy.tree_c1 * 1e3, 3), "0.0"});
    for (std::size_t i = 1; i < factors.size(); ++i) {
        const Timing& t = timings[i];
        table.addRow(
            {util::formatDouble(factors[i], 2),
             util::formatDouble(t.ring * 1e3, 3),
             util::formatDouble((t.ring / healthy.ring - 1.0) * 100, 1),
             util::formatDouble(t.tree_c1 * 1e3, 3),
             util::formatDouble(
                 (t.tree_c1 / healthy.tree_c1 - 1.0) * 100, 1)});
    }
    table.print(std::cout);
    std::cout << "\nBoth algorithms route traffic over pair (2,3); "
                 "the ring's loss tracks the inverse link factor "
                 "directly, while the tree is partially shielded by "
                 "its pipelining until the slow pair dominates.\n";
    return 0;
}
