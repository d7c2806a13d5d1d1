/**
 * @file
 * Ablation: detour routes vs host-routed PCIe (§IV-A).
 *
 * The logical edge GPU2→GPU4 has no direct NVLink. The paper's detour
 * forwards through GPU0 over NVLink; the alternative the detour
 * exists to avoid routes through the host over PCIe. This harness
 * runs the same overlapped tree with both routes.
 */

#include <iostream>
#include <vector>

#include "obs/session.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "sweep/sweep.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/units.h"

int
main(int argc, char** argv)
{
    const ccube::util::Flags flags(argc, argv);
    ccube::obs::ObsSession obs_session(flags);
    using namespace ccube;

    std::cout << "=== Ablation: detour (NVLink via GPU0) vs "
                 "host-routed PCIe for the 2-4 tree edge ===\n\n";

    topo::Dgx1Params params;
    params.with_host = true;
    const topo::Graph graph = topo::makeDgx1(params);
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(graph);

    // Variant: replace tree0's detour route with 2 → host → 4.
    topo::TreeEmbedding pcie_tree = dt.tree0;
    for (topo::Route& route : pcie_tree.routes) {
        if (route.isDetour())
            route.hops = {route.hops.front(), topo::kDgx1Host,
                          route.hops.back()};
    }

    const auto overlapped = [](const topo::TreeEmbedding& tree) {
        return sched::treeProgram(tree, sched::TreeDirection::kAllReduce,
                                  sched::PhaseMode::kOverlapped, 32);
    };
    const sched::Program detour_program = overlapped(dt.tree0);
    const sched::Program pcie_program = overlapped(pcie_tree);

    util::Table table(
        {"size", "detour_ms", "pcie_ms", "detour_advantage_%"});
    const std::vector<double> sizes_mb{8.0, 32.0, 128.0};
    // One task per message size, each filling a pre-assigned row.
    std::vector<std::vector<std::string>> rows(sizes_mb.size());
    sweep::runIndexed(
        sweep::Options::fromFlags(flags), sizes_mb.size(),
        [&](std::size_t i) {
            const double bytes = util::mib(sizes_mb[i]);

            sim::Simulation sim_a;
            simnet::Network net_a(sim_a, graph);
            const double detour =
                simnet::runProgram(sim_a, net_a, detour_program, bytes)
                    .completion_time;

            sim::Simulation sim_b;
            simnet::Network net_b(sim_b, graph);
            const double pcie =
                simnet::runProgram(sim_b, net_b, pcie_program, bytes)
                    .completion_time;

            rows[i] = {util::formatBytes(bytes),
                       util::formatDouble(detour * 1e3, 3),
                       util::formatDouble(pcie * 1e3, 3),
                       util::formatDouble((pcie / detour - 1.0) * 100,
                                          1)};
        });
    for (std::vector<std::string>& row : rows)
        table.addRow(std::move(row));
    table.print(std::cout);
    std::cout << "\nThe PCIe route throttles the whole pipeline to "
                 "host-link bandwidth; the GPU detour keeps the tree "
                 "at NVLink speed at the cost of one extra hop.\n";
    return 0;
}
