/**
 * @file
 * Bring-your-own-machine: defines a custom 4-GPU physical topology,
 * embeds logical collectives onto it (ring + double tree with a
 * detour), validates the embedding with the conflict analyzer, and
 * times the algorithms — the workflow for porting C-Cube to a new
 * box.
 *
 * The custom box: 4 GPUs on a "square with one diagonal" — pairs
 * (0,1) (1,2) (2,3) (3,0) connected, (0,2) double-linked, (1,3)
 * missing (needs a detour).
 */

#include <iostream>

#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/detour_router.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "util/table.h"
#include "util/units.h"

int
main()
{
    using namespace ccube;

    // --- 1. Describe the physical machine. ---------------------------
    topo::Graph box("custom_box");
    for (int g = 0; g < 4; ++g)
        box.addNode("GPU" + std::to_string(g));
    const double bw = 25e9;
    const double alpha = 4.6e-6;
    box.addLink(0, 1, bw, alpha);
    box.addLink(1, 2, bw, alpha);
    box.addLink(2, 3, bw, alpha);
    box.addLink(3, 0, bw, alpha);
    box.addLink(0, 2, bw, alpha); // double diagonal
    box.addLink(0, 2, bw, alpha);

    std::cout << "Machine: 4 GPUs, " << box.channelCount()
              << " unidirectional channels; pair (1,3) not "
                 "connected.\n\n";

    // --- 2. Embed the logical topologies. ----------------------------
    const topo::RingEmbedding ring = topo::findHamiltonianRing(box, 4);
    std::cout << "Ring embedding: ";
    for (int i = 0; i < ring.size(); ++i)
        std::cout << ring.order[static_cast<std::size_t>(i)]
                  << (i + 1 < ring.size() ? " -> " : "\n");

    // First attempt: a natural pair of trees where tree 1 uses the
    // missing edge 1-3 (auto-detoured through GPU0). The analyzer
    // catches that the overlapped algorithm would contend — this is
    // the Fig. 10(a) problem on a custom box.
    topo::BinaryTree t0a(4);
    t0a.setRoot(0);
    t0a.addEdge(0, 1);
    t0a.addEdge(0, 2);
    t0a.addEdge(2, 3);
    topo::BinaryTree t1a(4);
    t1a.setRoot(2);
    t1a.addEdge(2, 0);
    t1a.addEdge(2, 1);
    t1a.addEdge(1, 3); // not physically adjacent → detour
    topo::DoubleTreeEmbedding naive(
        topo::embedTree(box, std::move(t0a)),
        topo::embedTree(box, std::move(t1a)));
    for (const topo::ForwardingRule& rule :
         topo::extractForwardingRules(naive)) {
        std::cout << "Naive trees — detour: GPU" << rule.transit
                  << " forwards GPU" << rule.upstream << " -> GPU"
                  << rule.downstream << " ("
                  << (rule.phase == topo::PhaseDirection::kReduction
                          ? "reduction"
                          : "broadcast")
                  << ")\n";
    }
    std::cout << "Naive trees conflict check: "
              << (topo::isConflictFree(box, naive)
                      ? "conflict-free"
                      : "CONFLICTS — overlap would contend")
              << "\n";

    // Second attempt (topology-aware, the C-Cube way): route both
    // trees so the only shared pair is the double diagonal (0,2) —
    // tree 0 uses {0-1, 0-2, 2-3}, tree 1 uses {2-1, 2-0, 0-3}.
    topo::BinaryTree t0(4);
    t0.setRoot(0);
    t0.addEdge(0, 1);
    t0.addEdge(0, 2);
    t0.addEdge(2, 3);
    topo::BinaryTree t1(4);
    t1.setRoot(2);
    t1.addEdge(2, 1);
    t1.addEdge(2, 0);
    t1.addEdge(0, 3);
    topo::DoubleTreeEmbedding dt(topo::embedTree(box, std::move(t0)),
                                 topo::embedTree(box, std::move(t1)));
    std::cout << "Topology-aware trees conflict check: "
              << (topo::isConflictFree(box, dt)
                      ? "conflict-free (the double diagonal absorbs "
                        "both trees)"
                      : "CONFLICTS")
              << "\n\n";

    // --- 3. Time the collectives on this machine. --------------------
    util::Table table({"algorithm", "64MB_completion_ms",
                       "bandwidth_GBps", "turnaround_ms"});
    const double bytes = util::mib(64);
    {
        sim::Simulation sim;
        simnet::Network net(sim, box);
        const auto r = simnet::runProgram(
            sim, net, sched::ringProgram(ring, sched::RingPhase::kAllReduce),
            bytes);
        table.addRow({"ring",
                      util::formatDouble(r.completion_time * 1e3, 3),
                      util::formatDouble(
                          r.effectiveBandwidth(bytes) / 1e9, 2),
                      util::formatDouble(r.turnaroundTime() * 1e3, 3)});
    }
    for (const auto& [name, mode] :
         {std::pair<const char*, sched::PhaseMode>{
              "double tree (two-phase)",
              sched::PhaseMode::kTwoPhase},
          std::pair<const char*, sched::PhaseMode>{
              "double tree (overlapped)",
              sched::PhaseMode::kOverlapped}}) {
        sim::Simulation sim;
        simnet::Network net(sim, box);
        const auto r = simnet::runProgram(
            sim, net, sched::doubleTreeProgram(dt, mode, 32), bytes);
        table.addRow({name,
                      util::formatDouble(r.completion_time * 1e3, 3),
                      util::formatDouble(
                          r.effectiveBandwidth(bytes) / 1e9, 2),
                      util::formatDouble(r.turnaroundTime() * 1e3, 3)});
    }
    table.print(std::cout);
    return 0;
}
