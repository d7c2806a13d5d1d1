/**
 * @file
 * Ablation: automated conflict-free embedding search vs the
 * hand-crafted paper embedding.
 *
 * The paper constructs its DGX-1 double tree by hand (§IV-A); our
 * randomized-greedy search finds conflict-free embeddings
 * automatically. This harness compares several auto-found embeddings
 * with the hand-crafted one on communication completion and
 * turnaround, and reports their structure.
 */

#include <iostream>

#include "obs/session.h"
#include "sweep/sweep.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/detour_router.h"
#include "topo/dgx1.h"
#include "topo/embedding_search.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace ccube;

void
addRow(util::Table& table, const std::string& name,
       const topo::Graph& graph,
       const topo::DoubleTreeEmbedding& embedding, double bytes)
{
    sim::Simulation sim;
    simnet::Network net(sim, graph);
    const auto result = simnet::runProgram(
        sim, net,
        sched::doubleTreeProgram(embedding, sched::PhaseMode::kOverlapped, 32),
        bytes);
    int detours = 0;
    int max_height = 0;
    for (const topo::TreeEmbedding* emb :
         {&embedding.tree0, &embedding.tree1}) {
        for (const topo::Route& route : emb->routes)
            if (route.isDetour())
                ++detours;
        max_height = std::max(max_height, emb->tree.height());
    }
    table.addRow({name, std::to_string(detours),
                  std::to_string(max_height),
                  util::formatDouble(result.completion_time * 1e3, 3),
                  util::formatDouble(result.turnaroundTime() * 1e3, 3)});
}

} // namespace

int
main(int argc, char** argv)
{
    const ccube::util::Flags flags(argc, argv);
    ccube::obs::ObsSession obs_session(flags);
    std::cout << "=== Ablation: hand-crafted vs auto-searched "
                 "double-tree embeddings (DGX-1, 64 MiB, "
                 "overlapped) ===\n\n";

    const topo::Graph dgx1 = topo::makeDgx1();
    const double bytes = util::mib(64);

    util::Table table({"embedding", "detours", "tree_height",
                       "completion_ms", "turnaround_ms"});
    addRow(table, "hand-crafted (paper Fig. 10)", dgx1,
           topo::makeDgx1DoubleTree(dgx1), bytes);
    const sweep::Options pool = sweep::Options::fromFlags(flags);
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 99ull}) {
        topo::EmbeddingSearchOptions options;
        options.seed = seed;
        // Restart attempts fan across the sweep pool; the result is
        // identical for every --jobs value.
        options.jobs = pool.jobs;
        const auto found =
            topo::findConflictFreeDoubleTree(dgx1, options);
        if (!found) {
            std::cout << "seed " << seed << ": no embedding found\n";
            continue;
        }
        addRow(table, "auto-search seed " + std::to_string(seed), dgx1,
               *found, bytes);
    }
    table.print(std::cout);
    std::cout << "\nAll embeddings are conflict-free by construction; "
                 "completion differs with tree height and detour "
                 "count. The search makes C-Cube portable to machines "
                 "without a hand analysis.\n";
    return 0;
}
