/**
 * @file
 * Reproduces Fig. 15: per-GPU normalized performance with C-Cube;
 * GPUs 0 and 1 host the detour forwarding kernels (§IV-A) and pay a
 * small SM tax.
 *
 * Paper shape: detour GPUs lose only ~3-4% vs the others — the detour
 * route is bandwidth- not latency-critical, so forwarding is cheap.
 */

#include <iostream>

#include "core/ccube_engine.h"
#include "obs/session.h"
#include "topo/detour_router.h"
#include "util/flags.h"
#include "util/table.h"

int
main(int argc, char** argv)
{
    const ccube::util::Flags flags(argc, argv);
    ccube::obs::ObsSession obs_session(flags);
    using namespace ccube;

    std::cout << "=== Fig. 15: per-GPU normalized performance "
                 "(ResNet-50, batch 64, high bandwidth, CC) ===\n\n";

    core::CCubeEngine engine(dnn::buildResnet50());
    core::IterationConfig config;
    config.batch = 64;
    config.bandwidth_scale = 1.0;

    const auto perf =
        engine.perGpuNormalizedPerf(core::Mode::kCCube, config);
    const auto rules =
        topo::extractForwardingRules(engine.doubleTree());

    util::Table table(
        {"gpu", "forwarding_kernels", "normalized_perf", "loss_%"});
    for (int g = 0; g < 8; ++g) {
        int kernels = 0;
        for (const auto& rule : rules)
            if (rule.transit == g)
                ++kernels;
        table.addRow(
            {"GPU" + std::to_string(g), std::to_string(kernels),
             util::formatDouble(perf[static_cast<std::size_t>(g)], 4),
             util::formatDouble(
                 (1.0 - perf[static_cast<std::size_t>(g)]) * 100, 2)});
    }
    table.print(std::cout);
    std::cout << "\nPaper reference: detour nodes (GPU0, GPU1) lose "
                 "only 3-4% vs non-detour nodes; performance is "
                 "bandwidth- not latency-dominated.\n";
    return 0;
}
