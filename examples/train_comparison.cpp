/**
 * @file
 * Training-throughput comparison: evaluates one workload across every
 * configuration of the paper (B, C1, C2, R, CC), both bandwidth
 * settings, and a batch sweep, then shows the per-GPU detour cost.
 *
 * Usage: train_comparison [zfnet|vgg16|resnet50]   (default resnet50)
 *                         [--trace-out=FILE] [--metrics-out=FILE]
 */

#include <cstring>
#include <iostream>

#include "core/ccube_engine.h"
#include "core/report.h"
#include "core/trainer.h"
#include "obs/session.h"
#include "util/flags.h"

int
main(int argc, char** argv)
{
    using namespace ccube;

    const util::Flags flags(argc, argv);
    obs::ObsSession obs_session(flags);

    dnn::NetworkModel network = dnn::buildResnet50();
    if (argc > 1 && argv[1][0] == '-')
        argc = 1; // only observability flags given, no workload
    if (argc > 1) {
        if (std::strcmp(argv[1], "zfnet") == 0) {
            network = dnn::buildZfNet();
        } else if (std::strcmp(argv[1], "vgg16") == 0) {
            network = dnn::buildVgg16();
        } else if (std::strcmp(argv[1], "resnet50") != 0) {
            std::cerr << "unknown workload: " << argv[1]
                      << " (want zfnet|vgg16|resnet50)\n";
            return 1;
        }
    }

    core::CCubeEngine engine(std::move(network));
    std::cout << "Workload " << engine.network().name() << ": "
              << engine.network().numLayers() << " layers, "
              << engine.network().totalParams() << " parameters\n\n";

    util::Table table = core::makeIterationTable();
    for (const auto& [bw_name, bw] :
         {std::pair<const char*, double>{"low", 0.25},
          std::pair<const char*, double>{"high", 1.0}}) {
        for (int batch : {16, 32, 64, 128}) {
            core::IterationConfig config;
            config.batch = batch;
            config.bandwidth_scale = bw;
            for (core::Mode mode : core::allModes()) {
                core::addIterationRow(table, engine.network().name(),
                                      bw_name, batch, mode,
                                      engine.evaluate(mode, config));
            }
        }
    }
    table.print(std::cout);

    // Whole-run throughput over 100 iterations (cold start included).
    std::cout << "\nSimulated 100-iteration run (batch 64, high "
                 "bandwidth):\n";
    core::Trainer trainer(engine);
    core::IterationConfig run_config;
    run_config.batch = 64;
    util::Table run_table({"mode", "total_s", "samples_per_s",
                           "scaling_efficiency"});
    for (core::Mode mode : core::allModes()) {
        const auto run = trainer.run(mode, run_config, 100);
        run_table.addRow(
            {core::modeName(mode),
             util::formatDouble(run.total_time, 3),
             util::formatDouble(run.samples_per_second, 0),
             util::formatDouble(run.scaling_efficiency, 3)});
    }
    run_table.print(std::cout);

    std::cout << "\nPer-GPU normalized performance under CC "
                 "(batch 64, high bandwidth):\n";
    core::IterationConfig config;
    config.batch = 64;
    const auto perf =
        engine.perGpuNormalizedPerf(core::Mode::kCCube, config);
    for (std::size_t g = 0; g < perf.size(); ++g) {
        std::cout << "  GPU" << g << ": "
                  << util::formatDouble(perf[g], 4)
                  << (perf[g] < 0.999 ? "   (detour forwarding node)"
                                      : "")
                  << "\n";
    }
    obs_session.finish();
    return 0;
}
