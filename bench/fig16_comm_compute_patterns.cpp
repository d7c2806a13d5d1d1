/**
 * @file
 * Reproduces Fig. 16: how the communication/computation pattern
 * across layers determines C-Cube's chaining efficiency.
 *
 *   Case 1 — compute shrinks and communication grows with depth
 *            (the common CNN pattern): chaining hides almost all
 *            communication.
 *   Case 2 — compute grows with depth: "bubbles" appear because the
 *            next layer's gradients are not ready when the previous
 *            forward finishes.
 *   Case 3 — communication shrinks with depth (big early layers):
 *            the gradient turnaround is pushed back.
 */

#include <iostream>
#include <vector>

#include "core/ccube_engine.h"
#include "obs/session.h"
#include "sweep/sweep.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace ccube;

/** Builds a synthetic 5-layer model from (params, flops) profiles. */
dnn::NetworkModel
makeCase(const std::string& name,
         const std::vector<std::pair<double, double>>& layers)
{
    std::vector<dnn::Layer> result;
    int index = 0;
    for (const auto& [mparams, gflops] : layers) {
        dnn::Layer layer;
        layer.name = std::string("L").append(std::to_string(++index));
        layer.kind = dnn::LayerKind::kConv;
        layer.param_count =
            static_cast<std::int64_t>(mparams * 1e6);
        layer.forward_flops_per_sample =
            static_cast<std::int64_t>(gflops * 1e9);
        layer.output_elems_per_sample = 1;
        layer.input_elems_per_sample = 1;
        result.push_back(std::move(layer));
    }
    return dnn::NetworkModel(name, std::move(result));
}

} // namespace

int
main(int argc, char** argv)
{
    const ccube::util::Flags flags(argc, argv);
    ccube::obs::ObsSession obs_session(flags);
    std::cout << "=== Fig. 16: communication/computation patterns and "
                 "chaining efficiency ===\n\n";

    // (million params, GFLOPs/sample) per layer, L1..L5. Totals are
    // identical across cases; only the distribution differs.
    const std::vector<
        std::pair<std::string, std::vector<std::pair<double, double>>>>
        cases{
            {"Case1: comm up, compute down (CNN-like)",
             {{1, 2.0}, {2, 1.0}, {4, 0.5}, {8, 0.3}, {15, 0.2}}},
            {"Case2: compute up with depth",
             {{1, 0.2}, {2, 0.3}, {4, 0.5}, {8, 1.0}, {15, 2.0}}},
            {"Case3: comm down with depth",
             {{15, 2.0}, {8, 1.0}, {4, 0.5}, {2, 0.3}, {1, 0.2}}},
        };

    util::Table table({"pattern", "comm_ms", "iter_CC_ms",
                       "iter_unchained_ms", "exposed_comm_ms",
                       "chain_efficiency"});
    // One task per case, each building its own engine and writing a
    // pre-assigned row slot; rows print in case order regardless of
    // the --jobs value.
    std::vector<std::vector<std::string>> rows(cases.size());
    sweep::runIndexed(
        sweep::Options::fromFlags(flags), cases.size(),
        [&](std::size_t i) {
            const auto& [label, profile] = cases[i];
            core::CCubeEngine engine(makeCase(label, profile));
            core::IterationConfig config;
            config.batch = 32;
            config.bandwidth_scale = 0.25;
            const auto cc = engine.evaluate(core::Mode::kCCube, config);
            const auto c1 =
                engine.evaluate(core::Mode::kOverlappedTree, config);
            rows[i] = {label, util::formatDouble(cc.comm_time * 1e3, 2),
                       util::formatDouble(cc.iteration_time * 1e3, 2),
                       util::formatDouble(c1.iteration_time * 1e3, 2),
                       util::formatDouble(cc.exposed_comm * 1e3, 2),
                       util::formatDouble(cc.chain_efficiency, 3)};
        });
    for (std::vector<std::string>& row : rows)
        table.addRow(std::move(row));
    table.print(std::cout);
    std::cout << "\nCase 1 hides the most communication (highest "
                 "chain efficiency); Case 2 stalls on late-layer "
                 "gradients (bubbles); Case 3 delays the first "
                 "dequeue. Most CNNs follow Case 1 (see Fig. 17).\n";
    return 0;
}
