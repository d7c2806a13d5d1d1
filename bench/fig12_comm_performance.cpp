/**
 * @file
 * Reproduces Fig. 12: (a) communication performance of the baseline
 * two-tree (B) vs overlapped two-tree (C1) on the DGX-1 as data size
 * grows; (b) the measured C1-over-B benefit against the α-β model
 * prediction (Eq. (6) / Eq. (7)).
 *
 * Paper shape: C1 exceeds B by ~75% at 64 MB rising to ~80% for
 * larger sizes; measurement tracks the model closely.
 */

#include <iostream>

#include "core/ccube_engine.h"
#include "model/overlapped_tree_model.h"
#include "model/tree_model.h"
#include "obs/session.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/units.h"

int
main(int argc, char** argv)
{
    using namespace ccube;

    const util::Flags flags(argc, argv);
    obs::ObsSession obs_session(flags);

    std::cout << "=== Fig. 12: DGX-1 communication performance, "
                 "B vs C1 ===\n\n";

    core::CCubeEngine engine(dnn::buildResnet50());
    const model::AlphaBeta link = engine.linkModel();
    const model::TreeModel tree_model(link);
    const model::OverlappedTreeModel over_model(link);

    util::Table table({"size", "B_ms", "C1_ms", "B_GBps", "C1_GBps",
                       "measured_gain_%", "model_gain_%"});

    for (double mb : {16.0, 32.0, 64.0, 128.0, 256.0}) {
        const double bytes = util::mib(mb);
        const auto base =
            engine.commOnly(core::Mode::kBaseline, bytes);
        const auto over =
            engine.commOnly(core::Mode::kOverlappedTree, bytes);
        const double measured =
            base.completion_time / over.completion_time - 1.0;
        // Each tree of the double tree carries half the payload.
        const double model = tree_model.allReduceTime(8, bytes / 2) /
                                 over_model.allReduceTime(8, bytes / 2) -
                             1.0;
        table.addRow(
            {util::formatBytes(bytes),
             util::formatDouble(base.completion_time * 1e3, 3),
             util::formatDouble(over.completion_time * 1e3, 3),
             util::formatDouble(
                 base.effectiveBandwidth(bytes) / 1e9, 2),
             util::formatDouble(
                 over.effectiveBandwidth(bytes) / 1e9, 2),
             util::formatDouble(measured * 100, 1),
             util::formatDouble(model * 100, 1)});
    }
    table.print(std::cout);
    std::cout << "\nPaper reference: +75% at 64MB rising to ~80%; "
                 "Fig. 12(b) shows measurement tracking the Eq.(6)/"
                 "Eq.(7) model. Residual gap vs the model comes from "
                 "the detour hop the physical embedding needs.\n";
    obs_session.finish();
    return 0;
}
