/**
 * @file
 * Timeline visualization: renders the steady-state training-iteration
 * timeline (backward → per-chunk AllReduce → chained forward) as an
 * ASCII Gantt chart for each mode, and dumps CSV for external
 * plotting — a Fig. 2(c)/Fig. 8 view of the simulated system.
 *
 * With `--trace-out=FILE` the run additionally captures a
 * Chrome/Perfetto trace covering all three layers: the analytic
 * iteration timeline (core.iteration), the DES channel occupancy
 * behind it (simnet.channel), and a real threaded ring AllReduce
 * (ccl.mailbox / ccl.allreduce). `--metrics-out=FILE` exports the
 * per-channel utilization and rank counters.
 *
 * Usage:
 *   timeline_dump [--workload zfnet|vgg16|resnet50|resnet101]
 *                 [--batch N] [--bw SCALE] [--csv]
 *                 [--trace-out=FILE] [--metrics-out=FILE]
 */

#include <iostream>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/program_task.h"
#include "core/ccube_engine.h"
#include "core/timeline.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "topo/ring_embedding.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

/**
 * Runs a small threaded ring AllReduce so a trace capture contains
 * real ccl-layer spans (mailbox post/wait, reduce-scatter/allgather)
 * alongside the analytic timeline.
 */
void
runFunctionalSample()
{
    using namespace ccube;
    constexpr int kRanks = 4;
    constexpr std::size_t kElems = 1024;

    ccl::RankBuffers buffers(kRanks);
    util::Rng rng(7);
    for (auto& buf : buffers) {
        buf.resize(kElems);
        rng.fill(buf, -1.0f, 1.0f);
    }
    const topo::RingEmbedding ring = topo::makeSequentialRing(kRanks);
    ccl::Communicator comm(kRanks);
    ccl::runProgram(comm, buffers,
                    sched::ringProgram(ring, sched::RingPhase::kAllReduce));
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ccube;

    const util::Flags flags(argc, argv);
    obs::ObsSession obs_session(flags);
    const bool csv = flags.has("csv");

    dnn::NetworkModel network = dnn::buildResnet50();
    const std::string workload = flags.get("workload", "resnet50");
    if (workload == "zfnet") {
        network = dnn::buildZfNet();
    } else if (workload == "vgg16") {
        network = dnn::buildVgg16();
    } else if (workload == "resnet101") {
        network = dnn::buildResnet101();
    } else if (workload != "resnet50") {
        std::cerr << "unknown --workload " << workload << "\n";
        return 1;
    }

    core::CCubeEngine engine(std::move(network));
    core::IterationConfig config;
    config.batch = flags.getInt("batch", 16);
    // Low bandwidth by default so the communication bar is visible.
    config.bandwidth_scale = flags.getDouble("bw", 0.25);

    int mode_index = 0;
    for (core::Mode mode :
         {core::Mode::kBaseline, core::Mode::kOverlappedTree,
          core::Mode::kCCube}) {
        if (obs_session.tracing()) {
            // One trace process per mode so Perfetto shows the three
            // iteration timelines side by side.
            core::TimelineBuilder::record(
                obs::TraceRecorder::global(), engine, mode,
                config, obs::pids::core() + mode_index);
        }
        ++mode_index;
        const auto events =
            core::TimelineBuilder::build(engine, mode, config);
        if (csv) {
            std::cout << "# mode " << core::modeName(mode) << "\n";
            core::TimelineBuilder::writeCsv(std::cout, events);
            continue;
        }
        std::cout << "\n=== " << core::modeName(mode) << " ("
                  << engine.network().name() << ", batch "
                  << config.batch << ", bandwidth x"
                  << config.bandwidth_scale << ") ===\n";
        core::TimelineBuilder::printAscii(std::cout, events);
    }
    if (!csv) {
        std::cout << "\nIn B, forward starts only after the whole "
                     "AllReduce; in CC the forward bar slides left "
                     "under the AllReduce bar — the chaining the "
                     "paper proposes.\n";
    }
    if (obs_session.tracing())
        runFunctionalSample();
    obs_session.finish();
    return 0;
}
