/**
 * @file
 * Reproduces Fig. 3: NCCL AllReduce performance for one-shot vs
 * layer-wise vs slicing invocation granularity with ResNet-50
 * parameter sizes, normalized to the NVLink hardware peak.
 *
 * Paper shape: layer-wise ≈ 2× slower than one-shot; slicing > 4×.
 *
 * Two sections:
 *  1. Analytic — the paper's α/β invocation model (unchanged).
 *  2. Measured — the functional ccl runtime executing the same three
 *     granularities on the DGX-1 double tree, under both execution
 *     engines. The persistent rank executor is this codebase's analog
 *     of the paper's persistent kernels (§IV): no per-invocation
 *     thread spawn, so fine granularity costs only the per-collective
 *     envelope. The pre-executor spawn-per-collective numbers (the
 *     "before" of this argument) are recorded in docs/performance.md;
 *     the analytic model above reproduces the paper's shape.
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/program_task.h"
#include "dnn/catalog.h"
#include "model/invocation_model.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace ccube;

constexpr int kRanks = 8;
constexpr int kChunksPerTree = 4;
/// Minimum invocation size the double tree can chunk (2 * chunks).
constexpr std::size_t kMinInvocationElems = 16;
/// Total payload for the measured sweep: 64 Ki floats = 256 KiB.
constexpr std::size_t kTotalElems = 1u << 16;
constexpr int kRepetitions = 3;

/** Scales the ResNet-50 layer-size distribution to kTotalElems. */
std::vector<std::size_t>
layerwiseInvocations(const std::vector<double>& layer_bytes)
{
    double total_bytes = 0.0;
    for (double b : layer_bytes)
        total_bytes += b;
    std::vector<std::size_t> elems;
    for (double b : layer_bytes) {
        const auto scaled = static_cast<std::size_t>(
            b / total_bytes * static_cast<double>(kTotalElems));
        elems.push_back(std::max(scaled, kMinInvocationElems));
    }
    return elems;
}

std::vector<std::size_t>
slicingInvocations()
{
    constexpr std::size_t kSliceElems = 512;
    return std::vector<std::size_t>(kTotalElems / kSliceElems,
                                    kSliceElems);
}

/**
 * Times one full sweep (all invocations back to back), best of
 * kRepetitions, in seconds. Buffers are preallocated and zero-filled
 * so the timed region is purely the collective runtime.
 */
double
measureSweep(ccl::Communicator& comm,
             const topo::DoubleTreeEmbedding& embedding,
             const std::vector<std::size_t>& invocations)
{
    std::vector<ccl::RankBuffers> buffers;
    buffers.reserve(invocations.size());
    for (std::size_t elems : invocations)
        buffers.emplace_back(kRanks, std::vector<float>(elems, 0.0f));

    const sched::Program program = sched::doubleTreeProgram(
        embedding, sched::PhaseMode::kOverlapped, kChunksPerTree);
    auto sweep = [&]() {
        for (ccl::RankBuffers& b : buffers)
            ccl::runProgram(comm, b, program);
    };
    sweep(); // warm up mailboxes, rank threads, forwarding-rule cache

    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kRepetitions; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        sweep();
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, dt.count());
    }
    return best;
}

} // namespace

int
main()
{
    using namespace ccube;
    using model::InvocationStrategy;

    std::cout << "=== Fig. 3: AllReduce bandwidth vs invocation "
                 "granularity (ResNet-50 parameters, 8 nodes) ===\n\n";

    const dnn::NetworkModel resnet = dnn::buildResnet50();
    std::vector<double> layer_bytes;
    for (double b : resnet.layerParamBytes())
        if (b > 0.0)
            layer_bytes.push_back(b);

    model::InvocationParams params;
    params.link = model::AlphaBeta::fromBandwidth(4.6e-6, 25e9);
    const model::InvocationModel inv(params);
    const double peak = 25e9;

    util::Table table({"strategy", "invocations", "bandwidth_GBps",
                       "normalized_to_peak", "slowdown_vs_oneshot"});
    const double one_shot = inv.effectiveBandwidth(
        8, layer_bytes, InvocationStrategy::kOneShot);
    const struct {
        const char* name;
        InvocationStrategy strategy;
    } rows[] = {
        {"one-shot", InvocationStrategy::kOneShot},
        {"layer-wise", InvocationStrategy::kLayerWise},
        {"slicing", InvocationStrategy::kSlicing},
    };
    for (const auto& row : rows) {
        const double bw =
            inv.effectiveBandwidth(8, layer_bytes, row.strategy);
        const std::size_t count =
            inv.invocationSizes(layer_bytes, row.strategy).size();
        table.addRow({row.name, std::to_string(count),
                      util::formatDouble(bw / 1e9, 2),
                      util::formatDouble(bw / peak, 3),
                      util::formatDouble(one_shot / bw, 2)});
    }
    table.print(std::cout);
    std::cout << "\nPaper reference: layer-wise ≈ 2x loss, slicing > 4x "
                 "loss vs one-shot — C-Cube therefore keeps the "
                 "one-shot collective and chains within it.\n";

    // ------------------------------------------------------------------
    // Measured section: the functional runtime on the same three
    // granularities, persistent executor vs the shared pool.
    // ------------------------------------------------------------------
    std::cout << "\n=== Measured: functional double-tree AllReduce, "
              << kTotalElems * sizeof(float) / 1024
              << " KiB total payload, " << kRanks
              << " ranks (best of " << kRepetitions << ") ===\n\n";

    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);

    const struct {
        const char* name;
        std::vector<std::size_t> invocations;
    } sweeps[] = {
        {"one-shot", {kTotalElems}},
        {"layer-wise", layerwiseInvocations(layer_bytes)},
        {"slicing", slicingInvocations()},
    };
    const struct {
        const char* name;
        ccl::RankExecutor::Mode mode;
    } modes[] = {
        {"persistent", ccl::RankExecutor::Mode::kPersistent},
        {"statemachine", ccl::RankExecutor::Mode::kStateMachine},
    };

    util::Table measured({"strategy", "invocations", "mode",
                          "sweep_ms", "slowdown_vs_oneshot"});
    for (const auto& mode : modes) {
        ccl::Communicator comm(kRanks, 4, mode.mode);
        double mode_one_shot = 0.0;
        for (const auto& sweep : sweeps) {
            const double secs =
                measureSweep(comm, dt, sweep.invocations);
            if (sweep.name == sweeps[0].name)
                mode_one_shot = secs;
            const double slowdown =
                mode_one_shot > 0.0 ? secs / mode_one_shot : 0.0;
            measured.addRow(
                {sweep.name, std::to_string(sweep.invocations.size()),
                 mode.name, util::formatDouble(secs * 1e3, 3),
                 util::formatDouble(slowdown, 2)});
        }
    }
    measured.print(std::cout);
    std::cout << "\nThe persistent executor keeps one thread per rank "
                 "alive between invocations — the host analog of the "
                 "paper's persistent kernels — so fine-grained "
                 "invocation pays the collective envelope, never a "
                 "thread spawn.\n";
    return 0;
}
