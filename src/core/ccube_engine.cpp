#include "core/ccube_engine.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "core/chunk_mapper.h"
#include "dnn/compute_model.h"
#include "model/tree_model.h"
#include "obs/metrics.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/detour_router.h"
#include "util/logging.h"

namespace ccube {
namespace core {

namespace {

/** SM fraction each hosted forwarding kernel takes from its GPU's
 *  compute throughput (Fig. 15). */
constexpr double kDetourTaxPerKernel = 0.02;

} // namespace

const char*
modeName(Mode mode)
{
    switch (mode) {
      case Mode::kBaseline: return "B";
      case Mode::kOverlappedTree: return "C1";
      case Mode::kComputeChaining: return "C2";
      case Mode::kRing: return "R";
      case Mode::kCCube: return "CC";
    }
    return "?";
}

std::vector<Mode>
allModes()
{
    return {Mode::kBaseline, Mode::kOverlappedTree,
            Mode::kComputeChaining, Mode::kRing, Mode::kCCube};
}

MachineModel
makeDgx1Machine(const topo::Dgx1Params& params, int ring_count)
{
    topo::Graph graph = topo::makeDgx1(params);
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx1DoubleTree(graph);
    CCUBE_CHECK(topo::isConflictFree(graph, double_tree),
                "DGX-1 double tree embedding has channel conflicts");
    std::vector<topo::RingEmbedding> rings = topo::findDisjointRings(
        graph, params.num_gpus, ring_count);
    CCUBE_CHECK(!rings.empty(),
                "no Hamiltonian NVLink ring found on the DGX-1");
    return MachineModel{std::move(graph), std::move(double_tree),
                        std::move(rings)};
}

MachineModel
makeDgx2Machine(const topo::Dgx2Params& params)
{
    topo::Graph graph = topo::makeDgx2(params);
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx2DoubleTree(graph, params);
    CCUBE_CHECK(topo::isConflictFree(graph, double_tree),
                "DGX-2 double tree embedding has channel conflicts");
    std::vector<topo::RingEmbedding> rings{
        topo::makeSequentialRing(params.num_gpus)};
    return MachineModel{std::move(graph), std::move(double_tree),
                        std::move(rings)};
}

CCubeEngine::CCubeEngine(dnn::NetworkModel network, MachineModel machine)
    : machine_(std::move(machine)), network_(std::move(network))
{
    CCUBE_CHECK(!machine_.rings.empty() &&
                    machine_.rings.front().size() >= 2,
                "ring embeddings missing");
}

model::AlphaBeta
CCubeEngine::linkModel() const
{
    for (const topo::ChannelDesc& desc : machine_.graph.channels()) {
        if (desc.kind == topo::LinkKind::kNvlink) {
            return model::AlphaBeta::fromBandwidth(desc.latency,
                                                   desc.bandwidth);
        }
    }
    util::panic("topology has no NVLink channels");
}

int
CCubeEngine::chunksPerTree(double bytes_per_tree) const
{
    const model::TreeModel tree(linkModel());
    return tree.optimalChunksInt(numGpus(), bytes_per_tree);
}

simnet::ScheduleResult
CCubeEngine::commOnly(Mode mode, double bytes,
                      double bandwidth_scale) const
{
    sim::Simulation simulation;
    simnet::Network network(simulation, machine_.graph, bandwidth_scale);
    sched::Program program;
    switch (mode) {
      case Mode::kRing:
        program = sched::multiRingProgram(machine_.rings);
        break;
      case Mode::kBaseline:
      case Mode::kComputeChaining:
        program = sched::doubleTreeProgram(machine_.double_tree,
                                           sched::PhaseMode::kTwoPhase,
                                           chunksPerTree(bytes / 2.0));
        break;
      case Mode::kOverlappedTree:
      case Mode::kCCube:
        program = sched::doubleTreeProgram(machine_.double_tree,
                                           sched::PhaseMode::kOverlapped,
                                           chunksPerTree(bytes / 2.0));
        break;
      default:
        util::panic("unknown mode");
    }
    const simnet::ScheduleResult result =
        simnet::runProgram(simulation, network, program, bytes);

    // Observability: serialize this DES run on the trace timeline and
    // export per-channel telemetry when a metrics capture is active.
    network.closeTraceEpoch(result.completion_time);
    obs::MetricRegistry& registry = obs::MetricRegistry::global();
    if (registry.enabled() && result.completion_time > 0.0) {
        network.exportMetrics(registry, result.completion_time,
                              std::string("simnet.") + modeName(mode));
    }
    return result;
}

IterationResult
CCubeEngine::evaluate(Mode mode, const IterationConfig& config) const
{
    return compose(mode, config.batch,
                   commOnly(mode, network_.totalParamBytes(),
                            config.bandwidth_scale))
        .result;
}

ComposedIteration
CCubeEngine::compose(Mode mode, int batch,
                     const simnet::ScheduleResult& schedule,
                     double compute_slowdown) const
{
    CCUBE_CHECK(batch >= 1, "batch must be positive");

    const dnn::ComputeModel compute;
    std::vector<double> fwd_times =
        compute.layerForwardTimes(network_, batch);
    for (double& t : fwd_times)
        t *= compute_slowdown;
    const double fwd =
        std::accumulate(fwd_times.begin(), fwd_times.end(), 0.0);
    const double bwd =
        compute.backwardTime(network_, batch) * compute_slowdown;

    ComposedIteration iteration;
    IterationResult& result = iteration.result;
    result.forward_time = fwd;
    result.backward_time = bwd;
    result.comm_time = schedule.completion_time;
    result.turnaround_time = schedule.turnaroundTime();

    // Unchained modes run the one-shot AllReduce strictly between
    // backward and the next forward (Fig. 2(a)). With gradient
    // queuing, layer L's forward launches once the previous layer
    // finished and L's chunks all arrived (Fig. 8(b)).
    const bool chained = mode == Mode::kComputeChaining ||
                         mode == Mode::kCCube;
    const ChunkMapper mapper(schedule.geometry);
    const std::vector<double> layer_bytes = network_.layerParamBytes();
    double t = chained ? 0.0 : bwd + schedule.completion_time;
    for (int l = 0; l < network_.numLayers(); ++l) {
        double start = t;
        if (chained) {
            start = std::max(
                t, bwd + mapper.layerReadyTime(layer_bytes, l,
                                               schedule.chunk_ready));
        }
        t = start + fwd_times[static_cast<std::size_t>(l)];
        iteration.forward_start.push_back(start);
        iteration.forward_end.push_back(t);
    }
    // The unchained period adds the forward total in one step.
    result.iteration_time =
        chained ? t : bwd + schedule.completion_time + fwd;

    const double ideal = fwd + bwd;
    result.normalized_perf = ideal / result.iteration_time;
    result.exposed_comm = result.iteration_time - ideal;
    result.chain_efficiency =
        result.comm_time > 0.0
            ? 1.0 - result.exposed_comm / result.comm_time
            : 1.0;
    return iteration;
}

std::vector<double>
CCubeEngine::perGpuNormalizedPerf(Mode mode,
                                  const IterationConfig& config) const
{
    // Count forwarding kernels per GPU from the detour rules (switch
    // transits forward in hardware and have no rule).
    std::vector<int> kernels(static_cast<std::size_t>(numGpus()), 0);
    for (const topo::ForwardingRule& rule :
         topo::extractForwardingRules(machine_.double_tree))
        ++kernels[static_cast<std::size_t>(rule.transit)];

    const simnet::ScheduleResult schedule = commOnly(
        mode, network_.totalParamBytes(), config.bandwidth_scale);
    const double nominal =
        compose(mode, config.batch, schedule).result.iteration_time;

    std::vector<double> perf;
    for (int count : kernels) {
        const double tax = kDetourTaxPerKernel * count;
        CCUBE_CHECK(tax < 1.0, "forwarding tax too large");
        const double taxed =
            compose(mode, config.batch, schedule, 1.0 / (1.0 - tax))
                .result.iteration_time;
        // Per-GPU throughput normalized to an untaxed GPU.
        perf.push_back(nominal / taxed);
    }
    return perf;
}

} // namespace core
} // namespace ccube
