#include "core/ccube_engine.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "core/chunk_mapper.h"
#include "model/tree_model.h"
#include "obs/metrics.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "sweep/sweep.h"
#include "topo/detour_router.h"
#include "util/logging.h"

namespace ccube {
namespace core {

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
                        std::move(rings), params.num_gpus};
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
                        std::move(rings), params.num_gpus};
}

CCubeEngine::CCubeEngine(dnn::NetworkModel network, EngineConfig config)
    : CCubeEngine(std::move(network),
                  makeDgx1Machine(config.dgx1, config.ring_count),
                  config)
{
}

CCubeEngine::CCubeEngine(dnn::NetworkModel network, MachineModel machine,
                         EngineConfig config)
    : machine_(std::move(machine)), network_(std::move(network)),
      gpu_(config.gpu),
      detour_tax_per_kernel_(config.detour_tax_per_kernel)
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
    return tree.optimalChunksInt(machine_.rings.front().size(),
                                 bytes_per_tree);
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
    return evaluate(mode, config, /*compute_slowdown=*/1.0);
}

IterationResult
CCubeEngine::evaluate(Mode mode, const IterationConfig& config,
                      double compute_slowdown) const
{
    CCUBE_CHECK(config.batch >= 1, "batch must be positive");
    CCUBE_CHECK(config.bandwidth_scale > 0.0,
                "bandwidth scale must be positive");

    const dnn::ComputeModel compute(gpu_);
    std::vector<double> fwd_times =
        compute.layerForwardTimes(network_, config.batch);
    for (double& t : fwd_times)
        t *= compute_slowdown;
    const double fwd =
        std::accumulate(fwd_times.begin(), fwd_times.end(), 0.0);
    const double bwd =
        compute.backwardTime(network_, config.batch) * compute_slowdown;

    const double bytes = network_.totalParamBytes();
    const simnet::ScheduleResult schedule =
        commOnly(mode, bytes, config.bandwidth_scale);

    IterationResult result;
    result.forward_time = fwd;
    result.backward_time = bwd;
    result.comm_time = schedule.completion_time;
    result.turnaround_time = schedule.turnaroundTime();

    const bool chained = mode == Mode::kComputeChaining ||
                         mode == Mode::kCCube;
    if (!chained) {
        // One-shot AllReduce strictly between backward and the next
        // forward (Fig. 2(a) dependencies, no chaining).
        result.iteration_time = bwd + schedule.completion_time + fwd;
    } else {
        // Gradient queuing: layer L's forward launches once the
        // previous layer finished and L's chunks all arrived
        // (Fig. 8(b)).
        const ChunkMapper mapper(schedule.geometry);
        const std::vector<double> layer_bytes =
            network_.layerParamBytes();
        double t = 0.0;
        for (int l = 0; l < network_.numLayers(); ++l) {
            const double ready =
                bwd + mapper.layerReadyTime(layer_bytes, l,
                                            schedule.chunk_ready);
            t = std::max(t, ready) +
                fwd_times[static_cast<std::size_t>(l)];
        }
        result.iteration_time = t;
    }

    const double ideal = fwd + bwd;
    result.normalized_perf = ideal / result.iteration_time;
    result.exposed_comm = result.iteration_time - ideal;
    result.chain_efficiency =
        result.comm_time > 0.0
            ? 1.0 - result.exposed_comm / result.comm_time
            : 1.0;
    return result;
}

std::vector<double>
CCubeEngine::perGpuNormalizedPerf(Mode mode,
                                  const IterationConfig& config,
                                  const sweep::Options& pool) const
{
    // Count forwarding kernels per GPU from the detour rules (switch
    // transits forward in hardware and have no rule).
    const int num_gpus = machine_.rings.front().size();
    std::vector<int> kernels(static_cast<std::size_t>(num_gpus), 0);
    for (const topo::ForwardingRule& rule :
         topo::extractForwardingRules(machine_.double_tree))
        ++kernels[static_cast<std::size_t>(rule.transit)];

    const IterationResult nominal =
        evaluate(mode, config, /*compute_slowdown=*/1.0);

    std::vector<double> perf(static_cast<std::size_t>(num_gpus), 0.0);
    sweep::runIndexed(
        pool, static_cast<std::size_t>(num_gpus),
        [&](std::size_t g) {
            const double tax = detour_tax_per_kernel_ * kernels[g];
            CCUBE_CHECK(tax < 1.0, "forwarding tax too large");
            const IterationResult taxed =
                evaluate(mode, config, 1.0 / (1.0 - tax));
            // Per-GPU throughput normalized to an untaxed GPU.
            perf[g] = nominal.iteration_time / taxed.iteration_time;
        });
    return perf;
}

std::vector<double>
CCubeEngine::perGpuNormalizedPerf(Mode mode,
                                  const IterationConfig& config) const
{
    return perGpuNormalizedPerf(mode, config, sweep::Options{});
}

} // namespace core
} // namespace ccube
