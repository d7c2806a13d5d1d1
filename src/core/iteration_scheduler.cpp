#include "core/iteration_scheduler.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/chunk_mapper.h"
#include "model/tree_model.h"
#include "obs/metrics.h"
#include "simnet/channel.h"
#include "simnet/double_tree_schedule.h"
#include "simnet/multi_ring_schedule.h"
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

IterationScheduler::IterationScheduler(
    const topo::Graph& graph, topo::DoubleTreeEmbedding double_tree,
    std::vector<topo::RingEmbedding> rings, dnn::NetworkModel network,
    dnn::GpuComputeParams gpu_params)
    : graph_(graph),
      double_tree_(std::move(double_tree)),
      rings_(std::move(rings)),
      network_(std::move(network)),
      gpu_params_(gpu_params)
{
    CCUBE_CHECK(!rings_.empty() && rings_.front().size() >= 2,
                "ring embeddings missing");
}

model::AlphaBeta
IterationScheduler::linkModel() const
{
    for (const topo::ChannelDesc& desc : graph_.channels()) {
        if (desc.kind == topo::LinkKind::kNvlink) {
            return model::AlphaBeta::fromBandwidth(desc.latency,
                                                   desc.bandwidth);
        }
    }
    util::panic("topology has no NVLink channels");
}

int
IterationScheduler::chunksPerTree(double bytes_per_tree) const
{
    const model::TreeModel tree(linkModel());
    return tree.optimalChunksInt(rings_.front().size(), bytes_per_tree);
}

simnet::ScheduleResult
IterationScheduler::commSchedule(Mode mode, double bytes,
                                 double bandwidth_scale) const
{
    sim::Simulation simulation;
    simnet::Network network(simulation, graph_, bandwidth_scale);
    simnet::ScheduleResult result;
    switch (mode) {
      case Mode::kRing:
        result = simnet::runMultiRingSchedule(simulation, network,
                                              rings_, bytes);
        break;
      case Mode::kBaseline:
      case Mode::kComputeChaining:
        result = simnet::runDoubleTreeSchedule(
            simulation, network, double_tree_, bytes,
            simnet::PhaseMode::kTwoPhase, chunksPerTree(bytes / 2.0));
        break;
      case Mode::kOverlappedTree:
      case Mode::kCCube:
        result = simnet::runDoubleTreeSchedule(
            simulation, network, double_tree_, bytes,
            simnet::PhaseMode::kOverlapped, chunksPerTree(bytes / 2.0));
        break;
      default:
        util::panic("unknown mode");
    }

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
IterationScheduler::run(Mode mode, const IterationConfig& config) const
{
    return evaluate(mode, config, /*compute_slowdown=*/1.0);
}

IterationResult
IterationScheduler::evaluate(Mode mode, const IterationConfig& config,
                             double compute_slowdown) const
{
    CCUBE_CHECK(config.batch >= 1, "batch must be positive");
    CCUBE_CHECK(config.bandwidth_scale > 0.0,
                "bandwidth scale must be positive");

    const dnn::ComputeModel compute(gpu_params_);
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
        commSchedule(mode, bytes, config.bandwidth_scale);

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
IterationScheduler::perGpuNormalizedPerf(Mode mode,
                                         const IterationConfig& config,
                                         double tax_per_kernel,
                                         const sweep::Options& pool) const
{
    // Count forwarding kernels per GPU from the detour rules (switch
    // transits forward in hardware and have no rule).
    const int num_gpus = rings_.front().size();
    std::vector<int> kernels(static_cast<std::size_t>(num_gpus), 0);
    for (const topo::ForwardingRule& rule :
         topo::extractForwardingRules(double_tree_))
        ++kernels[static_cast<std::size_t>(rule.transit)];

    const IterationResult nominal =
        evaluate(mode, config, /*compute_slowdown=*/1.0);

    std::vector<double> perf(static_cast<std::size_t>(num_gpus), 0.0);
    sweep::runIndexed(
        pool, static_cast<std::size_t>(num_gpus),
        [&](std::size_t g) {
            const double tax = tax_per_kernel * kernels[g];
            CCUBE_CHECK(tax < 1.0, "forwarding tax too large");
            const IterationResult taxed =
                evaluate(mode, config, 1.0 / (1.0 - tax));
            // Per-GPU throughput normalized to an untaxed GPU.
            perf[g] = nominal.iteration_time / taxed.iteration_time;
        });
    return perf;
}

std::vector<double>
IterationScheduler::perGpuNormalizedPerf(
    Mode mode, const IterationConfig& config,
    double tax_per_kernel) const
{
    return perGpuNormalizedPerf(mode, config, tax_per_kernel,
                                sweep::Options{});
}

} // namespace core
} // namespace ccube
