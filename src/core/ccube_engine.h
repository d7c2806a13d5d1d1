#ifndef CCUBE_CORE_CCUBE_ENGINE_H_
#define CCUBE_CORE_CCUBE_ENGINE_H_

/**
 * @file
 * C-Cube engine: the library's top-level facade.
 *
 * Assembles the DGX-1 topology, the conflict-free double-tree
 * embedding with detour routes, the logical ring, and a workload
 * model, and evaluates the paper's five configurations. This is the
 * public API the examples and benchmarks drive.
 *
 * An evaluation composes backward compute, one-shot AllReduce, and
 * (for the chained modes) gradient-queue-driven forward computation
 * into a steady-state iteration timeline (paper Fig. 2(c), Fig. 8).
 * Modes map to the paper's evaluation labels (§V-B):
 *   B  — baseline double tree, no overlap;
 *   C1 — overlapped (reduction-broadcast chained) double tree;
 *   C2 — gradient-queue compute chaining over the baseline tree;
 *   R  — ring AllReduce (NCCL-style), no chaining (out-of-order);
 *   CC — C-Cube: C1 + C2.
 */

#include <vector>

#include "dnn/catalog.h"
#include "dnn/compute_model.h"
#include "dnn/network.h"
#include "model/alpha_beta.h"
#include "simnet/collective_schedule.h"
#include "topo/dgx1.h"
#include "topo/dgx2.h"
#include "topo/double_tree.h"
#include "topo/graph.h"
#include "topo/ring_embedding.h"

namespace ccube {

namespace sweep {
struct Options;
}

namespace core {

/** Evaluation configurations of §V-B. */
enum class Mode {
    kBaseline,        ///< B: two-phase double tree
    kOverlappedTree,  ///< C1: overlapped double tree
    kComputeChaining, ///< C2: gradient queuing over baseline tree
    kRing,            ///< R: ring AllReduce
    kCCube,           ///< CC: C1 + C2
};

/** Paper's short label for a mode ("B", "C1", "C2", "R", "CC"). */
const char* modeName(Mode mode);

/** All five modes in the paper's presentation order. */
std::vector<Mode> allModes();

/** Per-run knobs. */
struct IterationConfig {
    int batch = 64;
    /** 1.0 = full NVLink ("high"); 0.25 = the paper's "low". */
    double bandwidth_scale = 1.0;
};

/** Steady-state timing of one training iteration. */
struct IterationResult {
    double forward_time = 0.0;    ///< unchained forward compute
    double backward_time = 0.0;   ///< backward compute
    double comm_time = 0.0;       ///< AllReduce completion
    double turnaround_time = 0.0; ///< first chunk ready (rel. to comm)
    double iteration_time = 0.0;  ///< steady-state period
    /** (fwd+bwd) / iteration — 1.0 means communication-free ideal. */
    double normalized_perf = 0.0;
    /** Communication not hidden behind compute. */
    double exposed_comm = 0.0;
    /** 1 − exposed/comm: fraction of AllReduce hidden by chaining. */
    double chain_efficiency = 0.0;
};

/** Engine construction parameters. */
struct EngineConfig {
    topo::Dgx1Params dgx1;       ///< machine model
    dnn::GpuComputeParams gpu;   ///< per-GPU compute model
    /** SM fraction consumed per hosted forwarding kernel (Fig. 15). */
    double detour_tax_per_kernel = 0.02;
    /** Logical rings striped by the R baseline (NCCL-style). */
    int ring_count = 4;
};

/**
 * A machine description the engine can run on: the physical graph
 * plus the logical embeddings the collectives use.
 */
struct MachineModel {
    topo::Graph graph;
    topo::DoubleTreeEmbedding double_tree;
    std::vector<topo::RingEmbedding> rings;
    int num_gpus = 0;
};

/** The paper's platform: DGX-1 with the Fig. 10 embedding and
 *  NCCL-style striped rings. */
MachineModel makeDgx1Machine(const topo::Dgx1Params& params = {},
                             int ring_count = 4);

/**
 * The future-work platform: DGX-2/NVSwitch with 3-edge-colored
 * plane-private trees; the ring baseline is a single switch-routed
 * ring (striping across planes is the trees' trick here).
 */
MachineModel makeDgx2Machine(const topo::Dgx2Params& params = {});

/**
 * One machine + one workload, ready to evaluate any mode.
 */
class CCubeEngine
{
  public:
    /** Builds the DGX-1 and binds @p network as the workload. */
    CCubeEngine(dnn::NetworkModel network, EngineConfig config = {});

    /** Runs on a custom machine (see makeDgx1Machine / ...Dgx2...). */
    CCubeEngine(dnn::NetworkModel network, MachineModel machine,
                EngineConfig config = {});

    /** Steady-state iteration result for @p mode. */
    IterationResult evaluate(Mode mode,
                             const IterationConfig& config) const;

    /**
     * Fig. 15: per-GPU normalized performance under @p mode. GPUs
     * hosting detour forwarding kernels pay the configured tax of
     * their compute throughput per hosted kernel.
     */
    std::vector<double>
    perGpuNormalizedPerf(Mode mode, const IterationConfig& config) const;

    /**
     * Same, with the per-GPU evaluations fanned across the sweep
     * pool (each GPU's taxed run is independent). Identical output
     * for every job count.
     */
    std::vector<double>
    perGpuNormalizedPerf(Mode mode, const IterationConfig& config,
                         const sweep::Options& pool) const;

    /**
     * Communication-only schedule for @p mode moving @p bytes at
     * @p bandwidth_scale (Fig. 12); chunk counts follow the tree
     * model's K_opt.
     */
    simnet::ScheduleResult commOnly(Mode mode, double bytes,
                                    double bandwidth_scale = 1.0) const;

    /** α-β parameters implied by the graph's first NVLink channel. */
    model::AlphaBeta linkModel() const;

    /** The machine graph in use. */
    const topo::Graph& graph() const { return machine_.graph; }

    /** The double-tree embedding in use. */
    const topo::DoubleTreeEmbedding& doubleTree() const
    {
        return machine_.double_tree;
    }

    /** The logical rings in use (NCCL-style multi-ring R). */
    const std::vector<topo::RingEmbedding>& rings() const
    {
        return machine_.rings;
    }

    /** The workload. */
    const dnn::NetworkModel& network() const { return network_; }

    /** GPU compute parameters in use. */
    const dnn::GpuComputeParams& gpuParams() const { return gpu_; }

  private:
    /** K_opt per tree for a payload of @p bytes_per_tree. */
    int chunksPerTree(double bytes_per_tree) const;

    /**
     * Full evaluation with a compute slowdown factor (1.0 = nominal);
     * the slowdown models the SM tax of detour forwarding kernels.
     */
    IterationResult evaluate(Mode mode, const IterationConfig& config,
                             double compute_slowdown) const;

    MachineModel machine_;
    dnn::NetworkModel network_;
    dnn::GpuComputeParams gpu_;
    double detour_tax_per_kernel_;
};

} // namespace core
} // namespace ccube

#endif // CCUBE_CORE_CCUBE_ENGINE_H_
