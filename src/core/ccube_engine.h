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
#include "dnn/network.h"
#include "model/alpha_beta.h"
#include "simnet/collective_schedule.h"
#include "topo/dgx1.h"
#include "topo/dgx2.h"
#include "topo/double_tree.h"
#include "topo/graph.h"
#include "topo/ring_embedding.h"

namespace ccube {
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

/** One iteration composed around a simulated AllReduce. */
struct ComposedIteration {
    IterationResult result;
    /** Forward layer l runs [forward_start[l], forward_end[l]]. */
    std::vector<double> forward_start;
    std::vector<double> forward_end;
};

/**
 * A machine description the engine can run on: the physical graph
 * plus the logical embeddings the collectives use.
 */
struct MachineModel {
    topo::Graph graph;
    topo::DoubleTreeEmbedding double_tree;
    std::vector<topo::RingEmbedding> rings;
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
    /** Binds @p network as the workload on @p machine (see
     *  makeDgx1Machine / makeDgx2Machine). */
    CCubeEngine(dnn::NetworkModel network,
                MachineModel machine = makeDgx1Machine());

    /** Steady-state iteration result for @p mode: commOnly of the
     *  workload's gradients, then compose. */
    IterationResult evaluate(Mode mode,
                             const IterationConfig& config) const;

    /**
     * Fig. 15: per-GPU normalized performance under @p mode. GPUs
     * hosting detour forwarding kernels lose 2% of their compute
     * throughput per hosted kernel; the tax slows compute only, so
     * every GPU's iteration is composed around one simulated
     * AllReduce.
     */
    std::vector<double>
    perGpuNormalizedPerf(Mode mode, const IterationConfig& config) const;

    /**
     * Lays compute at @p batch around the simulated AllReduce
     * @p schedule of @p mode: backward, the AllReduce, then forward,
     * with each layer of a chained mode gated on its gradients
     * (Fig. 8(b)) and the unchained ones waiting for the whole
     * collective (Fig. 2(a)). Compute runs @p compute_slowdown times
     * slower than nominal (the detour tax).
     */
    ComposedIteration compose(Mode mode, int batch,
                              const simnet::ScheduleResult& schedule,
                              double compute_slowdown = 1.0) const;

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

    /** GPUs in the machine: every ring visits each one once. */
    int numGpus() const { return machine_.rings.front().size(); }

    /** The workload. */
    const dnn::NetworkModel& network() const { return network_; }

  private:
    /** K_opt per tree for a payload of @p bytes_per_tree. */
    int chunksPerTree(double bytes_per_tree) const;

    MachineModel machine_;
    dnn::NetworkModel network_;
};

} // namespace core
} // namespace ccube

#endif // CCUBE_CORE_CCUBE_ENGINE_H_
