#ifndef CCUBE_DNN_COMPUTE_MODEL_H_
#define CCUBE_DNN_COMPUTE_MODEL_H_

/**
 * @file
 * Roofline GPU compute-time model.
 *
 * Per-layer kernel time is the larger of the compute term
 * (FLOPs / sustained throughput) and the memory term
 * (bytes moved / memory bandwidth), plus a fixed kernel overhead —
 * enough fidelity to produce the per-layer compute profile of
 * Fig. 17 and the compute/communication balance of Figs. 1, 13, 16.
 */

#include <vector>

#include "dnn/network.h"

namespace ccube {
namespace dnn {

/** V100-class device parameters. */
struct GpuComputeParams {
    double peak_flops = 15.7e12;      ///< fp32 peak, FLOP/s
    double efficiency = 0.65;         ///< sustained fraction of peak
    double memory_bandwidth = 900e9;  ///< HBM2, bytes/s
    double kernel_overhead = 5e-6;    ///< per-layer launch cost, s
    double backward_flop_ratio = 2.0; ///< backward ≈ 2× forward FLOPs
};

/**
 * Computes layer and network execution times on one GPU.
 */
class ComputeModel
{
  public:
    explicit ComputeModel(GpuComputeParams params = {})
        : params_(params)
    {
    }

    /** Forward time of one layer for a mini-batch of @p batch. */
    double forwardTime(const Layer& layer, int batch) const;

    /** Backward time of one layer (activation + weight gradients). */
    double backwardTime(const Layer& layer, int batch) const;

    /** Sum of per-layer forward times. */
    double forwardTime(const NetworkModel& network, int batch) const;

    /** Sum of per-layer backward times. */
    double backwardTime(const NetworkModel& network, int batch) const;

    /** Per-layer forward times in forward order. */
    std::vector<double>
    layerForwardTimes(const NetworkModel& network, int batch) const;

    const GpuComputeParams& params() const { return params_; }

  private:
    double kernelTime(double flops, double bytes) const;

    GpuComputeParams params_;
};

} // namespace dnn
} // namespace ccube

#endif // CCUBE_DNN_COMPUTE_MODEL_H_
