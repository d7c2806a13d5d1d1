#include "dnn/compute_model.h"

#include <algorithm>

#include "util/logging.h"

namespace ccube {
namespace dnn {

double
ComputeModel::kernelTime(double flops, double bytes) const
{
    const double compute =
        flops / (params_.peak_flops * params_.efficiency);
    const double memory = bytes / params_.memory_bandwidth;
    return std::max(compute, memory) + params_.kernel_overhead;
}

double
ComputeModel::forwardTime(const Layer& layer, int batch) const
{
    CCUBE_CHECK(batch >= 1, "batch must be positive");
    const double b = static_cast<double>(batch);
    const double flops =
        static_cast<double>(layer.forward_flops_per_sample) * b;
    const double bytes =
        4.0 * b *
            static_cast<double>(layer.input_elems_per_sample +
                                layer.output_elems_per_sample) +
        layer.paramBytes();
    return kernelTime(flops, bytes);
}

double
ComputeModel::backwardTime(const Layer& layer, int batch) const
{
    const double b = static_cast<double>(batch);
    const double flops =
        static_cast<double>(layer.forward_flops_per_sample) * b *
        params_.backward_flop_ratio;
    // Backward touches activations and gradients of both sides plus
    // parameter gradients.
    const double bytes =
        8.0 * b *
            static_cast<double>(layer.input_elems_per_sample +
                                layer.output_elems_per_sample) +
        2.0 * layer.paramBytes();
    return kernelTime(flops, bytes);
}

double
ComputeModel::forwardTime(const NetworkModel& network, int batch) const
{
    double total = 0.0;
    for (const Layer& layer : network.layers())
        total += forwardTime(layer, batch);
    return total;
}

double
ComputeModel::backwardTime(const NetworkModel& network, int batch) const
{
    double total = 0.0;
    for (const Layer& layer : network.layers())
        total += backwardTime(layer, batch);
    return total;
}

std::vector<double>
ComputeModel::layerForwardTimes(const NetworkModel& network,
                                int batch) const
{
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(network.numLayers()));
    for (const Layer& layer : network.layers())
        times.push_back(forwardTime(layer, batch));
    return times;
}

} // namespace dnn
} // namespace ccube
