#ifndef CCUBE_CORE_TRAINER_H_
#define CCUBE_CORE_TRAINER_H_

/**
 * @file
 * Multi-iteration training-run simulation.
 *
 * Composes steady-state iteration timelines into a full training run:
 * the first iteration has no gradients to chain against (cold start),
 * subsequent iterations pipeline backward → AllReduce → chained
 * forward exactly as Fig. 2(c). Reports per-run throughput and
 * scaling efficiency against the single-GPU baseline — the metric
 * Fig. 13 normalizes by.
 */

#include <vector>

#include "core/ccube_engine.h"

namespace ccube {
namespace core {

/** Summary of a simulated training run. */
struct TrainingRunResult {
    int iterations = 0;
    double total_time = 0.0;            ///< wall-clock of the run
    double cold_start_time = 0.0;       ///< first iteration (unchained)
    double steady_iteration_time = 0.0; ///< per-iteration period after
    double samples_per_second = 0.0;    ///< global throughput
    /** Throughput relative to the engine's GPUs × single-GPU
     *  (Fig. 13's normalization). */
    double scaling_efficiency = 0.0;
};

/**
 * Simulates an @p iterations-long training run of one workload.
 */
class Trainer
{
  public:
    /** Trace track (tid) the per-iteration spans record under —
     *  distinct from TimelineBuilder's phase tracks. */
    static constexpr int kTrainerTrack = 3;

    explicit Trainer(const CCubeEngine& engine) : engine_(engine) {}

    /** Runs @p iterations iterations in @p mode. */
    TrainingRunResult run(Mode mode, const IterationConfig& config,
                          int iterations) const;

  private:
    const CCubeEngine& engine_;
};

} // namespace core
} // namespace ccube

#endif // CCUBE_CORE_TRAINER_H_
