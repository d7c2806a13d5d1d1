#include "core/trainer.h"

#include <string>

#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace core {

TrainingRunResult
Trainer::run(Mode mode, const IterationConfig& config,
             int iterations) const
{
    CCUBE_CHECK(iterations >= 1, "need at least one iteration");

    const IterationResult steady = engine_.evaluate(mode, config);

    // Cold start: iteration 0 has no previous collective to chain
    // against, so its forward runs unchained; its backward and
    // AllReduce then feed iteration 1. The cold iteration costs
    // fwd + bwd; the collective's cost lands in the next period.
    const double cold = steady.forward_time + steady.backward_time;

    TrainingRunResult result;
    result.iterations = iterations;
    result.cold_start_time = cold;
    result.steady_iteration_time = steady.iteration_time;
    result.total_time =
        cold + static_cast<double>(iterations - 1) *
                   steady.iteration_time;

    const double samples_per_iteration =
        static_cast<double>(config.batch) *
        static_cast<double>(engine_.numGpus());
    result.samples_per_second =
        samples_per_iteration * static_cast<double>(iterations) /
        result.total_time;

    // Single-GPU baseline processes `batch` samples in fwd+bwd with
    // no communication at all.
    const double single_gpu_rate =
        static_cast<double>(config.batch) /
        (steady.forward_time + steady.backward_time);
    result.scaling_efficiency =
        result.samples_per_second /
        (single_gpu_rate * static_cast<double>(engine_.numGpus()));

    // One span per simulated iteration on the trainer track, so a
    // `--trace-out=` capture shows the cold start next to the steady
    // periods.
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        const int pid = obs::pids::core();
        recorder.setThreadName(pid, kTrainerTrack,
                               std::string("trainer ") + modeName(mode));
        recorder.completeEvent("iter 0 (cold)", "core.trainer", pid,
                               kTrainerTrack, 0.0, cold * 1e6,
                               {{"batch", double(config.batch)}});
        for (int i = 1; i < iterations; ++i) {
            const double start =
                cold + static_cast<double>(i - 1) *
                           steady.iteration_time;
            recorder.completeEvent(
                "iter " + std::to_string(i), "core.trainer", pid,
                kTrainerTrack, start * 1e6,
                steady.iteration_time * 1e6,
                {{"batch", double(config.batch)}});
        }
    }
    return result;
}

} // namespace core
} // namespace ccube
